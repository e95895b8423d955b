"""The bundled distributed apps and their fabric wiring.

Every entry pairs a pure-sjava program (under
``src/repro/apps/programs/``, checked self-stabilizing by the static
checker like every single-node app) with the fabric-side facts the
harness needs: state width, initial states, the device view (how
``Device.readX`` calls map onto fabric state), the legitimacy predicate
its verdicts are decided against, and the topology/scheduler/horizon
defaults.  Everything is derivable from the app name alone, which is
what lets campaign pool workers reconstruct an experiment from a plain
string.

Convergence-bound expectations (documented in docs/DISTRIBUTED.md):

* ``herman_bit`` / ``herman_pass`` — odd ring, expected O(N^2) rounds;
* ``dijkstra_ring`` — K-state ring (K = N + 2), O(N) round-robin sweeps;
* ``gradient_field`` — at most diameter + 1 synchronous rounds after a
  single-node corruption of a converged field;
* ``gradient_channel`` — three stacked gradients; the composite
  re-stabilizes from every corruption (compositionality).
"""

from __future__ import annotations

from typing import Optional

from repro.apps.registry import DIST_APP_NAMES, load_app
from repro.dist.harness import PAD, DistAppSpec, DistExperiment, NodeView
from repro.dist.scheduler import make_scheduler
from repro.dist.topology import Topology, make_topology

__all__ = [
    "DIST_APP_NAMES",
    "dist_app_spec",
    "dist_app_experiment",
]


def _bit(value: int) -> int:
    return 1 if value != 0 else 0


def _fold(value: int, k: int) -> int:
    return ((value % k) + k) % k


# -- Herman's token ring ----------------------------------------------------


def _herman_init(node: int, topo: Topology) -> tuple:
    return (0,)


def _herman_read(view: NodeView, name: str, index: int) -> int:
    if name == "readSelf":
        return view.state[0]
    if name == "readLeft":
        return view.left_state[0]
    if name == "readCoin":
        return view.coin
    return 0


def _herman_legitimate(
    states: list, reference: list, topo: Topology, params: dict
) -> bool:
    bits = [_bit(s[0]) for s in states]
    tokens = sum(
        1 for i in range(len(bits)) if bits[i] == bits[i - 1]
    )
    return tokens == 1


# -- Dijkstra's K-state ring ------------------------------------------------


def _dijkstra_params(topo: Topology) -> dict:
    return {"k": topo.nodes + 2}


def _dijkstra_read(view: NodeView, name: str, index: int) -> int:
    if name == "readSelf":
        return view.state[0]
    if name == "readLeft":
        return view.left_state[0]
    if name == "readParam":
        return view.params["k"]
    if name == "readFlag":
        return 1 if view.node == 0 else 0
    return 0


def _dijkstra_legitimate(
    states: list, reference: list, topo: Topology, params: dict
) -> bool:
    k = params["k"]
    values = [_fold(s[0], k) for s in states]
    privileged = sum(
        1 for i in range(len(values))
        if (values[i] == values[i - 1]) == (i == 0)
    )
    return privileged == 1


# -- Gradient (hop-count) field ---------------------------------------------


def _gradient_read(view: NodeView, name: str, index: int) -> int:
    if name == "readFlag":
        return 1 if view.node == 0 else 0
    if name == "readNeighbor":
        if index < len(view.neighbor_states):
            return view.neighbor_states[index][0]
        return PAD
    return 0


def _trajectory_legitimate(
    states: list, reference: list, topo: Topology, params: dict
) -> bool:
    return list(states) == list(reference)


# -- Composed gradients (the channel) ---------------------------------------


def _channel_source_b(topo: Topology) -> int:
    # Off-center on purpose: with B at the far end of a symmetric
    # topology every node sits on a shortest A-B path and the channel
    # degenerates to the whole graph.
    return (2 * (topo.nodes - 1)) // 3


def _channel_params(topo: Topology) -> dict:
    return {"limit": topo.distance(0, _channel_source_b(topo))}


def _channel_read(view: NodeView, name: str, index: int) -> int:
    if name == "readFlag":
        if index == 0:
            return 1 if view.node == 0 else 0
        return 1 if view.node == _channel_source_b(view.topology) else 0
    if name == "readParam":
        return view.params["limit"]
    if name == "readNeighbor":
        slot, component = divmod(index, 3)
        if slot < len(view.neighbor_states):
            return view.neighbor_states[slot][component]
        return PAD
    return 0


_SPECS: dict[str, DistAppSpec] = {
    "herman_bit": DistAppSpec(
        name="herman_bit",
        program="herman_bit.sj",
        state_width=1,
        topology="ring:5",
        scheduler="synchronous",
        rounds=16,
        recovery_window=32,
        init=_herman_init,
        read=_herman_read,
        legitimate=_herman_legitimate,
        params=lambda topo: {},
        summary="Herman token ring, random-bit interpretation",
    ),
    "herman_pass": DistAppSpec(
        name="herman_pass",
        program="herman_pass.sj",
        state_width=1,
        topology="ring:5",
        scheduler="synchronous",
        rounds=16,
        recovery_window=32,
        init=_herman_init,
        read=_herman_read,
        legitimate=_herman_legitimate,
        params=lambda topo: {},
        summary="Herman token ring, random-pass interpretation",
    ),
    "dijkstra_ring": DistAppSpec(
        name="dijkstra_ring",
        program="dijkstra_ring.sj",
        state_width=1,
        topology="ring:5",
        scheduler="round-robin",
        rounds=12,
        recovery_window=24,
        init=lambda node, topo: (0,),
        read=_dijkstra_read,
        legitimate=_dijkstra_legitimate,
        params=_dijkstra_params,
        summary="Dijkstra K-state token ring (K = N + 2)",
    ),
    "gradient_field": DistAppSpec(
        name="gradient_field",
        program="gradient_field.sj",
        state_width=1,
        topology="grid:3x3",
        scheduler="synchronous",
        rounds=10,
        recovery_window=10,
        init=lambda node, topo: (0,),
        read=_gradient_read,
        legitimate=_trajectory_legitimate,
        params=lambda topo: {},
        summary="hop-count gradient field from a single source",
    ),
    "gradient_channel": DistAppSpec(
        name="gradient_channel",
        program="gradient_channel.sj",
        state_width=3,
        topology="line:7",
        scheduler="synchronous",
        rounds=12,
        recovery_window=20,
        init=lambda node, topo: (0, 0, 0),
        read=_channel_read,
        legitimate=_trajectory_legitimate,
        params=_channel_params,
        summary="three stacked gradients (compositionality channel)",
    ),
}

assert tuple(_SPECS) == DIST_APP_NAMES


def dist_app_spec(name: str) -> DistAppSpec:
    if name not in _SPECS:
        raise KeyError(
            f"unknown distributed app {name!r}; available: {DIST_APP_NAMES}"
        )
    return _SPECS[name]


def dist_app_experiment(
    name: str,
    iterations: Optional[int] = None,
    *,
    step_budget: Optional[int] = None,
    step_budget_factor: Optional[int] = None,
    topology: Optional[str] = None,
    scheduler: Optional[str] = None,
    seed: int = 0,
    engine: Optional[type] = None,
) -> DistExperiment:
    """A ready-to-run distributed experiment, derivable from the app
    name alone (campaign workers reconstruct it from a string, exactly
    like :func:`repro.apps.registry.app_experiment`).  ``iterations``
    maps onto fabric *rounds* (the injection horizon)."""
    spec = dist_app_spec(name)
    topo = make_topology(topology or spec.topology)
    if spec.name.startswith(("herman", "dijkstra")) and topo.kind != "ring":
        raise ValueError(f"{name} needs a ring topology, got {topo.spec!r}")
    if spec.name.startswith("herman") and topo.nodes % 2 == 0:
        raise ValueError(f"{name} needs an odd ring (token-count parity)")
    bundle = load_app(name)
    kwargs = {}
    if engine is not None:
        kwargs["engine"] = engine
    return DistExperiment(
        spec=spec,
        info=bundle.info,
        topology=topo,
        scheduler=make_scheduler(scheduler or spec.scheduler, seed=seed),
        rounds=iterations if iterations is not None else spec.rounds,
        recovery_window=spec.recovery_window,
        step_budget=step_budget,
        step_budget_factor=step_budget_factor,
        seed=seed,
        **kwargs,
    )
