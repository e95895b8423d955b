"""The distributed node harness and message-passing fabric.

N independent sjava program instances — one per fabric node — executed
by the *unchanged* single-node backends (the code generator, or the
tree-walking interpreter as its differential oracle).  Each activation
runs one node's program for exactly one event-loop iteration on an
:class:`IterationKeyedDevice` whose generator exposes that node's view
of the fabric (own state, neighbor states, coins, role flags, protocol
parameters); the values the program ``SJ.broadcast``-s become the
node's next state.  Programs therefore stay pure sjava and every one of
them passes the static self-stabilization checker.

Fault injection reuses :class:`~repro.runtime.injection.ErrorInjector`
unchanged: a *composite site* is ``(node, local step)`` where local
steps are the injectable sites of that node's activations concatenated
in schedule order.  :class:`DistExperiment` shares one trial lifecycle
with single-node experiments
(:class:`~repro.runtime.stabilization.TrialLifecycle`: ``total_steps``
/ ``trial_at`` / ``trial``), which is what lets
``repro.runtime.campaign`` sweep distributed apps with no new worker
protocol.

A round counts against a trial when its node states differ from the
reference's *and* fail the app's *legitimacy predicate* (a closed set
of states), because randomized protocols (Herman) recover to the
legitimate set, not to the reference trajectory; deterministic apps
(gradient) use trajectory equality as their predicate, which coincides
with the classic notion.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.lang.symtab import ProgramInfo
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice
from repro.runtime.injection import ErrorInjector, StepCounter
from repro.runtime.interpreter import RuntimeOptions, state_digest
from repro.runtime.stabilization import InjectedRun, TrialLifecycle

from repro.dist.scheduler import Scheduler
from repro.dist.topology import Topology

#: Neighbor slots a program reads; absent slots are padded by the spec.
MAX_DEGREE = 4

#: Value padding absent neighbor slots in min-gradient reads (neutral
#: for the min because programs clamp reads into [0, 9998]).
PAD = 9998


def coin_bit(seed: int, round_index: int, node: int) -> int:
    """Deterministic fair coin, a pure function of (seed, round, node) —
    never of history, so reference and injected runs draw the identical
    coin sequence.  SHA-256, not CRC32: CRC is linear over GF(2), and
    its low bit across near-identical keys is so correlated that Herman
    tokens march in lockstep and never annihilate."""
    key = f"{seed}:{round_index}:{node}".encode("ascii")
    return hashlib.sha256(key).digest()[0] & 1


@dataclass
class NodeView:
    """What one activation of one node can observe."""

    node: int
    nodes: int
    round_index: int
    state: tuple
    left_state: tuple
    neighbor_states: list[tuple]
    coin: int
    params: dict
    topology: Topology


class _RoundInjector:
    """Adapts an :class:`ErrorInjector` (or a :class:`StepCounter`) to
    the fabric's round clock.

    Every activation is iteration 0 of a fresh engine run, so the
    interpreter's own ``begin_iteration(0)`` calls are dropped and the
    fabric advances the inner injector's clock once per round —
    ``injection_iteration`` then records the fabric *round*.
    """

    def __init__(self, inner: ErrorInjector | StepCounter) -> None:
        self.inner = inner

    def begin_round(self, round_index: int) -> None:
        self.inner.begin_iteration(round_index)

    def begin_iteration(self, iteration: int) -> None:  # noqa: ARG002
        pass

    def site(self, value: object, node: object) -> object:
        return self.inner.site(value, node)


@dataclass
class SimResult:
    """One fabric simulation: committed states per round, plus meters."""

    #: ``trajectory[r][i]`` — node ``i``'s state tuple after round ``r``.
    trajectory: list[tuple[tuple, ...]]
    steps: int
    errors: int

    def node_trace(self, node: int) -> list[tuple]:
        return [states[node] for states in self.trajectory]

    def node_digest(self, node: int) -> str:
        flat = [c for states in self.trajectory for c in states[node]]
        return state_digest(flat)


@dataclass(frozen=True)
class DistAppSpec:
    """Everything that defines one distributed app (see
    :mod:`repro.dist.registry` for the bundled ones)."""

    name: str
    program: str
    state_width: int
    topology: str
    scheduler: str
    #: Rounds whose activations are injectable (the site horizon).
    rounds: int
    #: Extra rounds simulated past the horizon so a fault injected in
    #: the last injectable round still has room to recover.
    recovery_window: int
    init: Callable[[int, Topology], tuple]
    read: Callable[[NodeView, str, int], int]
    #: legitimate(states, reference_states_same_round, topology, params)
    legitimate: Callable[[list, list, Topology, dict], bool]
    params: Callable[[Topology], dict]
    summary: str = ""


@dataclass
class DistExperiment(TrialLifecycle):
    """Reference + injected fabric simulations of one distributed app.

    Trials follow :class:`~repro.runtime.stabilization.TrialLifecycle`:
    an injected run simulates the whole horizon with the injector on
    one node, and its trajectory is compared with the reference's as
    one group of N node states per round.
    """

    spec: DistAppSpec
    info: ProgramInfo
    topology: Topology
    scheduler: Scheduler
    rounds: int
    recovery_window: int
    engine: type = CompiledRunner
    step_budget: Optional[int] = None
    step_budget_factor: Optional[int] = None
    seed: int = 0
    #: The clean run's caches; not init fields, as on
    #: :class:`~repro.runtime.stabilization.StabilizationExperiment`.
    _reference: Optional[SimResult] = field(
        default=None, init=False, repr=False
    )
    _site_counts: Optional[list[int]] = field(default=None, init=False)

    # -- fabric simulation ------------------------------------------------

    @property
    def nodes(self) -> int:
        return self.topology.nodes

    def horizon(self) -> int:
        return self.rounds + self.recovery_window

    def _view(
        self, node: int, round_index: int, states: list[tuple]
    ) -> NodeView:
        topo = self.topology
        left = topo.left(node) if topo.kind == "ring" else node
        return NodeView(
            node=node,
            nodes=topo.nodes,
            round_index=round_index,
            state=states[node],
            left_state=states[left],
            neighbor_states=[states[j] for j in topo.neighbors[node]],
            coin=coin_bit(self.seed, round_index, node),
            params=self.spec.params(topo),
            topology=topo,
        )

    def _activate(
        self,
        node: int,
        round_index: int,
        states: list[tuple],
        injector: Optional[object],
        budget: Optional[int],
    ):
        view = self._view(node, round_index, states)
        read = self.spec.read

        def generator(name: str, iteration: int, index: int) -> object:
            return read(view, name, index)

        engine = self.engine(
            self.info,
            IterationKeyedDevice(generator, iterations=1),
            options=RuntimeOptions(ignore_errors=True, step_budget=budget),
            injector=injector,
        )
        engine.run()
        width = self.spec.state_width
        out = engine.sink.values[-width:]
        if len(out) == width and all(
            isinstance(v, (bool, int)) for v in out
        ):
            new_state = tuple(int(v) for v in out)
        else:
            # A crash-avoided activation that lost its broadcasts keeps
            # the previous state (an omission fault, not a new value).
            new_state = states[node]
        return new_state, engine.steps, len(engine.error_log)

    def simulate(
        self,
        rounds: int,
        initial: Optional[list[tuple]] = None,
        injectors: Optional[dict[int, _RoundInjector]] = None,
        step_budget: Optional[int] = None,
        start_round: int = 0,
    ) -> SimResult:
        """Run the fabric for ``rounds`` rounds.  ``injectors`` maps a
        node to the :class:`_RoundInjector` attached to that node's
        activations; its clock tracks fabric rounds.  Raises
        :class:`StepBudgetExceeded` when the cumulative step budget runs
        out."""
        injectors = injectors or {}
        topo = self.topology
        states: list[tuple] = list(
            initial
            if initial is not None
            else [self.spec.init(i, topo) for i in range(topo.nodes)]
        )
        trajectory: list[tuple[tuple, ...]] = []
        steps = 0
        errors = 0
        for r in range(start_round, start_round + rounds):
            for injector in injectors.values():
                injector.begin_round(r)
            order = self.scheduler.order(r, topo.nodes)
            source = list(states) if self.scheduler.synchronous else states
            staged: dict[int, tuple] = {}
            for node in order:
                budget = (
                    step_budget - steps if step_budget is not None else None
                )
                new_state, used, errs = self._activate(
                    node, r, source, injectors.get(node), budget
                )
                steps += used
                errors += errs
                if self.scheduler.synchronous:
                    staged[node] = new_state
                else:
                    states[node] = new_state
            if self.scheduler.synchronous:
                for node, new_state in staged.items():
                    states[node] = new_state
            trajectory.append(tuple(states))
        return SimResult(trajectory=trajectory, steps=steps, errors=errors)

    # -- reference + site bookkeeping ------------------------------------

    def reference(self) -> SimResult:
        if self._reference is None:
            self._reference = self.simulate(self.horizon())
        return self._reference

    def reference_steps(self) -> int:
        return self.reference().steps

    def node_site_counts(self) -> list[int]:
        """Injectable sites per node across the injection horizon."""
        if self._site_counts is None:
            counters = {
                node: _RoundInjector(StepCounter())
                for node in range(self.nodes)
            }
            self.simulate(self.rounds, injectors=counters)
            self._site_counts = [
                counters[node].inner.step for node in range(self.nodes)
            ]
        return self._site_counts

    def total_steps(self) -> int:
        """Composite injectable sites: sum over nodes of per-node sites."""
        return sum(self.node_site_counts())

    def site_location(self, site: int) -> tuple[int, int]:
        """Map a composite site to ``(node, local step)``."""
        remaining = site
        for node, count in enumerate(self.node_site_counts()):
            if remaining < count:
                return node, remaining
            remaining -= count
        # Out-of-range sites degrade to a never-firing local step on the
        # last node (the trial reports not-injected), mirroring how the
        # single-node injector treats an over-large target.
        return self.nodes - 1, remaining + self.node_site_counts()[-1]

    def site_of(self, node: int, local_step: int) -> int:
        """Inverse of :meth:`site_location` (for tests and tools)."""
        return sum(self.node_site_counts()[:node]) + local_step

    # -- trials -----------------------------------------------------------

    def reference_groups(self) -> list[tuple[tuple, ...]]:
        """The reference trajectory: one group of node states per round."""
        return self.reference().trajectory

    def _locate(self, site: int) -> tuple[int, int]:
        return self.site_location(site)

    def _labels(self, node: Optional[int]) -> dict:
        return {"app": self.spec.name, "node": node}

    def _injected_run(
        self,
        node: int,
        injector: ErrorInjector,
        budget: Optional[int],
        span,
    ) -> InjectedRun:
        """The fabric over the whole horizon with ``injector`` on
        ``node``.  A round's group is judged correct when its states
        equal the reference's or are legitimate."""
        if injector.target_step < self.node_site_counts()[node]:
            sim = self.simulate(
                self.horizon(),
                injectors={node: _RoundInjector(injector)},
                step_budget=budget,
            )
        else:
            # The composite site space covers the injection horizon
            # (``self.rounds``) only; an over-large target must never
            # fire, not even inside the recovery window, so its run is
            # the reference.
            sim = self.reference()
        reference = self.reference_groups()
        params = self.spec.params(self.topology)
        judged = [
            clean
            if states == clean or self.spec.legitimate(
                list(states), list(clean), self.topology, params
            )
            else states
            for states, clean in zip(sim.trajectory, reference)
        ]
        return InjectedRun(
            sim.trajectory, judged, sim.steps, sim.errors,
            telemetry={
                "node_divergence": [
                    [int(a != b) for a, b in zip(states, clean)]
                    for states, clean in zip(sim.trajectory, reference)
                ],
                "node_digests": [
                    sim.node_digest(i) for i in range(self.nodes)
                ],
            },
        )
