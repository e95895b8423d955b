"""The distributed node harness and message-passing fabric.

N independent sjava program instances — one per fabric node — executed
by the *unchanged* single-node backends (the closure compiler, or the
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
in schedule order.  :class:`DistExperiment` mirrors the
:class:`~repro.runtime.stabilization.StabilizationExperiment` interface
(``total_steps`` / ``trial_at`` / ``trial``), which is what lets
``repro.runtime.campaign`` sweep distributed apps with no new worker
protocol.

Verdicts are decided against a per-app *legitimacy predicate* (a closed
set of states) rather than exact reference-trajectory matching, because
randomized protocols (Herman) recover to the legitimate set, not to the
reference trajectory; deterministic apps (gradient) use trajectory
equality as their predicate, which coincides with the classic notion.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.lang.symtab import ProgramInfo
from repro.obs import get_tracer
from repro.obs.events import get_event_log
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice
from repro.runtime.injection import ErrorInjector, StepCounter
from repro.runtime.interpreter import (
    RuntimeOptions,
    StepBudgetExceeded,
    state_digest,
)
from repro.runtime.stabilization import InjectionTrial

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
    """Adapts an :class:`ErrorInjector` to the fabric's round clock.

    Every activation is iteration 0 of a fresh engine run, so the
    interpreter's own ``begin_iteration(0)`` calls are dropped and the
    fabric advances the inner injector's clock once per round —
    ``injection_iteration`` then records the fabric *round*.
    """

    def __init__(self, inner: ErrorInjector) -> None:
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
class DistExperiment:
    """Reference + injected fabric simulations of one distributed app.

    Interface-compatible with
    :class:`~repro.runtime.stabilization.StabilizationExperiment` where
    campaigns touch it: ``total_steps()``, ``trial_at(site, seed,
    burst)``, ``trial(seed, burst)``, ``run_trials(...)``.
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
    _reference: Optional[SimResult] = field(default=None, repr=False)
    _site_counts: Optional[list[int]] = None

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
        injector: Optional[object] = None,
        inject_node: Optional[int] = None,
        step_budget: Optional[int] = None,
        start_round: int = 0,
    ) -> SimResult:
        """Run the fabric for ``rounds`` rounds.  ``injector`` (if any)
        is attached to ``inject_node``'s activations only; pass a
        :class:`_RoundInjector`-wrapped injector so its iteration clock
        tracks fabric rounds.  Raises :class:`StepBudgetExceeded` when
        the cumulative step budget runs out."""
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
            if injector is not None:
                injector.begin_round(r)
            order = self.scheduler.order(r, topo.nodes)
            source = list(states) if self.scheduler.synchronous else states
            staged: dict[int, tuple] = {}
            for node in order:
                budget = (
                    step_budget - steps if step_budget is not None else None
                )
                node_injector = injector if node == inject_node else None
                new_state, used, errs = self._activate(
                    node, r, source, node_injector, budget
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
            counters = [StepCounter() for _ in range(self.nodes)]

            class _Fanout:
                def __init__(self, counters):
                    self.counters = counters
                    self.node: Optional[int] = None

                def begin_round(self, r):  # noqa: ARG002
                    pass

                def begin_iteration(self, i):  # noqa: ARG002
                    pass

                def site(self, value, node):
                    self.counters[self.node].site(value, node)
                    return value

            fanout = _Fanout(counters)
            # Run the counting simulation manually so every node gets
            # its own counter: reuse simulate() per-node attachment by
            # swapping the fanout's target inside _activate order.
            topo = self.topology
            states = [self.spec.init(i, topo) for i in range(topo.nodes)]
            for r in range(self.rounds):
                order = self.scheduler.order(r, topo.nodes)
                source = (
                    list(states) if self.scheduler.synchronous else states
                )
                staged: dict[int, tuple] = {}
                for node in order:
                    fanout.node = node
                    new_state, _, _ = self._activate(
                        node, r, source, fanout, None
                    )
                    if self.scheduler.synchronous:
                        staged[node] = new_state
                    else:
                        states[node] = new_state
                if self.scheduler.synchronous:
                    for node, new_state in staged.items():
                        states[node] = new_state
            self._site_counts = [c.step for c in counters]
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

    def _trial_budget(self) -> Optional[int]:
        if self.step_budget is not None:
            return self.step_budget
        if self.step_budget_factor is not None:
            return max(1000, self.step_budget_factor * self.reference_steps())
        return None

    def trial(self, seed: int, burst: int = 1) -> InjectionTrial:
        rng = random.Random(seed)
        target = rng.randrange(max(1, self.total_steps()))
        return self.trial_at(target, seed=seed, burst=burst)

    def run_trials(
        self, count: int, seed: int = 0, burst: int = 1
    ) -> list[InjectionTrial]:
        return [self.trial(seed + i, burst=burst) for i in range(count)]

    def trial_at(
        self, target_step: int, seed: int, burst: int = 1
    ) -> InjectionTrial:
        node, local = self.site_location(target_step)
        with get_tracer().span(
            "dist_trial",
            app=self.spec.name,
            site=target_step,
            node=node,
            seed=seed,
            burst=burst,
        ) as span:
            trial = self._trial_at(node, local, target_step, seed, burst)
            span.set_attr("timed_out", trial.timed_out)
            span.set_attr("diverged", trial.diverged)
        return trial

    def _trial_at(
        self, node: int, local: int, target_step: int, seed: int, burst: int
    ) -> InjectionTrial:
        events = get_event_log()
        if local >= self.node_site_counts()[node]:
            # The composite site space covers the injection horizon
            # (``self.rounds``) only; an over-large target must never
            # fire — not even inside the recovery window the trial
            # simulation appends after the horizon.
            events.emit(
                "trial.not_injected", level="debug",
                app=self.spec.name, site=target_step, node=node, seed=seed,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=None,
                corrupted_output=False,
                recovery_samples=None,
                recovery_iterations=None,
                error_log_size=self.reference().errors,
                node=node,
            )
        inner = ErrorInjector(target_step=local, seed=seed + 1, burst=burst)
        injector = _RoundInjector(inner)
        try:
            sim = self.simulate(
                self.horizon(),
                injector=injector,
                inject_node=node,
                step_budget=self._trial_budget(),
            )
        except StepBudgetExceeded:
            events.emit(
                "trial.timeout",
                "step-budget watchdog stopped a runaway injected fabric",
                level="warn",
                app=self.spec.name,
                site=target_step,
                node=node,
                seed=seed,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=inner.injection_iteration,
                corrupted_output=True,
                recovery_samples=None,
                recovery_iterations=None,
                timed_out=True,
                node=node,
            )
        injection_round = inner.injection_iteration
        if injection_round is None:
            events.emit(
                "trial.not_injected", level="debug",
                app=self.spec.name, site=target_step, node=node, seed=seed,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=None,
                corrupted_output=False,
                recovery_samples=None,
                recovery_iterations=None,
                error_log_size=sim.errors,
                node=node,
            )
        events.emit(
            "trial.corrupted",
            "fault injected into fabric node",
            level="info",
            app=self.spec.name,
            site=target_step,
            node=node,
            seed=seed,
            iteration=injection_round,
        )
        return self._classify(sim, node, target_step, injection_round, events)

    def _classify(
        self, sim: SimResult, node: int, target_step: int,
        injection_round: int, events,
    ) -> InjectionTrial:
        reference = self.reference()
        horizon = len(sim.trajectory)
        n = self.nodes
        params = self.spec.params(self.topology)
        node_divergence = [
            [
                int(sim.trajectory[r][i] != reference.trajectory[r][i])
                for i in range(n)
            ]
            for r in range(horizon)
        ]
        divergence = [sum(row) for row in node_divergence]
        legit = [
            self.spec.legitimate(
                list(sim.trajectory[r]),
                list(reference.trajectory[r]),
                self.topology,
                params,
            )
            for r in range(horizon)
        ]
        illegitimate = [
            r for r in range(injection_round, horizon) if not legit[r]
        ]
        node_digests = [sim.node_digest(i) for i in range(n)]
        corrupted = any(divergence[injection_round:])
        if not illegitimate:
            # Never left the legitimate set: the fault was masked (even
            # if the trajectory drifted to a different legitimate path).
            events.emit(
                "trial.masked", level="debug",
                app=self.spec.name, site=target_step, node=node,
                iteration=injection_round,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=injection_round,
                corrupted_output=corrupted,
                recovery_samples=None,
                recovery_iterations=None,
                error_log_size=sim.errors,
                divergence=divergence,
                node=node,
                node_divergence=node_divergence,
                node_digests=node_digests,
            )
        if illegitimate[-1] == horizon - 1:
            events.emit(
                "trial.diverged",
                "fabric never returned to the legitimate set",
                level="error",
                app=self.spec.name,
                site=target_step,
                node=node,
                iteration=injection_round,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=injection_round,
                corrupted_output=True,
                recovery_samples=None,
                recovery_iterations=None,
                diverged=True,
                error_log_size=sim.errors,
                divergence=divergence,
                node=node,
                node_divergence=node_divergence,
                node_digests=node_digests,
            )
        recovery_round = illegitimate[-1] + 1
        recovery_iterations = recovery_round - injection_round
        recovery_samples = recovery_iterations * n
        convergence: list[int] = []
        total = 0
        for r in range(injection_round, horizon):
            if r < recovery_round:
                total += n
            convergence.append(total)
        events.emit(
            "trial.recovered",
            "fabric re-entered the legitimate set",
            level="info",
            app=self.spec.name,
            site=target_step,
            node=node,
            iteration=injection_round,
            recovery_samples=recovery_samples,
            recovery_iterations=recovery_iterations,
        )
        return InjectionTrial(
            target_step=target_step,
            injection_iteration=injection_round,
            corrupted_output=True,
            recovery_samples=recovery_samples,
            recovery_iterations=recovery_iterations,
            error_log_size=sim.errors,
            divergence=divergence,
            convergence=convergence,
            node=node,
            node_divergence=node_divergence,
            node_digests=node_digests,
        )
