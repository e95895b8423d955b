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

Every activation in round ``r`` runs its engine at event-loop
iteration ``r``, so the engine's own ``begin_iteration`` stamps an
injector with the round.  Boundary ``r`` is the state before round
``r``, the tuple of node states: coins and schedules are pure functions
of (seed, round, node), so two runs in the same states at a boundary
run identically from there on.  On the production engine a trial
therefore resumes and stops at boundaries by the one protocol
single-node trials use
(:meth:`~repro.runtime.stabilization.TrialLifecycle._injected_run`).

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
from functools import cached_property
from operator import eq
from typing import Callable, Iterator, Optional

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
    params: dict
    topology: Topology
    #: The fabric's seed, which :attr:`coin` is drawn from.
    seed: int

    @property
    def coin(self) -> int:
        """This round's coin (:func:`coin_bit`), drawn only when the
        program reads it."""
        return coin_bit(self.seed, self.round_index, self.node)


@dataclass
class SimResult:
    """One fabric simulation: committed states per round, plus meters."""

    #: ``trajectory[r][i]`` — node ``i``'s state tuple after round ``r``.
    trajectory: list[tuple[tuple, ...]]
    steps: int
    errors: int
    #: The meters at the end of each round, cumulative from the first:
    #: steps, ignored errors, and the sites seen by each node's
    #: injector (``round_sites[r][node]``, for the nodes that carry one).
    round_steps: list[int] = field(default_factory=list)
    round_errors: list[int] = field(default_factory=list)
    round_sites: list[dict[int, int]] = field(default_factory=list)

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
    an injected run carries the injector on one node, and its
    trajectory is compared with the reference's as one group of N node
    states per round.  Boundary ``r`` is the state before round ``r``;
    on the production engine the lifecycle resumes a trial at the
    boundary before its fault's round and stops it at the first later
    boundary whose states equal the reference's.  The tree-walking
    oracle simulates the whole horizon.
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

    @cached_property
    def params(self) -> dict:
        """The app's protocol parameters on this topology (a pure
        function of it, so computed once)."""
        return self.spec.params(self.topology)

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
            params=self.params,
            topology=topo,
            seed=self.seed,
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

        # The engine runs iteration ``round_index``, and the next one
        # finds the input exhausted; its iteration cap counts from there.
        engine = self.engine(
            self.info,
            IterationKeyedDevice(generator, iterations=round_index + 1),
            options=RuntimeOptions(
                ignore_errors=True, step_budget=budget,
                max_iterations=round_index + RuntimeOptions.max_iterations,
            ),
            injector=injector,
        )
        engine.iteration = round_index
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

    def _initial_states(self) -> list[tuple]:
        return [self.spec.init(i, self.topology) for i in range(self.nodes)]

    def _rounds(
        self,
        rounds: range,
        states: list[tuple],
        injectors: dict[int, ErrorInjector | StepCounter],
        step_budget: Optional[int],
        steps: int = 0,
        errors: int = 0,
    ) -> Iterator[tuple[int, int]]:
        """Run ``rounds`` on ``states``, committing in place, and yield
        the cumulative steps and errors after each round; they start at
        ``steps`` and ``errors``, and each activation's budget is what
        ``step_budget`` leaves of them.  Raises
        :class:`StepBudgetExceeded` when it runs out."""
        topo = self.topology
        synchronous = self.scheduler.synchronous
        for r in rounds:
            source = list(states) if synchronous else states
            staged: dict[int, tuple] = {}
            for node in self.scheduler.order(r, topo.nodes):
                budget = (
                    step_budget - steps if step_budget is not None else None
                )
                new_state, used, errs = self._activate(
                    node, r, source, injectors.get(node), budget
                )
                steps += used
                errors += errs
                if synchronous:
                    staged[node] = new_state
                else:
                    states[node] = new_state
            for node, new_state in staged.items():
                states[node] = new_state
            yield steps, errors

    def simulate(
        self,
        rounds: int,
        initial: Optional[list[tuple]] = None,
        injectors: Optional[dict[int, ErrorInjector | StepCounter]] = None,
        step_budget: Optional[int] = None,
        start_round: int = 0,
    ) -> SimResult:
        """Run the fabric for ``rounds`` rounds.  ``injectors`` maps a
        node to the injector attached to that node's activations.  Raises
        :class:`StepBudgetExceeded` when the cumulative step budget runs
        out."""
        injectors = injectors or {}
        states = (
            list(initial) if initial is not None else self._initial_states()
        )
        sim = SimResult(trajectory=[], steps=0, errors=0)
        for steps, errors in self._rounds(
            range(start_round, start_round + rounds),
            states, injectors, step_budget,
        ):
            sim.trajectory.append(tuple(states))
            sim.steps, sim.errors = steps, errors
            sim.round_steps.append(steps)
            sim.round_errors.append(errors)
            sim.round_sites.append({
                node: injector.step for node, injector in injectors.items()
            })
        return sim

    # -- reference + site bookkeeping ------------------------------------

    def reference(self) -> SimResult:
        """The clean run over the horizon.  A :class:`StepCounter` on
        every node counts its sites, round by round."""
        if self._reference is None:
            self._reference = self.simulate(self.horizon(), injectors={
                node: StepCounter() for node in range(self.nodes)
            })
        return self._reference

    def reference_steps(self) -> int:
        return self.reference().steps

    def node_site_counts(self) -> list[int]:
        """Injectable sites per node across the injection horizon."""
        if self._site_counts is None:
            sites = (
                self.reference().round_sites[self.rounds - 1]
                if self.rounds else {}
            )
            self._site_counts = [
                sites.get(node, 0) for node in range(self.nodes)
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
        reference: list,
    ) -> InjectedRun:
        if injector.target_step < self.node_site_counts()[node]:
            return super()._injected_run(
                node, injector, budget, span, reference
            )
        # The composite site space covers the injection horizon
        # (``self.rounds``) only: an over-large target must never fire,
        # not even in the recovery window, so its run is the reference.
        span.set_attr("resumed_at", None)
        span.set_attr("stopped_at", None)
        reference = self.reference()
        clean = reference.trajectory
        return InjectedRun(clean, clean, reference.steps, reference.errors)

    def _boundary_sites(self, node: int) -> Optional[list[int]]:
        if not issubclass(self.engine, CompiledRunner):
            return None
        return [0] + [sites[node] for sites in self.reference().round_sites]

    def _run_from(
        self,
        start: int,
        node: int,
        injector: ErrorInjector,
        budget: Optional[int],
        reconverged: Optional[Callable[..., bool]],
    ) -> tuple[list[tuple[tuple, ...]], int, int]:
        reference = self.reference()
        clean = reference.trajectory
        if start > 0:
            states = list(clean[start - 1])
            injector.step = reference.round_sites[start - 1][node]
            steps = reference.round_steps[start - 1]
            errors = reference.round_errors[start - 1]
        else:
            start, states, steps, errors = 0, self._initial_states(), 0, 0
        ran: list[tuple[tuple, ...]] = []
        for r, (steps, errors) in enumerate(self._rounds(
            range(start, self.horizon()), states, {node: injector}, budget,
            steps, errors,
        ), start):
            ran.append(tuple(states))
            if reconverged is not None and reconverged(
                r + 1, eq, ran[-1], clean[r]
            ):
                break
        return ran, steps, errors

    def _reference_after(self, k: int) -> tuple[int, int]:
        reference = self.reference()
        return (
            reference.steps - reference.round_steps[k - 1],
            reference.errors - reference.round_errors[k - 1],
        )

    def _judge(self, run: InjectedRun) -> InjectedRun:
        """A round's group is judged correct when its states equal the
        reference's or are legitimate."""
        reference = self.reference_groups()
        run.judged = list(reference)
        node_divergence = [[0] * self.nodes for _ in reference]
        stop = len(reference) if run.stop is None else run.stop
        for r in range(run.start, stop):
            states, clean = run.groups[r], reference[r]
            if states == clean:
                continue
            node_divergence[r] = [int(a != b) for a, b in zip(states, clean)]
            if not self.spec.legitimate(
                list(states), list(clean), self.topology, self.params
            ):
                run.judged[r] = states
        sim = SimResult(run.groups, run.steps, run.errors)
        run.telemetry = {
            "node_divergence": node_divergence,
            "node_digests": [sim.node_digest(i) for i in range(self.nodes)],
        }
        return run
