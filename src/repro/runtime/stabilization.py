"""Stabilization experiments (Section 6.2).

Runs a checked program twice on identical inputs — once clean, once with
a fault injected at a uniformly chosen memory/arithmetic operation — and
measures how many output samples the program needs to return to exactly
the reference behavior.

Outputs are compared per event-loop iteration: the error model assumes
input reads happen unconditionally each iteration, so devices are keyed
by iteration (see :class:`IterationKeyedDevice` in
:mod:`repro.runtime.devices` users can supply any such device factory)
and a corrupted iteration cannot shift the framing of later ones.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, zip_longest
from typing import Callable, Optional

from repro.lang import ast
from repro.lang.symtab import ProgramInfo
from repro.obs import get_tracer
from repro.obs.events import get_event_log
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import DeviceBus, IterationKeyedDevice
from repro.runtime.injection import ErrorInjector, StepCounter
from repro.runtime.interpreter import (
    Interpreter,
    RuntimeOptions,
    StepBudgetExceeded,
    _Frame,
)
from repro.runtime.values import copy_graph, same_graph

DeviceFactory = Callable[[], DeviceBus]


@dataclass
class InjectionTrial:
    """Outcome of a single fault-injection run."""

    target_step: int
    injection_iteration: Optional[int]
    corrupted_output: bool
    #: Number of reference output samples from the start of the injection
    #: iteration until outputs match the reference again; None when the
    #: output never deviated (masked fault).
    recovery_samples: Optional[int]
    #: Number of event-loop iterations until recovery (same convention).
    recovery_iterations: Optional[int]
    #: True if the run never returned to the reference behavior.
    diverged: bool = False
    #: True if the run tripped the step-budget watchdog (a corrupted
    #: value induced a runaway computation); campaigns record these as
    #: ``timeout`` rather than letting them hang a worker.
    timed_out: bool = False
    error_log_size: int = 0
    #: Convergence telemetry (None for not-injected and timed-out runs):
    #: per-iteration count of output samples deviating from the
    #: reference (:func:`divergence_series`), and — for recovered runs —
    #: the cumulative replayed-sample curve whose plateau equals
    #: ``recovery_samples`` (:func:`convergence_series`).
    divergence: Optional[list[int]] = None
    convergence: Optional[list[int]] = None
    #: Distributed-trial extras (repro.dist), all additive: the node the
    #: fault was injected into, the per-round per-node divergence matrix
    #: (``node_divergence[r][i]`` is 1 when node ``i``'s state differs
    #: from the reference after round ``r``), and one CRC32 digest per
    #: node over its full state trajectory.  None for single-node trials.
    node: Optional[int] = None
    node_divergence: Optional[list[list[int]]] = None
    node_digests: Optional[list[str]] = None


#: Trial verdicts (:func:`verdict_of`).
MASKED = "masked"
RECOVERED = "recovered"
DIVERGED = "diverged"
TIMEOUT = "timeout"
NOT_INJECTED = "not-injected"

#: The step-budget watchdog campaigns and ``repro inject`` run under by
#: default: an injected run may use this multiple of the clean run's
#: steps before it counts as a timeout.
STEP_BUDGET_FACTOR = 64


def verdict_of(trial: InjectionTrial) -> str:
    if trial.timed_out:
        return TIMEOUT
    if trial.injection_iteration is None:
        return NOT_INJECTED
    if trial.diverged:
        return DIVERGED
    if trial.recovery_samples is not None:
        return RECOVERED
    return MASKED


def recovery_distance(
    reference_groups: list[list[object]],
    faulty_groups: list[list[object]],
    injection_iteration: int,
    stop: Optional[int] = None,
) -> tuple[Optional[int], Optional[int], bool]:
    """Returns (samples, iterations, diverged).

    Recovery iteration: the first iteration r >= injection such that all
    per-iteration output groups from r onward equal the reference's.

    Unless ``stop`` is None, ``faulty_groups[stop:]`` are
    ``reference_groups``' own objects (see :meth:`Resume.groups`), so the
    scan for ``r`` starts at ``stop``.
    """
    if faulty_groups == reference_groups:
        return None, None, False  # fault masked: no visible corruption
    if len(faulty_groups) != len(reference_groups):
        # The faulty run ended early (e.g. a crash cut the event loop
        # short): the missing tail is itself a visible divergence, even
        # when the truncated prefix matches the reference exactly.  A
        # run with extra trailing groups can never claim recovery either.
        return None, None, True
    # Recovery requires the *entire* faulty tail from r onward to equal
    # the reference tail, so scan back from the end while the groups
    # match.  r == len(reference) is excluded: with no matching trailing
    # output we cannot claim the program recovered, so such runs count
    # as diverged (give experiments enough trailing iterations to
    # observe recovery).
    recovery = len(reference_groups) if stop is None else stop
    while (
        recovery > injection_iteration
        and faulty_groups[recovery - 1] == reference_groups[recovery - 1]
    ):
        recovery -= 1
    if recovery == len(reference_groups):
        return None, None, True
    samples = sum(map(len, reference_groups[injection_iteration:recovery]))
    return samples, recovery - injection_iteration, False


def divergence_series(
    reference_groups: list[list[object]],
    faulty_groups: list[list[object]],
    start: int = 0,
    stop: Optional[int] = None,
) -> list[int]:
    """Per-iteration divergence-set size: how many output samples of
    iteration ``i`` differ (``!=``) between the faulty run and the
    reference, positions missing from either run counting as differing.
    The series the paper's Figures 6.1/6.2 make visible — it spikes at
    the injection point and decays to zero as execution re-converges.
    ``faulty_groups`` outside ``start`` up to ``stop`` (None: the end)
    are the reference's own groups (see :meth:`Resume.groups`) and count
    zero."""
    series = [0] * start
    series.extend(
        sum(map(operator.ne, reference, faulty))
        + abs(len(reference) - len(faulty))
        for reference, faulty in zip_longest(
            reference_groups[start:stop], faulty_groups[start:stop],
            fillvalue=(),
        )
    )
    if stop is not None:
        series.extend([0] * (len(reference_groups) - stop))
    return series


def convergence_series(
    reference_groups: list[list[object]],
    injection_iteration: int,
    recovery_iterations: int,
) -> list[int]:
    """Cumulative reference output samples replayed since the injection
    iteration, saturating once outputs re-converge.  By construction
    the final point (the plateau) equals the trial's recovery distance
    in samples — the scalar ``recovery_samples`` records."""
    recovery = injection_iteration + recovery_iterations
    series = list(
        accumulate(map(len, reference_groups[injection_iteration:recovery]))
    )
    series.extend(
        [series[-1] if series else 0] * (len(reference_groups) - recovery)
    )
    return series


@dataclass(frozen=True)
class Boundary:
    """The reference run at one event-loop boundary (the top of an
    iteration, see :meth:`Interpreter._event_loop`)."""

    steps: int
    #: Injection sites executed before the boundary.
    sites: int
    #: Sink and error-log lengths.
    outputs: int
    errors: int
    #: :meth:`IterationKeyedDevice.position`.
    device: tuple
    #: The loop frame's variable names, the statics' keys, and the
    #: classes whose statics are initialized.
    names: tuple[str, ...]
    statics: tuple[tuple[str, str], ...]
    ready: frozenset[str]
    #: ``this``, the locals in ``names`` order and the statics in
    #: ``statics`` order, copied as one heap (:func:`copy_graph`).
    values: tuple

    @classmethod
    def of(cls, engine: Interpreter, frame: _Frame, sites: int) -> "Boundary":
        return cls(
            steps=engine.steps,
            sites=sites,
            outputs=len(engine.sink.values),
            errors=len(engine.error_log),
            device=engine.device.position(),
            names=tuple(frame.vars),
            statics=tuple(engine._statics),
            ready=frozenset(engine._statics_ready),
            values=tuple(copy_graph([
                frame.this, *frame.vars.values(), *engine._statics.values()
            ])),
        )

    def matches(self, engine: Interpreter, frame: _Frame) -> bool:
        """Whether ``engine``, at its boundary with loop frame ``frame``,
        is in this state: from here on it would run exactly as the
        reference did."""
        local, statics = frame.vars, engine._statics
        return (
            local.keys() == set(self.names)
            and statics.keys() == set(self.statics)
            and engine._statics_ready == self.ready
            and engine.device.position() == self.device
            and same_graph(self.values, [
                frame.this,
                *map(local.__getitem__, self.names),
                *map(statics.__getitem__, self.statics),
            ])
        )


def _plain_output(value: object) -> bool:
    """A primitive that compares the same by value as by identity."""
    kind = type(value)
    return kind in (int, bool, str, type(None)) or (
        kind is float and value == value
    )


class ReferenceTrace:
    """A clean run on the production engine, recorded at every event-loop
    boundary, for injected trials to resume from (:class:`Resume`).

    Boundary ``k`` is recorded when the loop's iteration counter reads
    ``k``.  :meth:`seal` keeps the run's outputs, marks, error log and
    step count, and decides whether trials may use the trace at all.
    """

    def __init__(self) -> None:
        self.boundaries: list[Boundary] = []
        #: ``Boundary.sites`` of every boundary, for bisection.
        self.sites: list[int] = []
        self._frame: Optional[_Frame] = None
        self._broken = False
        #: The finished run's outputs, iteration marks, error log and
        #: step count, kept by :meth:`seal`.
        self.outputs: list[object] = []
        self.marks: list[int] = []
        self.error_log: list[str] = []
        self.steps = 0

    def record(
        self, engine: Interpreter, counter: StepCounter, frame: _Frame
    ) -> None:
        """The reference engine's boundary hook."""
        if self._broken:
            return
        if self._frame is None:
            self._frame = frame
            # Resume restores the device from its position, which only
            # an iteration-keyed device fully describes.
            self._broken = type(engine.device) is not IterationKeyedDevice
        elif frame is not self._frame:
            self._broken = True  # the loop ran in a second activation
        if not self._broken:
            self.boundaries.append(Boundary.of(engine, frame, counter.step))
            self.sites.append(counter.step)

    def seal(self, info: ProgramInfo, engine: Interpreter) -> bool:
        """Keep what trials restore and splice in from the finished
        reference run ``engine``; return whether trials may resume from
        this trace.

        They may when the event loop runs once per run (a top-level
        statement of the entry method, so no enclosing loop re-enters
        it) and every output is a :func:`_plain_output`.  A resumed
        trial's outputs outside the iterations it ran are the
        reference's own objects, where a full run makes equal new ones;
        list equality short-cuts on identity, so a NaN or an object
        would compare differently.
        """
        self._frame = None
        event_loop = info.event_loop
        if (
            self._broken or not self.boundaries
            or not isinstance(event_loop.method.body, ast.Block)
            or not any(
                stmt is event_loop.loop for stmt in event_loop.method.body.stmts
            )
            or not all(map(_plain_output, engine.sink.values))
        ):
            return False
        self.outputs = engine.sink.values
        self.marks = engine.iteration_marks
        self.error_log = engine.error_log
        self.steps = engine.steps
        return True

    def resume(self, target_step: int, injector: ErrorInjector) -> Optional["Resume"]:
        """Where a trial corrupting ``target_step`` starts: the last
        boundary at or before that site, or None (a full run) when the
        site precedes the loop."""
        index = bisect_right(self.sites, target_step) - 1
        return Resume(self, index, injector) if index >= 0 else None


class _Reconverged(Exception):
    """Ends a resumed run at the boundary where it re-converged."""


class Resume:
    """One trial's pass through a :class:`ReferenceTrace`.

    :meth:`run` runs the trial engine with a boundary hook.  At the
    loop's first boundary the hook puts the engine in the reference's
    state at boundary ``index``, skipping the iterations before it (the
    program's code before the loop runs as usual: it is the same in
    both runs).  Once ``injector`` is spent, the hook compares the
    engine with the trace at each boundary; on a match it ends the run
    there (``stopped_at``) and :meth:`run` adds the reference's
    remaining errors and steps.  Trials copy the trace and never change
    it.
    """

    def __init__(
        self, trace: ReferenceTrace, index: int, injector: ErrorInjector
    ) -> None:
        self.trace = trace
        self.index = index
        self.injector = injector
        self.stopped_at: Optional[int] = None
        #: The loop frame's variables once restored: identifies the
        #: frame without a reference back to the engine.
        self._locals: Optional[dict] = None

    def run(self, engine: Interpreter) -> None:
        engine.boundary_hook = self._at_boundary
        try:
            engine.run()
        except _Reconverged:
            self._splice(engine)

    def _at_boundary(self, frame: _Frame) -> None:
        if self._locals is None:
            self._restore(frame.engine, frame)
            return
        engine = frame.engine
        boundaries = self.trace.boundaries
        if (
            frame.vars is self._locals
            and self.injector.spent
            and engine.iteration < len(boundaries)
            and boundaries[engine.iteration].matches(engine, frame)
        ):
            self.stopped_at = engine.iteration
            raise _Reconverged()

    def _restore(self, engine: Interpreter, frame: _Frame) -> None:
        """Jump from the loop's first boundary to boundary ``index``;
        boundary 0 needs nothing: the code before it did not change."""
        if self.index > 0:
            boundary = self.trace.boundaries[self.index]
            values = copy_graph(boundary.values)
            count = len(boundary.names)
            frame.this = values[0]
            frame.vars = dict(zip(boundary.names, values[1:1 + count]))
            engine._statics = dict(zip(boundary.statics, values[1 + count:]))
            engine._statics_ready = set(boundary.ready)
            engine.device.seek(boundary.device)
            self.injector.step = boundary.sites
            engine.steps = boundary.steps
            engine.iteration = self.index
            engine.iteration_marks = self.trace.marks[:self.index]
            engine.sink.values = self.trace.outputs[:boundary.outputs]
            engine.error_log = self.trace.error_log[:boundary.errors]
        self._locals = frame.vars

    def groups(
        self, engine: Interpreter, reference: list[list[object]]
    ) -> list[list[object]]:
        """The finished run's output groups: its own for the iterations
        it ran, from ``index`` up to ``stopped_at``, and ``reference``'s
        own group objects before and after them (the same outputs)."""
        marks, values = engine.iteration_marks, engine.sink.values
        stop = len(marks) if self.stopped_at is None else self.stopped_at
        ran = [
            values[marks[i - 1] if i else 0:marks[i]]
            for i in range(self.index, stop)
        ]
        after = [] if self.stopped_at is None else reference[stop:]
        return reference[:self.index] + ran + after

    def _splice(self, engine: Interpreter) -> None:
        """Add the reference's remainder after ``stopped_at`` to
        ``engine``'s error log and step count, with the step budget's
        verdict on that count.  Its outputs need no splicing:
        :meth:`groups` takes the reference's own groups after
        ``stopped_at``."""
        trace = self.trace
        boundary = trace.boundaries[self.stopped_at]
        engine.error_log += trace.error_log[boundary.errors:]
        engine.steps += trace.steps - boundary.steps
        check_step_budget(engine.steps, engine.options.step_budget)


def check_step_budget(steps: int, budget: Optional[int]) -> None:
    """The step budget's verdict on a resumed run's spliced step total:
    a full run would have exceeded the budget exactly when that total
    does."""
    if budget is not None and steps > budget:
        raise StepBudgetExceeded(
            f"step budget of {budget} execution steps exhausted"
        )


@dataclass
class InjectedRun:
    """An injected run that finished, as :class:`TrialLifecycle` judges
    it against the experiment's ``reference_groups()``."""

    #: Per-iteration groups, each compared with the reference's: the
    #: iteration's output samples, or a fabric round's node states.
    groups: list
    #: The groups the verdict is decided on: ``groups``, with the
    #: groups the experiment accepts as correct replaced by the
    #: reference's (a fabric's legitimate rounds).
    judged: list
    steps: int
    errors: int
    #: More :class:`InjectionTrial` fields for a corrupted run.
    telemetry: dict = field(default_factory=dict)
    #: The iterations the run executed, ``start`` up to ``stop`` (None:
    #: to its end); its groups outside them are the reference's own.
    start: int = 0
    stop: Optional[int] = None


class TrialLifecycle:
    """One fault-injection trial (Section 6.2), the same for single-node
    and fabric experiments: corrupt one site with an
    :class:`ErrorInjector`, run under the step budget, and judge the run
    against the clean reference.  The trial times out, is not injected
    (the injector changed no value), or is masked, recovered after k
    iterations or diverged (:func:`recovery_distance`).  Each trial
    opens one ``trial`` span and emits the ``trial.*`` events.

    An experiment supplies ``step_budget`` and ``step_budget_factor``,
    the clean run (``reference_groups()``, ``reference_steps()`` and
    ``total_steps()``), where a site lies (:meth:`_locate` and
    :meth:`_labels`) and the injected run (``_injected_run(node,
    injector, budget, span)``, which returns an :class:`InjectedRun` or
    raises :class:`StepBudgetExceeded`).
    """

    def _locate(self, site: int) -> tuple[Optional[int], int]:
        """The node ``site`` lies in (None for a single node) and the
        step the injector targets there."""
        return None, site

    def _labels(self, node: Optional[int]) -> dict:
        """Attributes naming the trial's app and node in its span and
        events."""
        return {}

    def _trial_budget(self) -> Optional[int]:
        if self.step_budget is not None:
            return self.step_budget
        if self.step_budget_factor is not None:
            return max(1000, self.step_budget_factor * self.reference_steps())
        return None

    def trial(self, seed: int, burst: int = 1) -> InjectionTrial:
        """One injected run with a uniformly chosen target site."""
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
        """One injected run corrupting the given site.  This is the unit
        campaigns sweep: exhaustive/stratified plans enumerate sites
        explicitly instead of sampling them."""
        node, step = self._locate(target_step)
        labels = self._labels(node)
        with get_tracer().span(
            "trial", **labels, site=target_step, seed=seed, burst=burst
        ) as span:
            injector = ErrorInjector(
                target_step=step, seed=seed + 1, burst=burst
            )
            emit = partial(get_event_log().emit, **labels, site=target_step)
            trial = self._trial_at(
                target_step, seed, node, injector, emit, span
            )
            span.set_attr("timed_out", trial.timed_out)
            span.set_attr("diverged", trial.diverged)
        return trial

    def _trial_at(
        self,
        target_step: int,
        seed: int,
        node: Optional[int],
        injector: ErrorInjector,
        emit: Callable[..., object],
        span,
    ) -> InjectionTrial:
        budget = self._trial_budget()
        reference = self.reference_groups()
        try:
            run = self._injected_run(node, injector, budget, span)
        except StepBudgetExceeded:
            # The corrupted run never finished: a runaway loop or
            # explosion of work.  Recorded as a timeout, never a hang.
            span.count("steps", budget or 0)
            emit(
                "trial.timeout",
                "step-budget watchdog stopped a runaway injected run",
                level="warn",
                seed=seed,
                injection_iteration=injector.injection_iteration,
                step_budget=budget,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=injector.injection_iteration,
                corrupted_output=True,
                recovery_samples=None,
                recovery_iterations=None,
                timed_out=True,
                node=node,
            )
        span.count("steps", run.steps)
        span.count("ignored_errors", run.errors)
        injection_iteration = injector.injection_iteration
        if injection_iteration is None:
            # The injector replaced a value with an equal one or never hit
            # a corruptible site: no fault was actually introduced.
            emit("trial.not_injected", level="debug", seed=seed)
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=None,
                corrupted_output=False,
                recovery_samples=None,
                recovery_iterations=None,
                error_log_size=run.errors,
                node=node,
            )
        emit(
            "trial.corrupted",
            "fault injected",
            level="info",
            seed=seed,
            iteration=injection_iteration,
        )
        samples, iterations, diverged = recovery_distance(
            reference, run.judged, injection_iteration, run.stop
        )
        convergence = (
            convergence_series(reference, injection_iteration, iterations)
            if iterations is not None else None
        )
        if diverged:
            emit(
                "trial.diverged",
                "outputs never returned to the reference behavior",
                level="error",
                iteration=injection_iteration,
            )
        elif samples is not None:
            emit(
                "trial.recovered",
                "outputs re-converged to the reference",
                level="info",
                iteration=injection_iteration,
                recovery_samples=samples,
                recovery_iterations=iterations,
            )
        else:
            emit("trial.masked", level="debug", iteration=injection_iteration)
        return InjectionTrial(
            target_step=target_step,
            injection_iteration=injection_iteration,
            corrupted_output=run.groups != reference,
            recovery_samples=samples,
            recovery_iterations=iterations,
            diverged=diverged,
            error_log_size=run.errors,
            divergence=divergence_series(
                reference, run.groups, run.start, run.stop
            ),
            convergence=convergence,
            node=node,
            **run.telemetry,
        )


@dataclass
class StabilizationExperiment(TrialLifecycle):
    """Orchestrates reference + injected runs of one program.

    On the production engine an injected trial does not replay the
    program.  The reference run records a :class:`ReferenceTrace`: at
    every event-loop boundary, the step and injection-site counts, the
    sink and error-log lengths, the device position, and a copy of the
    loop frame's locals, ``this``, the statics and the set of
    initialized static owners.  A trial starts from the last boundary at
    or before its target site.  Once its injector is spent, the trial
    compares its state with the trace at each boundary; on a match it
    would run exactly as the reference did from there (same state, same
    iteration-keyed inputs: the paper's ∃k ∀t≥k), so it stops and
    adds the reference's remaining errors and steps (and the step
    budget's verdict on the total).  A trial whose state never matches
    runs to its end.  The verdict and telemetry read only the
    iterations the trial ran: its output groups before and after them
    are the reference's own objects (:meth:`Resume.groups`), which list
    comparison passes by identity.

    Trials run in full from the start when the site precedes the loop,
    when :meth:`ReferenceTrace.seal` refuses the trace (a device other
    than :class:`IterationKeyedDevice`, an event loop nested in another
    statement, an output that is NaN or not a primitive), and on the
    tree-walking :class:`Interpreter`: it is the differential oracle
    that resumed trials are checked against, so it never shares their
    mechanism.

    Measured with the end-to-end benchmark's campaign workload (seed 0,
    ten runs per side, host-scaled medians, a 2-vCPU AMD EPYC VM,
    CPython 3.11), a 16-trial shard took, full runs then resumed:
    wind_sensor 16.3 → 2.15 ms, heart_monitor 61.1 → 3.49 ms,
    eye_tracker 74.7 → 5.20 ms, mp3_decoder 1,238 → 205 ms.  Of that
    workload's trials 94–100% per app stop early, and a trial executes
    2.7–7.5% of a full run's iterations.
    """

    info: ProgramInfo
    device_factory: DeviceFactory
    options: RuntimeOptions = field(
        default_factory=lambda: RuntimeOptions(ignore_errors=True)
    )
    #: Execution backend.  The code-generating runner is
    #: observationally identical to the interpreter (differentially
    #: tested), is the faster one (see repro.runtime.compiler for
    #: measurements), and is the only engine that resumes.
    engine: type = CompiledRunner
    #: Watchdog for *injected* runs only (the reference run is never
    #: budgeted): an absolute step cap, or a multiple of the reference
    #: run's step count.  ``step_budget`` wins when both are set; with
    #: neither, injected runs are unbudgeted (the historical behavior).
    step_budget: Optional[int] = None
    step_budget_factor: Optional[int] = None
    #: The clean run's caches.  Not init fields, so
    #: ``dataclasses.replace`` (say, onto the oracle engine) starts
    #: without them and runs its own reference.
    _reference_groups: Optional[list[list[object]]] = field(
        default=None, init=False, repr=False
    )
    _reference_steps: Optional[int] = field(default=None, init=False)
    _total_steps: Optional[int] = field(default=None, init=False)
    _trace: Optional[ReferenceTrace] = field(
        default=None, init=False, repr=False
    )

    def _engine(
        self,
        injector: Optional[object],
        options: Optional[RuntimeOptions] = None,
    ) -> Interpreter:
        return self.engine(
            self.info, self.device_factory(),
            options=options if options is not None else self.options,
            injector=injector,
        )

    def _run(
        self,
        injector: Optional[object],
        options: Optional[RuntimeOptions] = None,
    ) -> Interpreter:
        interpreter = self._engine(injector, options)
        interpreter.run()
        return interpreter

    def reference_groups(self) -> list[list[object]]:
        if self._reference_groups is None:
            if issubclass(self.engine, CompiledRunner):
                # The production engine records the trace trials resume
                # from; a counter supplies the boundaries' site counts.
                trace, counter = ReferenceTrace(), StepCounter()
                interpreter = self._engine(counter)
                interpreter.boundary_hook = partial(
                    trace.record, interpreter, counter
                )
                interpreter.run()
                interpreter.boundary_hook = None  # it refers to the engine
                if trace.seal(self.info, interpreter):
                    self._trace = trace
            else:
                interpreter = self._run(None)
            self._reference_groups = interpreter.outputs_by_iteration()
            self._reference_steps = interpreter.steps
        return self._reference_groups

    def reference_trace(self) -> Optional[ReferenceTrace]:
        """The trace injected trials resume from, or None when they run
        in full (see :meth:`ReferenceTrace.seal`)."""
        self.reference_groups()
        return self._trace

    def reference_steps(self) -> int:
        """Execution steps of the clean run (the watchdog baseline)."""
        self.reference_groups()
        assert self._reference_steps is not None
        return self._reference_steps

    def total_steps(self) -> int:
        """Number of injectable sites in a clean run."""
        if self._total_steps is None:
            counter = StepCounter()
            self._run(counter)
            self._total_steps = counter.step
        return self._total_steps

    def _injected_run(
        self,
        node: Optional[int],
        injector: ErrorInjector,
        budget: Optional[int],
        span,
    ) -> InjectedRun:
        """The engine's run, resumed from the reference trace when the
        lifecycle's ``reference_groups()`` call recorded one."""
        options = (
            replace(self.options, step_budget=budget)
            if budget is not None else self.options
        )
        trace = self._trace
        resume = (
            trace.resume(injector.target_step, injector) if trace else None
        )
        span.set_attr("resumed_at", resume.index if resume else None)
        interpreter = self._engine(injector, options)
        try:
            if resume is None:
                interpreter.run()
            else:
                resume.run(interpreter)
        finally:
            span.set_attr("stopped_at", resume.stopped_at if resume else None)
        steps, errors = interpreter.steps, len(interpreter.error_log)
        if resume is None:
            groups = interpreter.outputs_by_iteration()
            return InjectedRun(groups, groups, steps, errors)
        # Only the iterations the trial ran are judged.
        groups = resume.groups(interpreter, self._reference_groups)
        return InjectedRun(
            groups, groups, steps, errors,
            start=resume.index, stop=resume.stopped_at,
        )


def recovery_histogram(
    trials: list[InjectionTrial], bin_size: int
) -> dict[int, int]:
    """Histogram of recovery distances in output samples (Fig. 6.1)."""
    histogram: dict[int, int] = {}
    for trial in trials:
        if trial.recovery_samples is None:
            continue
        bucket = (trial.recovery_samples // bin_size) * bin_size
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return dict(sorted(histogram.items()))
