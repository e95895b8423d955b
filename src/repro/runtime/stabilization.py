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
from repro.runtime.injection import ErrorInjector
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
    ``reference_groups``' own objects (see :class:`InjectedRun`), so the
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
    are the reference's own groups (see :class:`InjectedRun`) and count
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

    def record(self, engine: Interpreter, frame: _Frame) -> None:
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
            self.boundaries.append(Boundary.of(engine, frame, engine.sites))
            self.sites.append(engine.sites)

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


class _Reconverged(Exception):
    """Ends a resumed run at the boundary where it re-converged."""


class Resume:
    """A resumed trial's event-loop boundary hook, :meth:`at_boundary`.
    At the loop's first boundary it puts the engine in the state of
    ``trace``'s boundary ``start`` (for -1 and 0 the code before the loop
    has done that); at every later boundary ``k`` it ends the run, by
    raising :class:`_Reconverged`, if ``reconverged(k, matches, engine,
    frame)`` is true.  Trials copy the trace and never change it."""

    def __init__(
        self, trace: ReferenceTrace, start: int, injector: ErrorInjector,
        reconverged: Callable[..., bool],
    ) -> None:
        self.trace = trace
        self.start = start
        self.injector = injector
        self.reconverged = reconverged
        #: The loop frame's variables once restored: identifies the
        #: frame without a reference back to the engine.
        self._locals: Optional[dict] = None

    def at_boundary(self, frame: _Frame) -> None:
        engine = frame.engine
        if self._locals is None:
            self._restore(engine, frame)
        boundaries = self.trace.boundaries
        k = engine.iteration
        if (
            frame.vars is self._locals
            and self.start < k < len(boundaries)
            and self.reconverged(k, boundaries[k].matches, engine, frame)
        ):
            raise _Reconverged()

    def _restore(self, engine: Interpreter, frame: _Frame) -> None:
        if self.start > 0:
            boundary = self.trace.boundaries[self.start]
            values = copy_graph(boundary.values)
            count = len(boundary.names)
            frame.this = values[0]
            frame.vars = dict(zip(boundary.names, values[1:1 + count]))
            engine._statics = dict(zip(boundary.statics, values[1 + count:]))
            engine._statics_ready = set(boundary.ready)
            engine.device.seek(boundary.device)
            self.injector.step = boundary.sites
            engine.steps = boundary.steps
            engine.charges = boundary.steps - boundary.sites
            engine._arm()
            engine.iteration = self.start
            engine.iteration_marks = self.trace.marks[:self.start]
            engine.sink.values = self.trace.outputs[:boundary.outputs]
            engine.error_log = self.trace.error_log[:boundary.errors]
        self._locals = frame.vars


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
    :meth:`_labels`), and three hooks for :meth:`_injected_run`.
    ``_boundary_sites(node)`` is the node's site count at each boundary
    of the reference run (None: trials run in full).  ``_run_from(start,
    node, injector, budget, reconverged)`` runs from boundary ``start``
    (in full when ``reconverged`` is None) and ends at a later boundary
    ``k`` where ``reconverged(k, same, *state)`` is true, ``same(*state)``
    telling whether its state there equals the reference's; it returns
    its groups from ``start`` on, its steps and its errors.
    ``_reference_after(k)`` is the reference's steps and errors after
    boundary ``k``.
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

    def _injected_run(
        self,
        node: Optional[int],
        injector: ErrorInjector,
        budget: Optional[int],
        span,
        reference: list,
    ) -> InjectedRun:
        """The injected run, or :class:`StepBudgetExceeded`; ``reference``
        is the experiment's ``reference_groups()``.

        Boundary ``k`` is the top of event-loop iteration ``k``, or the
        state before fabric round ``k``.  The run starts at the last
        boundary whose site count for ``node`` is at or before the
        target (-1: before the loop), in the reference's state there.
        Once the injector is spent, it stops at the first later boundary
        whose state equals the reference's: from there it would run as
        the reference did (same state, same iteration-keyed inputs: the
        paper's ∃k ∀t≥k), so the reference's remaining steps and errors
        are added, and the step budget judges the total as a full run's.
        Its groups outside the boundaries it ran between are the
        reference's own objects, which list comparison passes by identity.
        """
        sites = self._boundary_sites(node)
        start = (
            -1 if sites is None
            else bisect_right(sites, injector.target_step) - 1
        )
        span.set_attr("resumed_at", start if start >= 0 else None)
        stop: Optional[int] = None

        def reconverged(k: int, same: Callable[..., bool], *state) -> bool:
            nonlocal stop
            if injector.spent and same(*state):
                stop = k
            return stop is not None

        try:
            ran, steps, errors = self._run_from(
                start, node, injector, budget,
                None if sites is None else reconverged,
            )
        finally:
            span.set_attr("stopped_at", stop)
        start = max(start, 0)
        groups = reference[:start] + ran
        if stop is not None:
            more_steps, more_errors = self._reference_after(stop)
            steps += more_steps
            errors += more_errors
            if budget is not None and steps > budget:
                raise StepBudgetExceeded(
                    f"step budget of {budget} execution steps exhausted"
                )
            groups += reference[stop:]
        return self._judge(InjectedRun(
            groups, groups, steps, errors, start=start, stop=stop
        ))

    def _judge(self, run: InjectedRun) -> InjectedRun:
        """``run`` as the verdict reads it (see :class:`InjectedRun`)."""
        return run

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
            run = self._injected_run(node, injector, budget, span, reference)
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
    initialized static owners.  Boundary ``k`` is the top of iteration
    ``k``; :meth:`TrialLifecycle._injected_run` picks a trial's start
    and stop among them, and a :class:`Resume` hook restores and stops
    the engine there.  A site before the loop starts the run from the
    program's start (boundary -1), and it can still stop at any
    boundary.

    Trials run in full when :meth:`ReferenceTrace.seal` refuses the
    trace (a device other than :class:`IterationKeyedDevice`, an event
    loop nested in another statement, an output that is NaN or not a
    primitive), and on the tree-walking :class:`Interpreter`: it is the
    differential oracle that resumed trials are checked against, so it
    never shares their mechanism.

    Measured with the end-to-end benchmark's campaign workload (seed 0,
    ten runs per side, host-scaled medians, a 2-vCPU AMD EPYC VM,
    CPython 3.11), a 16-trial shard took, full runs then resumed:
    wind_sensor 16.3 → 2.15 ms, heart_monitor 61.1 → 3.49 ms,
    eye_tracker 74.7 → 5.20 ms, mp3_decoder 1,238 → 205 ms.  Of that
    workload's trials 94–100% per app stop early, and a trial executes
    2.7–7.5% of a full run's iterations.  Metering injection sites
    inline (:mod:`repro.runtime.compiler`) then took mp3_decoder's
    traced rate on that workload from about 103 to 190 trials/s (a
    shard 155 → 84 ms; two traced runs per side on a 2-vCPU Intel Xeon
    VM, CPython 3.11.7); the three apps with short trials stayed within
    run-to-run noise.
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
    #: Watchdog for *injected* runs only (clean runs are never budgeted,
    #: not even by ``options.step_budget``): an absolute step cap, or a
    #: multiple of the reference run's step count.  ``step_budget`` wins
    #: when both are set; with neither, injected runs run under
    #: ``options.step_budget``.
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

    def _trial_budget(self) -> Optional[int]:
        """The lifecycle's budget, or else ``options.step_budget``: what
        a full run of the trial would run under."""
        budget = super()._trial_budget()
        return self.options.step_budget if budget is None else budget

    def _run(self, trace: Optional[ReferenceTrace] = None) -> Interpreter:
        """A finished run with no injector, recorded by ``trace`` if
        given.  It is never budgeted, whatever ``options`` says."""
        engine = self.engine(
            self.info, self.device_factory(),
            options=replace(self.options, step_budget=None),
        )
        if trace is not None:
            engine.boundary_hook = partial(trace.record, engine)
        engine.run()
        engine.boundary_hook = None  # it refers to the engine
        return engine

    def reference_groups(self) -> list[list[object]]:
        if self._reference_groups is None:
            if issubclass(self.engine, CompiledRunner):
                # The production engine records the trace trials resume
                # from.
                trace = ReferenceTrace()
                interpreter = self._run(trace)
                if trace.seal(self.info, interpreter):
                    self._trace = trace
            else:
                interpreter = self._run()
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
            self._total_steps = self._run().sites
        return self._total_steps

    def _boundary_sites(self, node: Optional[int]) -> Optional[list[int]]:
        return self._trace.sites if self._trace is not None else None

    def _run_from(
        self,
        start: int,
        node: Optional[int],
        injector: ErrorInjector,
        budget: Optional[int],
        reconverged: Optional[Callable[..., bool]],
    ) -> tuple[list[list[object]], int, int]:
        engine = self.engine(
            self.info, self.device_factory(),
            options=replace(self.options, step_budget=budget),
            injector=injector,
        )
        if reconverged is not None:
            engine.boundary_hook = Resume(
                self._trace, start, injector, reconverged
            ).at_boundary
        try:
            engine.run()
        except _Reconverged:
            pass
        marks, values = engine.iteration_marks, engine.sink.values
        ran = [
            values[marks[i - 1] if i else 0:marks[i]]
            for i in range(max(start, 0), len(marks))
        ]
        return ran, engine.steps, len(engine.error_log)

    def _reference_after(self, k: int) -> tuple[int, int]:
        trace, boundary = self._trace, self._trace.boundaries[k]
        return (
            trace.steps - boundary.steps,
            len(trace.error_log) - boundary.errors,
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
