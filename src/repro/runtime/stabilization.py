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

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.lang.symtab import ProgramInfo
from repro.obs import get_tracer
from repro.obs.events import get_event_log
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import DeviceBus
from repro.runtime.injection import ErrorInjector, StepCounter
from repro.runtime.interpreter import (
    Interpreter,
    RuntimeOptions,
    StepBudgetExceeded,
)

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


def recovery_distance(
    reference_groups: list[list[object]],
    faulty_groups: list[list[object]],
    injection_iteration: int,
) -> tuple[Optional[int], Optional[int], bool]:
    """Returns (samples, iterations, diverged).

    Recovery iteration: the first iteration r >= injection such that all
    per-iteration output groups from r onward equal the reference's.
    """
    if faulty_groups == reference_groups:
        return None, None, False  # fault masked: no visible corruption
    if len(faulty_groups) < len(reference_groups):
        # The faulty run ended early (e.g. a crash cut the event loop
        # short): the missing tail is itself a visible divergence, even
        # when the truncated prefix matches the reference exactly.
        return None, None, True
    recovery = None
    # Recovery requires the *entire* faulty tail from r onward to equal
    # the reference tail — full slices, so a faulty run with extra
    # trailing groups can never claim recovery.  r == len(reference) is
    # excluded: with no matching trailing output we cannot claim the
    # program recovered, so such runs count as diverged (give
    # experiments enough trailing iterations to observe recovery).
    for r in range(injection_iteration, len(reference_groups)):
        if faulty_groups[r:] == reference_groups[r:]:
            recovery = r
            break
    if recovery is None:
        return None, None, True
    samples = sum(
        len(reference_groups[i]) for i in range(injection_iteration, recovery)
    )
    return samples, recovery - injection_iteration, False


def divergence_series(
    reference_groups: list[list[object]],
    faulty_groups: list[list[object]],
) -> list[int]:
    """Per-iteration divergence-set size: how many output samples of
    iteration ``i`` differ between the faulty run and the reference
    (positions missing from either run count as differing).  The series
    the paper's Figures 6.1/6.2 make visible — it spikes at the
    injection point and decays to zero as execution re-converges."""
    length = max(len(reference_groups), len(faulty_groups))
    series: list[int] = []
    for i in range(length):
        reference = reference_groups[i] if i < len(reference_groups) else []
        faulty = faulty_groups[i] if i < len(faulty_groups) else []
        width = max(len(reference), len(faulty))
        series.append(sum(
            1 for j in range(width)
            if j >= len(reference) or j >= len(faulty)
            or reference[j] != faulty[j]
        ))
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
    series: list[int] = []
    total = 0
    for i in range(injection_iteration, len(reference_groups)):
        if i < recovery:
            total += len(reference_groups[i])
        series.append(total)
    return series


@dataclass
class StabilizationExperiment:
    """Orchestrates reference + injected runs of one program."""

    info: ProgramInfo
    device_factory: DeviceFactory
    options: RuntimeOptions = field(
        default_factory=lambda: RuntimeOptions(ignore_errors=True)
    )
    #: Execution backend; the closure-compiling runner is observationally
    #: identical to the interpreter (differentially tested) and about 3x
    #: faster (see repro.runtime.compiler), which matters at trial scale.
    engine: type = CompiledRunner
    #: Watchdog for *injected* runs only (the reference run is never
    #: budgeted): an absolute step cap, or a multiple of the reference
    #: run's step count.  ``step_budget`` wins when both are set; with
    #: neither, injected runs are unbudgeted (the historical behavior).
    step_budget: Optional[int] = None
    step_budget_factor: Optional[int] = None
    _reference_groups: Optional[list[list[object]]] = None
    _reference_steps: Optional[int] = None
    _total_steps: Optional[int] = None

    def _run(
        self,
        injector: Optional[object],
        options: Optional[RuntimeOptions] = None,
    ) -> Interpreter:
        interpreter = self.engine(
            self.info, self.device_factory(),
            options=options if options is not None else self.options,
            injector=injector,
        )
        interpreter.run()
        return interpreter

    def reference_groups(self) -> list[list[object]]:
        if self._reference_groups is None:
            interpreter = self._run(None)
            self._reference_groups = interpreter.outputs_by_iteration()
            self._reference_steps = interpreter.steps
        return self._reference_groups

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

    def trial_at(
        self, target_step: int, seed: int, burst: int = 1
    ) -> InjectionTrial:
        """One injected run corrupting the given site.  This is the unit
        campaigns sweep: exhaustive/stratified plans enumerate sites
        explicitly instead of sampling them."""
        with get_tracer().span(
            "trial", site=target_step, seed=seed, burst=burst
        ) as span:
            trial = self._trial_at(target_step, seed, burst, span)
            span.set_attr("timed_out", trial.timed_out)
            span.set_attr("diverged", trial.diverged)
        return trial

    def _trial_at(
        self, target_step: int, seed: int, burst: int, span
    ) -> InjectionTrial:
        injector = ErrorInjector(
            target_step=target_step, seed=seed + 1, burst=burst
        )
        budget = self._trial_budget()
        options = (
            replace(self.options, step_budget=budget)
            if budget is not None else self.options
        )
        events = get_event_log()
        try:
            interpreter = self._run(injector, options)
        except StepBudgetExceeded:
            # The corrupted run never finished: a runaway loop or
            # explosion of work.  Recorded as a timeout, never a hang.
            span.count("steps", budget or 0)
            events.emit(
                "trial.timeout",
                "step-budget watchdog stopped a runaway injected run",
                level="warn",
                site=target_step,
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
            )
        span.count("steps", interpreter.steps)
        span.count("ignored_errors", len(interpreter.error_log))
        faulty_groups = interpreter.outputs_by_iteration()
        reference = self.reference_groups()
        injection_iteration = injector.injection_iteration
        if injection_iteration is None:
            # The injector replaced a value with an equal one or never hit
            # a corruptible site: no fault was actually introduced.
            events.emit(
                "trial.not_injected", level="debug",
                site=target_step, seed=seed,
            )
            return InjectionTrial(
                target_step=target_step,
                injection_iteration=None,
                corrupted_output=False,
                recovery_samples=None,
                recovery_iterations=None,
                error_log_size=len(interpreter.error_log),
            )
        events.emit(
            "trial.corrupted",
            "fault injected",
            level="info",
            site=target_step,
            seed=seed,
            iteration=injection_iteration,
        )
        samples, iterations, diverged = recovery_distance(
            reference, faulty_groups, injection_iteration
        )
        divergence = divergence_series(reference, faulty_groups)
        convergence = (
            convergence_series(reference, injection_iteration, iterations)
            if iterations is not None else None
        )
        if diverged:
            events.emit(
                "trial.diverged",
                "outputs never returned to the reference behavior",
                level="error",
                site=target_step,
                iteration=injection_iteration,
            )
        elif samples is not None:
            events.emit(
                "trial.recovered",
                "outputs re-converged to the reference",
                level="info",
                site=target_step,
                iteration=injection_iteration,
                recovery_samples=samples,
                recovery_iterations=iterations,
            )
        else:
            events.emit(
                "trial.masked", level="debug",
                site=target_step, iteration=injection_iteration,
            )
        return InjectionTrial(
            target_step=target_step,
            injection_iteration=injection_iteration,
            corrupted_output=samples is not None or diverged,
            recovery_samples=samples,
            recovery_iterations=iterations,
            diverged=diverged,
            error_log_size=len(interpreter.error_log),
            divergence=divergence,
            convergence=convergence,
        )

    def run_trials(
        self, count: int, seed: int = 0, burst: int = 1
    ) -> list[InjectionTrial]:
        return [self.trial(seed + i, burst=burst) for i in range(count)]


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
