"""Step-budget watchdog: a corrupted loop bound must terminate the
trial (recorded as ``timeout``), never hang the worker process."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import resolve_experiment
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice
from repro.runtime.interpreter import (
    Interpreter,
    RuntimeOptions,
    StepBudgetExceeded,
)
from repro.runtime.stabilization import StabilizationExperiment
from tests.conftest import analyze

#: An injected fault on ``v`` or ``i`` turns the inner loop's exit test
#: ``i != v + 8`` into one that (practically) never fires — exactly the
#: runaway-computation shape the watchdog exists for.
RUNAWAY = '''
class Main {
  void run() {
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      int acc = 0;
      int i = 0;
      while (i != v + 8) { acc = acc + i; i = i + 1; }
      SJ.broadcast(acc);
    }
  }
}
'''

BACKENDS = (Interpreter, CompiledRunner)


def device_factory():
    return IterationKeyedDevice(lambda name, it, k: it % 4, iterations=5)


class TestStepMetering:
    @pytest.mark.parametrize("engine", BACKENDS)
    def test_steps_are_counted(self, engine):
        runner = engine(analyze(RUNAWAY), device_factory(),
                        options=RuntimeOptions(ignore_errors=True))
        runner.run()
        assert runner.steps > 0

    def test_backends_meter_identically(self):
        info = analyze(RUNAWAY)
        counts = []
        for engine in BACKENDS:
            runner = engine(info, device_factory(),
                            options=RuntimeOptions(ignore_errors=True))
            runner.run()
            counts.append(runner.steps)
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_tiny_budget_raises_even_in_crash_avoidance_mode(self, engine):
        """The watchdog is harness protection, not language semantics:
        it fires even in ignore-errors mode, where every other fault is
        swallowed."""
        runner = engine(
            analyze(RUNAWAY), device_factory(),
            options=RuntimeOptions(ignore_errors=True, step_budget=10),
        )
        with pytest.raises(StepBudgetExceeded):
            runner.run()
        assert runner.steps == 11  # stopped right past the budget

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_generous_budget_does_not_change_behavior(self, engine):
        info = analyze(RUNAWAY)
        plain = engine(info, device_factory(),
                       options=RuntimeOptions(ignore_errors=True))
        plain.run()
        budgeted = engine(
            info, device_factory(),
            options=RuntimeOptions(ignore_errors=True, step_budget=10**9),
        )
        budgeted.run()
        assert budgeted.sink.values == plain.sink.values
        assert budgeted.steps == plain.steps


class TestExperimentWatchdog:
    def make_experiment(self, **overrides) -> StabilizationExperiment:
        kwargs = dict(step_budget=5000, step_budget_factor=None)
        kwargs.update(overrides)
        return StabilizationExperiment(
            analyze(RUNAWAY), device_factory,
            options=RuntimeOptions(ignore_errors=True), **kwargs
        )

    def test_runaway_injected_loop_is_recorded_as_timeout(self):
        """Acceptance criterion: a trial whose corrupted value produces a
        runaway loop terminates via the step-budget watchdog and is
        recorded as a ``timeout`` trial, not a hung worker."""
        experiment = self.make_experiment()
        trials = [
            experiment.trial_at(site, seed=3)
            for site in range(min(60, experiment.total_steps()))
        ]
        timed_out = [t for t in trials if t.timed_out]
        assert timed_out, "no trial tripped the watchdog"
        for trial in timed_out:
            assert trial.corrupted_output
            assert trial.recovery_samples is None
            assert not trial.diverged

    def test_reference_run_is_never_budgeted(self):
        # Even a budget far below the clean run's step count leaves the
        # reference untouched: only injected runs race the watchdog.
        experiment = self.make_experiment(step_budget=1)
        assert experiment.reference_groups()
        assert experiment.reference_steps() > 1
        assert experiment.trial_at(0, seed=3).timed_out

    def test_relative_budget_derives_from_reference_steps(self):
        experiment = self.make_experiment(
            step_budget=None, step_budget_factor=64
        )
        budget = experiment._trial_budget()
        assert budget == max(1000, 64 * experiment.reference_steps())

    def test_no_budget_means_no_watchdog(self):
        experiment = self.make_experiment(
            step_budget=None, step_budget_factor=None
        )
        assert experiment._trial_budget() is None


class TestCleanRunsAreNeverBudgeted:
    def test_a_budget_in_the_options_leaves_clean_runs_alone(self):
        """``options.step_budget`` budgets trials that set no budget of
        their own, never the clean runs."""
        plain = resolve_experiment("wind_sensor")
        options = RuntimeOptions(ignore_errors=True, step_budget=100)
        experiment = replace(plain, options=options, step_budget_factor=64)
        assert experiment.reference_groups() == plain.reference_groups()
        assert experiment.reference_steps() == plain.reference_steps() > 100
        assert experiment.total_steps() == plain.total_steps()
        assert not experiment.trial_at(5, seed=5).timed_out
        # A trial with no budget of its own runs under the options', and
        # a resumed one is judged as the oracle's full run.
        unbudgeted = replace(plain, options=options)
        oracle = replace(unbudgeted, engine=Interpreter)
        for site in (5, 300):
            trial = unbudgeted.trial_at(site, seed=site)
            assert trial.timed_out
            assert trial == oracle.trial_at(site, seed=site)
