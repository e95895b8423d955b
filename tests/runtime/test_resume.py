"""Resumed trials: the production engine starts each injected trial at
the last event-loop boundary before its fault and stops it once its
state re-converges with the reference trace.  Every record must equal
the tree-walking ``Interpreter``'s full run of the same trial."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import resolve_experiment
from repro.obs import RingBufferSink, Tracer, installed_tracer
from repro.runtime.campaign import trial_record
from repro.runtime.devices import IterationKeyedDevice, ScriptedDevice
from repro.runtime.interpreter import Interpreter, RuntimeOptions, _Frame
from repro.runtime.stabilization import (
    Boundary,
    StabilizationExperiment,
    divergence_series,
    recovery_distance,
)
from repro.runtime.values import ArrayVal, ObjectVal, copy_graph, same_graph
from tests.conftest import analyze
from tests.runtime.test_watchdog import RUNAWAY
from tests.runtime.test_watchdog import device_factory as runaway_device

#: Injected work is clamped to 20 inner-loop passes, so a fault adds a
#: bounded number of steps and the run re-converges an iteration later.
#: Under a budget just above the clean run's steps, some trials stop
#: early and only the spliced step total shows they time out.
BOUNDED = '''
class Main {
  void run() {
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      int n = v;
      if (n > 20) { n = 20; }
      if (n < 0) { n = 0; }
      int acc = 0;
      int i = 0;
      while (i < n) { acc = acc + i; i = i + 1; }
      SJ.broadcast(acc % 3);
    }
  }
}
'''

#: Sites before the loop (a field initializer and a local), and a
#: static whose initializer first runs inside iteration 0.
PRELUDE = '''
class Main {
  static int SCALE = 3 * 2;
  int base = 4 + 1;
  void run() {
    int offset = base * 2;
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      SJ.broadcast(v * SCALE + offset);
    }
  }
}
'''

#: Pre-loop sites (a field initializer and a local) whose values
#: iteration 0 overwrites: a fault there leaves no trace at boundary 1.
OVERWRITTEN = '''
class Main {
  int last = 2 + 3;
  void run() {
    int seed = last * 4;
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      last = v;
      seed = v + 1;
      SJ.broadcast(last + seed);
    }
  }
}
'''

ECHO = '''
class Main {
  void run() {
    SSJAVA:
    while (true) {
      float v = Device.readFloat();
      float w = v * 2.0;
      SJ.broadcast(w);
    }
  }
}
'''

EMITS_OBJECT = '''
class Main {
  Cell cell = new Cell();
  void run() {
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      cell.value = v + 1;
      SJ.broadcast(cell);
    }
  }
}
class Cell {
  int value;
}
'''


def sweep(experiment, sites, *, burst=1):
    """Records and ``trial`` span attributes of one trial per site."""
    ring = RingBufferSink(capacity=len(sites) + 1)
    with installed_tracer(Tracer(sinks=[ring])):
        records = [
            trial_record("app", experiment.trial_at(site, seed=site, burst=burst))
            for site in sites
        ]
    return records, [span.attrs for span in ring.roots]


def oracle_records(experiment, sites, *, burst=1):
    oracle = replace(experiment, engine=Interpreter)
    return [
        trial_record("app", oracle.trial_at(site, seed=site, burst=burst))
        for site in sites
    ]


def experiment_of(source, generator, iterations=12, **kwargs):
    def factory():
        return IterationKeyedDevice(generator, iterations=iterations)

    return StabilizationExperiment(
        analyze(source), factory,
        options=RuntimeOptions(ignore_errors=True), **kwargs,
    )


class TestMatchesFullRuns:
    def test_exhaustive_wind_sensor_sweep(self):
        experiment = resolve_experiment("wind_sensor", step_budget_factor=64)
        sites = range(experiment.total_steps())
        records, attrs = sweep(experiment, sites)
        assert records == oracle_records(experiment, sites)
        assert all(a["resumed_at"] is not None for a in attrs)
        # Pinned: a silent fall back to full runs fails here, not only
        # in campaign timings.
        assert sum(a["stopped_at"] is not None for a in attrs) == 587

    @pytest.mark.parametrize("burst", [1, 3])
    @pytest.mark.parametrize("budget", [
        {"step_budget": 400},
        {"step_budget": 5000},
        {"step_budget_factor": 64},
    ])
    def test_every_runaway_site(self, budget, burst):
        experiment = StabilizationExperiment(
            analyze(RUNAWAY), runaway_device,
            options=RuntimeOptions(ignore_errors=True), **budget,
        )
        sites = range(experiment.total_steps() + 2)  # past the end too
        records, attrs = sweep(experiment, sites, burst=burst)
        assert records == oracle_records(experiment, sites, burst=burst)
        assert any(r["verdict"] == "timeout" for r in records)
        assert any(a["stopped_at"] is not None for a in attrs)

    @pytest.mark.parametrize("burst", [1, 3])
    def test_timeouts_only_the_spliced_step_count_reveals(self, burst):
        clean = experiment_of(BOUNDED, lambda name, it, k: it % 4)
        experiment = experiment_of(
            BOUNDED, lambda name, it, k: it % 4,
            step_budget=clean.reference_steps() + 40,
        )
        sites = range(experiment.total_steps())
        records, attrs = sweep(experiment, sites, burst=burst)
        assert records == oracle_records(experiment, sites, burst=burst)
        assert any(
            a["stopped_at"] is not None and a["timed_out"] for a in attrs
        )

    def test_sites_before_the_loop_and_a_lazy_static(self):
        experiment = experiment_of(PRELUDE, lambda name, it, k: it % 5)
        sites = range(experiment.total_steps())
        records, attrs = sweep(experiment, sites)
        assert records == oracle_records(experiment, sites)
        # field initializer and local: full runs from the start
        assert [a["resumed_at"] for a in attrs[:3]] == [None, None, None]
        # the static initializer runs in iteration 0
        assert attrs[3]["resumed_at"] == 0
        assert experiment.reference_trace().boundaries[0].ready == frozenset()
        assert experiment.reference_trace().boundaries[1].ready == {"Main"}

    def test_faults_before_the_loop_stop_once_overwritten(self):
        """A pre-loop fault runs from the program's start (no boundary
        to resume from) but stops like any other trial."""
        experiment = experiment_of(OVERWRITTEN, lambda name, it, k: it % 5)
        sites = range(experiment.total_steps())
        records, attrs = sweep(experiment, sites)
        assert records == oracle_records(experiment, sites)
        before = experiment.reference_trace().sites[0]
        assert before == 3
        assert [a["resumed_at"] for a in attrs[:before]] == [None] * before
        assert [a["stopped_at"] for a in attrs[:before]] == [1] * before
        assert {r["verdict"] for r in records[:before]} == {"masked"}


class TestFullRunFallbacks:
    def assert_full_runs(self, experiment):
        assert experiment.reference_trace() is None
        sites = range(0, experiment.total_steps(), 3)
        records, attrs = sweep(experiment, sites)
        assert records == oracle_records(experiment, sites)
        assert all(
            a["resumed_at"] is None and a["stopped_at"] is None for a in attrs
        )

    def test_nan_output(self):
        self.assert_full_runs(experiment_of(
            ECHO, lambda name, it, k: math.nan if it == 4 else it * 0.5
        ))

    def test_object_output(self):
        self.assert_full_runs(
            experiment_of(EMITS_OBJECT, lambda name, it, k: it % 3)
        )

    def test_stream_device(self):
        self.assert_full_runs(StabilizationExperiment(
            analyze(ECHO),
            lambda: ScriptedDevice({"readFloat": [it * 0.5 for it in range(10)]}),
        ))

    def test_oracle_engine_records_no_trace(self):
        experiment = replace(
            resolve_experiment("wind_sensor"), engine=Interpreter
        )
        assert experiment.reference_trace() is None


class TestOracleIndependence:
    def test_an_oracle_made_after_a_trial_runs_its_own_reference(self):
        experiment = resolve_experiment("wind_sensor", step_budget_factor=64)
        experiment.trial_at(experiment.total_steps() // 2, seed=1)
        oracle = replace(experiment, engine=Interpreter)
        assert oracle.reference_groups() is not experiment.reference_groups()
        assert oracle.reference_groups() == experiment.reference_groups()
        assert oracle.reference_steps() == experiment.reference_steps()
        assert oracle.total_steps() == experiment.total_steps()


class TestTraceIsReadOnly:
    def test_same_trial_twice(self):
        experiment = resolve_experiment("heart_monitor", step_budget_factor=64)
        trace = experiment.reference_trace()
        before = [copy_graph(b.values) for b in trace.boundaries]
        site = experiment.total_steps() // 3
        first = trial_record("h", experiment.trial_at(site, seed=5, burst=3))
        second = trial_record("h", experiment.trial_at(site, seed=5, burst=3))
        assert first == second
        assert first["verdict"] != "not-injected"
        assert all(
            same_graph(saved, b.values)
            for saved, b in zip(before, trace.boundaries)
        )


class TestStateComparison:
    def test_aliasing_is_part_of_the_state(self):
        shared = ArrayVal(2, 0)
        aliased = [shared, shared]
        separate = [ArrayVal(2, 0), ArrayVal(2, 0)]
        assert same_graph(aliased, copy_graph(aliased))
        assert not same_graph(aliased, separate)
        assert not same_graph(separate, aliased)

    def test_copy_keeps_cycles(self):
        node = ObjectVal("Node", {"next": None, "value": 1})
        node.fields["next"] = node
        (twin,) = copy_graph([node])
        assert twin is not node and twin.fields["next"] is twin
        assert same_graph([node], [twin])

    @pytest.mark.parametrize("left, right", [
        (0.0, -0.0), (1, 1.0), (1, True), (1.0, True), (0, False),
        (math.nan, float("nan")), ("1", 1), (None, 0),
    ])
    def test_primitives_that_behave_differently(self, left, right):
        assert not same_graph([left], [right])

    def test_equal_primitives_and_one_nan_object(self):
        nan = math.nan
        assert same_graph([1, 2.5, True, "s", None, nan],
                          [1, 2.5, True, "s", None, nan])

    def test_loop_frame_variable_names(self):
        info = analyze(PRELUDE)
        engine = Interpreter(
            info, IterationKeyedDevice(lambda n, i, k: 0, iterations=1)
        )
        frame = _Frame(None, engine)
        frame.vars = {"a": 1}
        boundary = Boundary.of(engine, frame, 0)
        assert boundary.matches(engine, frame)
        frame.vars = {"b": 1}
        assert not boundary.matches(engine, frame)
        frame.vars = {"a": 1, "b": 1}
        assert not boundary.matches(engine, frame)


# -- one-pass comparisons vs their earlier definitions ----------------------


def divergence_series_by_position(reference_groups, faulty_groups):
    length = max(len(reference_groups), len(faulty_groups))
    series = []
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


def recovery_distance_by_suffix(reference_groups, faulty_groups, injection):
    if faulty_groups == reference_groups:
        return None, None, False
    if len(faulty_groups) < len(reference_groups):
        return None, None, True
    recovery = None
    for r in range(injection, len(reference_groups)):
        if faulty_groups[r:] == reference_groups[r:]:
            recovery = r
            break
    if recovery is None:
        return None, None, True
    samples = sum(len(reference_groups[i]) for i in range(injection, recovery))
    return samples, recovery - injection, False


NAN = math.nan
SHARED_CELL = ObjectVal("Cell")
SHARED_GROUP = [1, NAN]

values = st.sampled_from(
    [0, 1, 2, 0.0, -0.0, 1.0, True, False, NAN, float("nan"), SHARED_CELL,
     "x"]
) | st.builds(ObjectVal, st.just("Cell"))
groups = st.lists(values, max_size=4) | st.just(SHARED_GROUP)
runs = st.lists(groups, max_size=7)


@st.composite
def run_pairs(draw):
    """A reference and a faulty run that often share groups and tails."""
    reference = draw(runs)
    cut = draw(st.integers(0, len(reference)))
    shape = draw(st.sampled_from(
        ["fresh", "same groups", "shared tail", "shared head", "equal copies"]
    ))
    if shape == "fresh":
        faulty = draw(runs)
    elif shape == "same groups":
        faulty = list(reference)
    elif shape == "shared tail":
        faulty = draw(runs) + reference[cut:]
    elif shape == "shared head":
        faulty = reference[:cut] + draw(runs)
    else:
        faulty = [list(group) for group in reference[:cut]] + draw(runs)
    return reference, faulty


class TestOnePassComparisons:
    @given(run_pairs())
    @settings(max_examples=400, deadline=None)
    def test_divergence_series(self, pair):
        reference, faulty = pair
        assert divergence_series(reference, faulty) == (
            divergence_series_by_position(reference, faulty)
        )

    @given(run_pairs(), st.integers(0, 8))
    @settings(max_examples=400, deadline=None)
    def test_recovery_distance(self, pair, injection):
        reference, faulty = pair
        assert recovery_distance(reference, faulty, injection) == (
            recovery_distance_by_suffix(reference, faulty, injection)
        )

    def test_counts_use_inequality(self):
        # NaN differs from itself under !=, whatever list equality says
        assert divergence_series([[NAN, 1]], [[NAN, 1]]) == [1]
