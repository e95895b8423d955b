"""Self-tests of the end-to-end benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.harness import load_spec, run_workload, timed_metrics
from benchmarks.e2e import support
from benchmarks.e2e.serve import cycle_seconds
from benchmarks.e2e.support import (
    INTERP_NOMINAL_S,
    PROBE_NOMINAL_S,
    ROOT,
    Pass,
    load_expected,
    percentile,
    tail_percentile,
)
from benchmarks.e2e.tracing import Recorder, layer_table, self_times

#: Workload parameters small enough for a run of a second or two.
TINY = {
    "analyze": {
        "check_repeats": 1, "infer_repeats": 1, "max_rounds": 2,
        "cold_probes": 1,
    },
    "serve": {
        "clients": 2, "block": {"recheck": 6, "fresh": 3, "infer": 1},
        "max_requests_per_client": 20, "segment_requests": 10,
        "cold_probes": 1,
    },
    "campaign": {
        "trials_per_round": {"wind_sensor": 16, "heart_monitor": 16},
        "strata": 8, "shard_size": 16, "max_rounds": 2, "cold_probes": 1,
        "cold_probe_app": "wind_sensor", "cold_probe_trials": 8,
    },
    "fabric": {
        "configs": {
            "herman_bit-ring5": ["herman_bit", "ring:5"],
            "gradient_field-grid3x3": ["gradient_field", "grid:3x3"],
        },
        "clean_per_round": 1, "trials_per_round": 2, "max_rounds": 2,
        "cold_probes": 1, "cold_probe_apps": ["herman_bit"],
    },
}


def tiny_run(name: str, **kwargs):
    return run_workload(name, seconds=0.0, params=TINY[name], **kwargs)


# -- inputs -----------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = tiny_run("analyze", seed=5)
    again = tiny_run("analyze", seed=5)
    other = tiny_run("analyze", seed=6)
    assert first.inputs_sha256 == again.inputs_sha256
    assert first.inputs_sha256 != other.inputs_sha256


def test_record_carries_provenance():
    record = tiny_run("analyze", seed=2).record()
    assert record["seed"] == 2
    assert record["params"] == TINY["analyze"]
    assert len(record["inputs_sha256"]) == 64
    assert {"python", "nproc", "git_sha"} <= set(record["fingerprint"])


# -- statistics -------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    for samples in range(21, 3000, 7):
        q = tail_percentile(samples)
        values = list(range(samples))
        assert sum(1 for v in values if v > percentile(values, q)) >= 10
        # and it is the highest whole percentile that does, up to p99
        if q < 99:
            higher = percentile(values, q + 1)
            assert sum(1 for v in values if v > higher) < 10


def test_tail_percentile_examples():
    assert tail_percentile(5000) == 99
    assert tail_percentile(1000) == 99
    assert tail_percentile(200) == 95
    assert tail_percentile(100) == 90
    assert tail_percentile(10) == 50
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 99) == 4.0
    assert percentile([], 50) == 0.0


def measured_rounds(slow_round=None, slow_host_round=None) -> Pass:
    """Ten rounds of 100 ops, the host probed around each op.  The
    program runs 3x slower in ``slow_round``; the host runs 2x slower
    throughout ``slow_host_round``, its probes and ops alike."""
    host = [PROBE_NOMINAL_S]
    measured = Pass(probe=lambda: host[0], rounds=10)
    for index in range(10):
        slow = 2.0 if index == slow_host_round else 1.0
        host[0] = PROBE_NOMINAL_S * slow
        measured.start()
        for op in range(100):
            seconds = 0.001 * (1 + op % 7) * slow
            measured.add(seconds * (3.0 if index == slow_round else 1.0), 1)
    return measured


def test_one_slow_round_moves_the_timed_metrics():
    base = timed_metrics(measured_rounds(), "analyze")
    slow = timed_metrics(measured_rounds(slow_round=4), "analyze")
    assert slow["ops_per_s"][0] < base["ops_per_s"][0] * 0.9
    assert slow["latency_tail_ms"][0] > base["latency_tail_ms"][0] * 1.5
    assert slow["latency_tail_ms"][1].startswith("p99 of 1000 ops")


def test_host_slowdown_is_scaled_out():
    base = timed_metrics(measured_rounds(), "analyze")
    noisy = timed_metrics(measured_rounds(slow_host_round=4), "analyze")
    for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
        assert noisy[name][0] == pytest.approx(base[name][0])
    # a slow program still shows while the host is slow elsewhere
    both = timed_metrics(
        measured_rounds(slow_round=2, slow_host_round=4), "analyze"
    )
    assert both["ops_per_s"][0] < base["ops_per_s"][0] * 0.9


def test_throughput_is_the_geometric_mean_over_groups():
    measured = Pass()
    for _ in range(10):
        measured.add(0.01, 1, "short")  # 100 per second
    measured.add(1.0, 1, "long")        # 1 per second
    rate, how = timed_metrics(measured, "campaign")["ops_per_s"]
    assert rate == pytest.approx(10.0)
    assert how.endswith("geometric mean over 2 groups")


def test_daemon_cycle_scales_only_the_work_up_to_the_first_answer():
    assert cycle_seconds((0.3, 0.9), 0.5) == pytest.approx((0.15, 0.75))


def test_cold_samples_are_scaled_by_the_interpreter_starts_around_them(
    monkeypatch,
):
    starts = iter([0.06, 0.10])
    monkeypatch.setattr(support, "interp_start", lambda scratch: next(starts))
    call = support.interp_scaled(lambda index: 0.5 + index, Path("."))
    value, scale = call(1)
    assert value == 1.5
    assert scale == pytest.approx(INTERP_NOMINAL_S / 0.08)


# -- tracing ----------------------------------------------------------------


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced_check(clock, recorder, extra):
    """op.check 0-10 > lang.parse 1-4, core.check 4-9 > lang.resolve
    5-6, plus children of core.check measured elsewhere."""
    with recorder.span("op.check"):
        clock.now = 1.0
        with recorder.span("lang.parse"):
            clock.now = 4.0
        with recorder.span("core.check") as check:
            clock.now = 5.0
            with recorder.span("lang.resolve"):
                clock.now = 6.0
            clock.now = 9.0
        clock.now = 10.0
    for start, end in extra:
        recorder.add(check, "core.pass", start, end)


def test_self_times_sum_to_root_wall():
    clock = Clock()
    recorder = Recorder(clock=clock)
    traced_check(clock, recorder, [(6.0, 7.5), (7.5, 8.5)])
    table = layer_table(recorder.spans)
    assert table.wall == 10.0
    assert table.max_error_pct == pytest.approx(0.0, abs=1e-9)
    assert table.layer_self["harness"] == pytest.approx(2.0)  # 0-1, 9-10
    assert table.layer_self["lang"] == pytest.approx(4.0)     # 3 + 1
    assert table.layer_self["core"] == pytest.approx(4.0)     # 1.5 + 1.5 + 1
    parse = next(s for s in recorder.spans if s.name == "lang.parse")
    assert self_times(recorder.spans)[parse.id] == pytest.approx(3.0)
    assert sum(table.share(layer) for layer in table.layer_self) == (
        pytest.approx(1.0)
    )


def test_overlapping_children_break_the_invariant():
    clock = Clock()
    recorder = Recorder(clock=clock)
    traced_check(clock, recorder, [(6.0, 8.0), (7.0, 8.5)])
    assert layer_table(recorder.spans).max_error_pct > 1.0


def test_wrappers_skip_calls_outside_ops():
    recorder = Recorder()
    wrapped = recorder.wrap(lambda x: x + 1, "lang.parse")
    assert wrapped(1) == 2
    assert recorder.spans == []
    with recorder.span("op.x"):
        wrapped(1)
    assert [s.name for s in recorder.spans] == ["lang.parse", "op.x"]


# -- known answers ----------------------------------------------------------


def test_wrong_verdict_raises_error_rate():
    expected = load_expected()
    expected["sinfer_locations"]["wind_sensor"] = 15
    expected["rejected"]["flow_up"]["checks"] = ["termination"]
    outcome = tiny_run("analyze", seed=0, expected=expected)
    assert not outcome.correct
    assert outcome.failed > 0
    assert any("wind_sensor" in note for note in outcome.notes)
    assert any("flow_up" in note for note in outcome.notes)
    traced = tiny_run("analyze", seed=0, expected=expected, trace=True)
    assert traced.metrics["error_rate"][0] > 0
    assert traced.metrics["infer.location_mismatches"][0] > 0
    assert traced.metrics["core.verdict_mismatches"][0] > 0


# -- every workload, both modes ---------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_untraced_run(name):
    outcome = tiny_run(name, seed=1)
    assert outcome.correct, outcome.notes
    names = [m["name"] for m in load_spec()["end_to_end"]]
    assert list(outcome.metrics) == names
    for metric, (value, _, how) in outcome.metrics.items():
        assert value > 0, (metric, how)
    result = outcome.result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run(name):
    outcome = tiny_run(name, seed=1, trace=True)
    assert outcome.correct, outcome.notes
    spec = load_spec()["per_layer"]
    assert list(outcome.metrics) == [m["name"] for m in spec]
    metrics = {k: v[0] for k, v in outcome.metrics.items()}
    assert metrics["trace.self_sum_error_pct"] < 1.0
    assert metrics["trace.spans"] > 0
    # every time-valued layer metric is measured on every workload
    for entry in spec:
        if entry["unit"] == "ms":
            assert metrics[entry["name"]] != 0, entry["name"]
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)


def test_refuses_to_run_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result,
    non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "analyze",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert Path(tmp_path / "benchmarks" / "e2e" / "run.py").exists()
