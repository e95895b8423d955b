"""Benchmark harness: deterministic runner, schema, comparator, CLI."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    JsonlTraceWriter,
    Tracer,
    aggregate_trace,
    installed_tracer,
    read_trace,
    trace_root_seconds,
)
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchError,
    Scenario,
    attribute_benchmarks,
    bench_payload,
    compare_benchmarks,
    dumps_bench,
    format_attribution,
    format_comparison,
    get_scenario,
    judge_shift,
    read_bench,
    run_scenario,
    run_scenarios,
    scenario_names,
    scenario_result_from_samples,
    validate_bench,
    write_bench,
)
from repro.service import protocol

GOLDEN = Path(__file__).parent / "golden" / "bench.golden.json"

#: A fingerprint pinned for byte-stable golden output.
PINNED_FINGERPRINT = {
    "python": "3.11.0",
    "implementation": "CPython",
    "platform": "Linux-golden",
    "machine": "x86_64",
    "cpu_count": 4,
    "git_sha": "0" * 40,
}

CREATED = "2026-01-01T00:00:00Z"


def _counting_clock(step: float):
    counter = itertools.count()
    return lambda: next(counter) * step


def _toy_scenario(name: str = "check/toy", kind: str = "check") -> Scenario:
    """A registry-independent scenario whose op is free — with a
    counting clock every repetition times exactly one clock step."""
    return Scenario(name, kind, ("small", "full"), lambda: lambda: {"ops": 2})


def _result(name: str, samples, kind: str = "check", warmup: int = 1):
    return scenario_result_from_samples(
        name, kind, samples, counters={"ops": 2}, warmup=warmup
    )


def _payload(results):
    return bench_payload(
        results,
        suite="golden",
        warmup=1,
        repetitions=max(r["repetitions"] for r in results),
        fingerprint=dict(PINNED_FINGERPRINT),
        created_utc=CREATED,
    )


class TestRunner:
    def test_deterministic_with_injected_clock(self):
        result = run_scenario(
            _toy_scenario(),
            warmup=2,
            repetitions=4,
            clock=_counting_clock(0.25),
        )
        assert result["samples_seconds"] == [0.25] * 4
        assert result["min_seconds"] == 0.25
        assert result["median_seconds"] == 0.25
        assert result["mean_seconds"] == 0.25
        assert result["stddev_seconds"] == 0.0
        assert result["counters"] == {"ops": 2.0}
        assert result["warmup"] == 2 and result["repetitions"] == 4

    def test_golden_bench_json(self):
        """The full payload, byte for byte — schema drift must be a
        conscious change to the golden file and BENCH_SCHEMA."""
        results = run_scenarios(
            [_toy_scenario()],
            warmup=1,
            repetitions=3,
            clock=_counting_clock(0.5),
        )
        payload = _payload(results)
        assert dumps_bench(payload) == GOLDEN.read_text(encoding="utf-8")

    def test_scenario_root_span_composes_with_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(trace) as writer:
            with installed_tracer(Tracer(sinks=(writer,))):
                run_scenario(
                    _toy_scenario(),
                    warmup=1,
                    repetitions=2,
                    clock=_counting_clock(0.5),
                )
        events = read_trace(trace)
        roots = [e for e in events if e["parent_id"] is None]
        assert [r["name"] for r in roots] == ["bench.check/toy"]
        assert roots[0]["counters"] == {"repetitions": 2}
        children = [e["name"] for e in events if e["parent_id"] is not None]
        assert children.count("warmup") == 1
        assert children.count("repetition") == 2

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(BenchError, match="unknown scenario"):
            get_scenario("check/nonesuch")
        with pytest.raises(BenchError, match="unknown suite"):
            scenario_names("medium")

    def test_interpreter_step_times_the_production_engine(self, monkeypatch):
        from repro.runtime.interpreter import Interpreter

        engines = []
        run = Interpreter.run

        def spy(engine, *args, **kwargs):
            engines.append(type(engine).__name__)
            return run(engine, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run", spy)
        scenario = get_scenario("interpreter-step/wind_sensor")
        assert scenario.kind == "interpreter-step"
        scenario.build()()
        assert engines == ["CompiledRunner"]

    def test_small_suite_is_subset_of_full(self):
        small, full = scenario_names("small"), scenario_names("full")
        assert set(small) < set(full)
        assert "check/wind_sensor" in small
        assert "service-batch/apps" in small


class TestSchema:
    def test_round_trip(self, tmp_path):
        payload = _payload([_result("check/toy", [0.5, 0.5, 0.5])])
        path = write_bench(payload, tmp_path / "BENCH_test.json")
        assert read_bench(path) == payload

    def test_default_filename_uses_utc_stamp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = _payload([_result("check/toy", [0.5])])
        path = write_bench(payload)
        assert path.name == "BENCH_20260101T000000Z.json"

    def test_schema_violations_rejected(self):
        good = _payload([_result("check/toy", [0.5, 0.5])])
        assert validate_bench(good) is good

        wrong_schema = dict(good, schema=BENCH_SCHEMA + 1)
        with pytest.raises(BenchError, match="unsupported bench schema"):
            validate_bench(wrong_schema)
        with pytest.raises(BenchError, match="kind"):
            validate_bench(dict(good, kind="trace"))
        with pytest.raises(BenchError, match="non-empty list"):
            validate_bench(dict(good, scenarios=[]))
        with pytest.raises(BenchError, match="fingerprint missing"):
            validate_bench(dict(good, fingerprint={"python": "3"}))

        bad_reps = _payload([_result("check/toy", [0.5, 0.5])])
        bad_reps["scenarios"][0]["repetitions"] = 7
        with pytest.raises(BenchError, match="repetitions must equal"):
            validate_bench(bad_reps)

        dupe = _payload(
            [_result("check/toy", [0.5]), _result("check/toy", [0.5])]
        )
        with pytest.raises(BenchError, match="duplicate scenario"):
            validate_bench(dupe)

    def test_unknown_kind_rejected(self):
        with pytest.raises(BenchError, match="unknown scenario kind"):
            scenario_result_from_samples("x", "compile", [0.5])

    def test_read_bench_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(BenchError, match="invalid JSON"):
            read_bench(path)

    def test_protocol_envelope(self):
        payload = _payload([_result("check/toy", [0.5])])
        envelope = protocol.bench_payload(payload)
        protocol.validate_bench_payload(envelope)
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_bench_payload(
                dict(envelope, scenarios=[])
            )


class TestComparator:
    def test_identical_inputs_all_within_noise(self):
        payload = _payload([_result("check/toy", [1.0, 1.0, 1.0])])
        comparison = compare_benchmarks(payload, payload, 10.0)
        assert [r["status"] for r in comparison["rows"]] == ["within-noise"]
        assert comparison["ok"]

    def test_doubled_median_is_a_regression(self):
        old = _payload([_result("check/toy", [1.0, 1.0, 1.0])])
        new = _payload([_result("check/toy", [2.0, 2.0, 2.0])])
        comparison = compare_benchmarks(old, new, 25.0)
        (row,) = comparison["rows"]
        assert row["status"] == "regression"
        assert row["delta_pct"] == pytest.approx(100.0)
        assert comparison["regressions"] == ["check/toy"]
        assert not comparison["ok"]

    def test_halved_median_is_an_improvement(self):
        old = _payload([_result("check/toy", [1.0, 1.0, 1.0])])
        new = _payload([_result("check/toy", [0.5, 0.5, 0.5])])
        comparison = compare_benchmarks(old, new, 25.0)
        assert comparison["improvements"] == ["check/toy"]
        assert comparison["ok"]  # improvements never fail the gate

    def test_shift_below_threshold_is_noise(self):
        old = _payload([_result("check/toy", [1.0, 1.0, 1.0])])
        new = _payload([_result("check/toy", [1.05, 1.05, 1.05])])
        comparison = compare_benchmarks(old, new, 10.0)
        assert [r["status"] for r in comparison["rows"]] == ["within-noise"]

    def test_shift_inside_sample_noise_is_noise(self):
        # +50% median shift, but the samples are so scattered that the
        # combined stddev swallows it — not statistically meaningful.
        old = _payload([_result("check/toy", [0.5, 1.0, 1.5])])
        new = _payload([_result("check/toy", [1.0, 1.5, 2.0])])
        comparison = compare_benchmarks(old, new, 10.0)
        (row,) = comparison["rows"]
        assert row["delta_pct"] == pytest.approx(50.0)
        assert row["status"] == "within-noise"
        assert comparison["ok"]

    def test_missing_scenario_fails_the_gate(self):
        old = _payload(
            [_result("check/toy", [1.0]), _result("infer/toy", [1.0], "infer")]
        )
        new = _payload([_result("check/toy", [1.0])])
        comparison = compare_benchmarks(old, new, 10.0)
        assert comparison["missing"] == ["infer/toy"]
        assert not comparison["ok"]

    def test_added_scenario_is_reported_not_failed(self):
        old = _payload([_result("check/toy", [1.0])])
        new = _payload(
            [_result("check/toy", [1.0]), _result("infer/toy", [1.0], "infer")]
        )
        comparison = compare_benchmarks(old, new, 10.0)
        assert comparison["added"] == ["infer/toy"]
        assert comparison["ok"]

    def test_bad_threshold_rejected(self):
        payload = _payload([_result("check/toy", [1.0])])
        with pytest.raises(BenchError, match="threshold"):
            compare_benchmarks(payload, payload, -1)


class TestJudgeShift:
    """The one rule behind the gate's time and memory rows."""

    def test_zero_baseline(self):
        assert judge_shift(0.0, 0.0, 0.0, 10.0) == (None, "within-noise")
        assert judge_shift(0.0, 1.0, 0.5, 10.0) == (None, "regression")
        assert judge_shift(0.0, 1.0, 2.0, 10.0) == (None, "within-noise")

    def test_shift_within_noise(self):
        assert judge_shift(1.0, 2.0, 1.5, 10.0) == (100.0, "within-noise")
        assert judge_shift(1.0, 0.25, 1.0, 10.0) == (-75.0, "within-noise")

    def test_shift_beyond_threshold(self):
        assert judge_shift(1.0, 1.5, 0.1, 25.0) == (50.0, "regression")
        assert judge_shift(1.0, 0.5, 0.1, 25.0) == (-50.0, "improvement")
        delta, status = judge_shift(1.0, 1.2, 0.1, 25.0)
        assert delta == pytest.approx(20.0)
        assert status == "within-noise"


class TestBenchCli:
    def test_run_writes_valid_bench(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "2", "--warmup", "0",
            "--output", str(out),
        ]) == 0
        payload = read_bench(out)
        assert [s["name"] for s in payload["scenarios"]] == [
            "check/wind_sensor"
        ]
        assert "check/wind_sensor" in capsys.readouterr().out

    def test_json_emits_protocol_envelope(self, tmp_path, capsys):
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "1", "--warmup", "0", "--json",
            "--output", str(tmp_path / "bench.json"),
        ]) == 0
        envelope = json.loads(capsys.readouterr().out)
        protocol.validate_bench_payload(envelope)

    def test_compare_identical_files_exits_0(self, tmp_path, capsys):
        path = write_bench(
            _payload([_result("check/toy", [1.0, 1.0])]),
            tmp_path / "old.json",
        )
        assert main([
            "bench", "--compare", str(path), "--against", str(path),
        ]) == 0
        assert "within-noise" in capsys.readouterr().out

    def test_compare_2x_slowdown_exits_1(self, tmp_path, capsys):
        old = write_bench(
            _payload([_result("check/toy", [1.0, 1.0])]),
            tmp_path / "old.json",
        )
        new = write_bench(
            _payload([_result("check/toy", [2.0, 2.0])]),
            tmp_path / "new.json",
        )
        assert main([
            "bench", "--compare", str(old), "--against", str(new),
            "--threshold", "25",
        ]) == 1
        assert "regression" in capsys.readouterr().out

    def test_run_then_compare_against_baseline(self, tmp_path, capsys):
        # a real (non-injected) run compared against a generous baseline
        # built from its own output must pass the gate
        out = tmp_path / "run.json"
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "2", "--warmup", "0", "--output", str(out),
        ]) == 0
        capsys.readouterr()
        baseline = dict(read_bench(out))
        for entry in baseline["scenarios"]:
            entry["median_seconds"] *= 100
            entry["min_seconds"] *= 100
            entry["mean_seconds"] *= 100
            entry["samples_seconds"] = [
                s * 100 for s in entry["samples_seconds"]
            ]
        baseline_path = write_bench(baseline, tmp_path / "baseline.json")
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "2", "--warmup", "0",
            "--output", str(tmp_path / "run2.json"),
            "--compare", str(baseline_path), "--threshold", "25",
        ]) in (0, 1)  # improvement or noise — never a crash
        assert "improvement" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["bench", "--scenario", "check/nonesuch"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_list_prints_suite(self, capsys):
        assert main(["bench", "--list", "--suite", "small"]) == 0
        out = capsys.readouterr().out
        assert "check/wind_sensor" in out
        assert "service-batch/apps" in out

    def test_report_self_time_table(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "2", "--warmup", "0",
            "--output", str(out), "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["bench", "--report", str(trace)]) == 0
        table = capsys.readouterr().out
        assert "self ms" in table and "self%" in table
        assert "bench.check/wind_sensor" in table
        # the acceptance criterion: per-name exclusive times sum to the
        # trace's root wall time
        events = read_trace(trace)
        rows = aggregate_trace(events)
        assert sum(r["self_seconds"] for r in rows) == pytest.approx(
            trace_root_seconds(events)
        )

    def test_report_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert main(["bench", "--report", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_report_and_compare_are_exclusive(self, tmp_path, capsys):
        assert main([
            "bench", "--report", "x.jsonl", "--compare", "y.json",
        ]) == 2

    def test_against_requires_compare(self, capsys):
        assert main(["bench", "--against", "x.json"]) == 2


def _spans(rows: dict[str, float], count: int = 3) -> list[dict]:
    """Span-table rows from name -> summed self seconds."""
    return [
        {"name": name, "count": count, "self_seconds": seconds,
         "wall_seconds": seconds}
        for name, seconds in sorted(rows.items())
    ]


class TestSpanTables:
    def _spanning_scenario(self) -> Scenario:
        from repro.obs import get_tracer

        def build():
            def op():
                tracer = get_tracer()
                with tracer.span("parse"):
                    pass
                with tracer.span("flow_check"):
                    pass
                return {"ops": 2}
            return op

        return Scenario("check/spanning", "check", ("small",), build)

    def test_run_scenario_collects_span_table(self):
        """span_table=True taps the repetitions with a local tracer —
        no --trace required — and excludes the harness's own spans."""
        result = run_scenario(
            self._spanning_scenario(),
            warmup=2,
            repetitions=3,
            clock=_counting_clock(0.25),
            span_table=True,
        )
        names = {row["name"] for row in result["spans"]}
        assert names == {"parse", "flow_check"}
        by_name = {row["name"]: row for row in result["spans"]}
        # warmup runs are not collected: 3 timed repetitions only
        assert by_name["parse"]["count"] == 3
        validate_bench(_payload([result]))

    def test_span_table_composes_with_installed_tracer(self, tmp_path):
        """With a real tracer installed the sink taps it without
        stealing its other sinks' events."""
        trace = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(trace) as writer:
            with installed_tracer(Tracer(sinks=(writer,))):
                result = run_scenario(
                    self._spanning_scenario(),
                    warmup=1,
                    repetitions=2,
                    clock=_counting_clock(0.25),
                    span_table=True,
                )
        assert {r["name"] for r in result["spans"]} == {
            "parse", "flow_check",
        }
        # the trace file still has the full structure, warmups included
        names = [e["name"] for e in read_trace(trace)]
        assert "bench.check/spanning" in names
        assert "warmup" in names

    def test_validate_bench_rejects_malformed_spans(self):
        base = _result("check/toy", [1.0], warmup=0)
        bad_rows = _payload([dict(base, spans="nope")])
        with pytest.raises(BenchError, match="spans must be a list"):
            validate_bench(bad_rows)
        bad_name = _payload([dict(base, spans=[{"count": 1}])])
        with pytest.raises(BenchError, match="needs a name"):
            validate_bench(bad_name)
        bad_count = _payload([dict(base, spans=[
            {"name": "parse", "count": 1.5, "self_seconds": 0.1,
             "wall_seconds": 0.1},
        ])])
        with pytest.raises(BenchError, match="count must be an int"):
            validate_bench(bad_count)
        bad_seconds = _payload([dict(base, spans=[
            {"name": "parse", "count": 1, "self_seconds": "x",
             "wall_seconds": 0.1},
        ])])
        with pytest.raises(BenchError, match="self_seconds must be a number"):
            validate_bench(bad_seconds)


class TestAttribution:
    """The synthetic two-payload fixture from the issue: one span
    regresses beyond the noise envelope, one drifts within it."""

    def _old(self):
        return _payload([
            scenario_result_from_samples(
                "check/toy", "check", [1.0, 1.0, 1.0],
                counters={"ops": 2}, warmup=1,
                spans=_spans({
                    "parse": 0.3, "flow_check": 0.6, "typecheck": 1.5,
                }),
            ),
        ])

    def _new(self):
        # median 1.6s, stddev exactly 0.1 -> noise envelope 0.1s/rep
        return _payload([
            scenario_result_from_samples(
                "check/toy", "check", [1.5, 1.6, 1.7],
                counters={"ops": 2}, warmup=1,
                spans=_spans({
                    # typecheck +0.5s/rep: the injected regression
                    "typecheck": 3.0,
                    # flow_check +0.05s/rep: inside the noise envelope
                    "flow_check": 0.75,
                    "parse": 0.3,
                }),
            ),
        ])

    def test_regressed_span_ranked_first(self):
        attribution = attribute_benchmarks(self._old(), self._new())
        (scenario,) = attribution["scenarios"]
        assert scenario["status"] == "regression"
        assert scenario["delta_seconds"] == pytest.approx(0.6)
        assert scenario["noise_seconds"] == pytest.approx(0.1)
        (top,) = scenario["spans"]
        assert top["name"] == "typecheck"
        assert top["delta_seconds"] == pytest.approx(0.5)
        assert top["share_pct"] == pytest.approx(83.33, abs=0.01)
        # parse (no shift) and flow_check (+0.05 <= 0.1) are excluded
        assert scenario["excluded_within_noise"] == 2

    def test_attribution_is_deterministic(self):
        first = attribute_benchmarks(self._old(), self._new())
        second = attribute_benchmarks(self._old(), self._new())
        assert first == second
        assert format_attribution(first) == format_attribution(second)

    def test_normalizes_across_repetition_counts(self):
        """Self times are per-repetition before differencing, so a
        2-rep payload joins a 3-rep one without phantom shifts."""
        new = _payload([
            scenario_result_from_samples(
                "check/toy", "check", [1.0, 1.0],
                counters={"ops": 2}, warmup=1,
                # same per-rep spans as _old, summed over 2 reps
                spans=_spans({
                    "parse": 0.2, "flow_check": 0.4, "typecheck": 1.0,
                }, count=2),
            ),
        ])
        attribution = attribute_benchmarks(self._old(), new)
        (scenario,) = attribution["scenarios"]
        assert scenario["spans"] == []
        assert scenario["excluded_within_noise"] == 3

    def test_missing_span_table_lists_scenario_unattributed(self):
        old = self._old()
        new = _payload([_result("check/toy", [1.0, 1.0, 1.0])])
        attribution = attribute_benchmarks(old, new)
        assert attribution["scenarios"] == []
        assert attribution["unattributed"] == ["check/toy"]
        rendered = format_attribution(attribution)
        assert "rerun with --spans" in rendered
        assert "no scenario carried span tables" in rendered

    def test_tie_break_by_name(self):
        old = _payload([
            scenario_result_from_samples(
                "check/toy", "check", [1.0, 1.0, 1.0],
                counters={}, warmup=0,
                spans=_spans({"beta": 0.3, "alpha": 0.3}),
            ),
        ])
        new = _payload([
            scenario_result_from_samples(
                "check/toy", "check", [2.0, 2.0, 2.0],
                counters={}, warmup=0,
                spans=_spans({"beta": 1.8, "alpha": 1.8}),
            ),
        ])
        attribution = attribute_benchmarks(old, new)
        (scenario,) = attribution["scenarios"]
        assert [r["name"] for r in scenario["spans"]] == ["alpha", "beta"]

    def test_format_ranks_and_labels(self):
        rendered = format_attribution(
            attribute_benchmarks(self._old(), self._new())
        )
        assert "check/toy: 1000.00 -> 1600.00 ms (+60.0%, regression)" \
            in rendered
        assert "#1 typecheck" in rendered
        assert "2 span(s) within" in rendered


class TestCompareSymmetricDifference:
    def test_missing_and_added_named_in_rendering(self):
        old = _payload([
            _result("check/toy", [1.0]), _result("check/gone", [1.0]),
        ])
        new = _payload([
            _result("check/toy", [1.0]), _result("check/new", [1.0]),
        ])
        comparison = compare_benchmarks(old, new)
        assert comparison["missing"] == ["check/gone"]
        assert comparison["added"] == ["check/new"]
        rendered = format_comparison(comparison)
        assert "// missing from new run: check/gone" in rendered
        assert "// added in new run: check/new" in rendered

    def test_compare_cli_error_names_missing_scenarios(
        self, tmp_path, capsys
    ):
        old = write_bench(
            _payload([
                _result("check/toy", [1.0]),
                _result("check/gone", [1.0]),
            ]),
            tmp_path / "old.json",
        )
        new = write_bench(
            _payload([_result("check/toy", [1.0])]),
            tmp_path / "new.json",
        )
        assert main([
            "bench", "--compare", str(old), "--against", str(new),
        ]) == 1
        captured = capsys.readouterr()
        assert "// missing from new run: check/gone" in captured.out
        assert (
            "error: scenario(s) missing from the new run: check/gone"
            in captured.err
        )

    def test_compare_json_envelope_carries_symmetric_difference(
        self, tmp_path, capsys
    ):
        old = write_bench(
            _payload([
                _result("check/toy", [1.0]),
                _result("check/gone", [1.0]),
            ]),
            tmp_path / "old.json",
        )
        new = write_bench(
            _payload([
                _result("check/toy", [1.0]),
                _result("check/new", [1.0]),
            ]),
            tmp_path / "new.json",
        )
        assert main([
            "bench", "--compare", str(old), "--against", str(new),
            "--json",
        ]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == protocol.PROTOCOL_VERSION
        assert document["kind"] == "bench-compare"
        assert document["missing"] == ["check/gone"]
        assert document["added"] == ["check/new"]


class TestAttributionCli:
    def _fixture_paths(self, tmp_path):
        old = _payload([
            scenario_result_from_samples(
                "check/toy", "check", [1.0, 1.0, 1.0],
                counters={"ops": 2}, warmup=1,
                spans=_spans({
                    "parse": 0.3, "flow_check": 0.6, "typecheck": 1.5,
                }),
            ),
        ])
        new = _payload([
            scenario_result_from_samples(
                "check/toy", "check", [1.5, 1.6, 1.7],
                counters={"ops": 2}, warmup=1,
                spans=_spans({
                    "typecheck": 3.0, "flow_check": 0.75, "parse": 0.3,
                }),
            ),
        ])
        return (
            write_bench(old, tmp_path / "old.json"),
            write_bench(new, tmp_path / "new.json"),
        )

    def test_attribute_ranks_injected_regression_first(
        self, tmp_path, capsys
    ):
        old, new = self._fixture_paths(tmp_path)
        assert main([
            "bench", "--attribute", str(old), str(new),
        ]) == 0
        out = capsys.readouterr().out
        assert "#1 typecheck" in out
        assert "regression" in out

    def test_attribute_json_envelope(self, tmp_path, capsys):
        old, new = self._fixture_paths(tmp_path)
        assert main([
            "bench", "--attribute", str(old), str(new), "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == protocol.PROTOCOL_VERSION
        assert document["kind"] == "bench-attribution"
        (scenario,) = document["scenarios"]
        assert scenario["spans"][0]["name"] == "typecheck"

    def test_bench_spans_flag_records_span_tables(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "2", "--warmup", "0",
            "--output", str(out), "--spans",
        ]) == 0
        payload = read_bench(out)
        (scenario,) = payload["scenarios"]
        spans = scenario["spans"]
        assert spans, "expected a span table from --spans"
        names = {row["name"] for row in spans}
        assert "check" in names
        assert not names & {"warmup", "repetition", "bench.check/wind_sensor"}


MEMORY_GOLDEN = Path(__file__).parent / "golden" / "bench_memory.golden.json"


class _SteppingAlloc:
    """A tracemalloc stand-in whose traced count grows by a fixed step
    on every read, so per-repetition peaks are deterministic."""

    def __init__(self, step: int = 512) -> None:
        self.step = step
        self.current = 0
        self.peak = 0

    def read(self):
        self.current += self.step
        self.peak = max(self.peak, self.current)
        return (self.current, self.peak)

    def reset(self) -> None:
        self.peak = self.current


def _fake_monitor(alloc=None, rss: int = 64 * 1048576):
    from repro.obs.resources import ResourceMonitor

    return ResourceMonitor(
        clock=_counting_clock(0.25),
        rss_supplier=lambda: rss,
        track_gc=False,
        alloc_read=(alloc or _SteppingAlloc()).read if alloc is None
        else alloc.read,
        alloc_reset=None if alloc is None else alloc.reset,
    ).start()


def _memory(allocs, *, rss=64 * 1048576, stddev=None, gc=0, pause=0.0):
    import statistics

    return {
        "peak_rss_bytes": rss,
        "alloc_per_rep_bytes": list(allocs),
        "alloc_peak_bytes": max(allocs) if allocs else None,
        "alloc_median_bytes": (
            float(statistics.median(allocs)) if allocs else None
        ),
        "alloc_stddev_bytes": (
            stddev if stddev is not None
            else float(statistics.stdev(allocs)) if len(allocs) > 1 else 0.0
        ),
        "gc_collections": gc,
        "gc_pause_seconds_total": pause,
    }


def _mem_result(name, samples, allocs, *, stddev=None, kind="check"):
    return scenario_result_from_samples(
        name, kind, samples, counters={"ops": 2}, warmup=1,
        memory=_memory(allocs, stddev=stddev),
    )


class TestMemoryTelemetry:
    def test_run_scenario_collects_memory_section(self):
        alloc = _SteppingAlloc(step=512)
        result = run_scenario(
            _toy_scenario(),
            warmup=1,
            repetitions=3,
            clock=_counting_clock(0.5),
            monitor=_fake_monitor(alloc),
        )
        memory = result["memory"]
        assert memory["alloc_per_rep_bytes"] == [512, 512, 512]
        assert memory["alloc_peak_bytes"] == 512
        assert memory["alloc_median_bytes"] == 512.0
        assert memory["alloc_stddev_bytes"] == 0.0
        assert memory["peak_rss_bytes"] == 64 * 1048576
        assert memory["gc_collections"] == 0
        assert memory["gc_pause_seconds_total"] == 0.0

    def test_memory_true_owns_a_scenario_scoped_monitor(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        result = run_scenario(
            _toy_scenario(),
            warmup=0,
            repetitions=2,
            clock=_counting_clock(0.5),
            memory=True,
        )
        assert not tracemalloc.is_tracing()  # stopped on the way out
        memory = result["memory"]
        assert len(memory["alloc_per_rep_bytes"]) == 2
        assert all(s >= 0 for s in memory["alloc_per_rep_bytes"])
        assert memory["peak_rss_bytes"] > 0

    def test_golden_bench_memory_json(self):
        """The memory-bearing payload, byte for byte — additive-schema
        drift must be a conscious change to the golden file."""
        results = run_scenarios(
            [_toy_scenario()],
            warmup=1,
            repetitions=3,
            clock=_counting_clock(0.5),
            monitor=_fake_monitor(_SteppingAlloc(step=512)),
        )
        payload = _payload(results)
        validate_bench(payload)
        assert dumps_bench(payload) == MEMORY_GOLDEN.read_text(
            encoding="utf-8"
        )

    def test_memoryless_payload_still_validates(self):
        payload = _payload([_result("check/toy", [0.5, 0.5])])
        assert "memory" not in payload["scenarios"][0]
        assert validate_bench(payload) is payload

    def test_memory_section_violations_rejected(self):
        def with_memory(**overrides):
            result = _mem_result("check/toy", [0.5, 0.5], [100, 200])
            result["memory"].update(overrides)
            return _payload([result])

        with pytest.raises(BenchError, match="alloc_per_rep_bytes"):
            validate_bench(with_memory(alloc_per_rep_bytes="lots"))
        with pytest.raises(BenchError, match="alloc_peak_bytes"):
            validate_bench(with_memory(alloc_peak_bytes=-1))
        with pytest.raises(BenchError, match="alloc_median_bytes"):
            validate_bench(with_memory(alloc_median_bytes=None))
        with pytest.raises(BenchError, match="gc_collections"):
            validate_bench(with_memory(gc_collections=-2))
        with pytest.raises(BenchError, match="gc_pause_seconds_total"):
            validate_bench(with_memory(gc_pause_seconds_total=-0.5))
        with pytest.raises(BenchError, match="memory"):
            result = _mem_result("check/toy", [0.5], [100])
            result["memory"] = "big"
            validate_bench(_payload([result]))

    def test_unknown_future_schema_versions_rejected(self):
        """A payload from a *newer* repro must fail loudly, not
        half-parse: the reader names both versions."""
        good = _payload([_mem_result("check/toy", [0.5], [100])])
        for version in (BENCH_SCHEMA + 1, BENCH_SCHEMA + 7, "1", None):
            with pytest.raises(BenchError, match="unsupported bench schema"):
                validate_bench(dict(good, schema=version))

    def test_memory_round_trips_through_protocol_envelope(self):
        payload = _payload(
            [_mem_result("check/toy", [0.5, 0.5], [100, 200])]
        )
        envelope = protocol.bench_payload(payload)
        protocol.validate_bench_payload(envelope)
        decoded = json.loads(protocol.dumps(envelope))
        assert decoded["scenarios"][0]["memory"] == \
            payload["scenarios"][0]["memory"]

    def test_memory_round_trips_through_file(self, tmp_path):
        payload = _payload([_mem_result("check/toy", [0.5], [100])])
        path = write_bench(payload, tmp_path / "BENCH_mem.json")
        assert read_bench(path) == payload


class TestMemoryComparator:
    def test_identical_memory_is_within_noise_and_ok(self):
        payload = _payload(
            [_mem_result("check/toy", [1.0, 1.0], [1000, 1000])]
        )
        comparison = compare_benchmarks(payload, payload, 10.0)
        (row,) = comparison["memory_rows"]
        assert row["status"] == "within-noise"
        assert comparison["memory_regressions"] == []
        assert comparison["ok"]

    def test_tripled_alloc_median_fails_the_gate(self):
        old = _payload(
            [_mem_result("check/toy", [1.0, 1.0], [1000, 1000], stddev=10.0)]
        )
        new = _payload(
            [_mem_result("check/toy", [1.0, 1.0], [3000, 3000], stddev=10.0)]
        )
        comparison = compare_benchmarks(old, new, 25.0)
        (row,) = comparison["memory_rows"]
        assert row["status"] == "regression"
        assert row["delta_pct"] == pytest.approx(200.0)
        assert comparison["memory_regressions"] == ["check/toy"]
        assert not comparison["ok"]  # time rows alone were fine

    def test_halved_alloc_median_is_an_improvement(self):
        old = _payload(
            [_mem_result("check/toy", [1.0], [2000], stddev=10.0)]
        )
        new = _payload(
            [_mem_result("check/toy", [1.0], [1000], stddev=10.0)]
        )
        comparison = compare_benchmarks(old, new, 25.0)
        assert comparison["memory_improvements"] == ["check/toy"]
        assert comparison["ok"]  # improvements never fail the gate

    def test_shift_inside_byte_noise_envelope_is_noise(self):
        # +100% median shift, but the per-rep scatter swallows it.
        old = _payload(
            [_mem_result("check/toy", [1.0], [1000], stddev=800.0)]
        )
        new = _payload(
            [_mem_result("check/toy", [1.0], [2000], stddev=800.0)]
        )
        comparison = compare_benchmarks(old, new, 10.0)
        (row,) = comparison["memory_rows"]
        assert row["delta_pct"] == pytest.approx(100.0)
        assert row["status"] == "within-noise"
        assert comparison["ok"]

    def test_one_sided_memory_compares_time_only(self):
        """An old payload without a memory section gates on time alone —
        no error, no memory rows."""
        old = _payload([_result("check/toy", [1.0, 1.0])])
        new = _payload(
            [_mem_result("check/toy", [1.0, 1.0], [99999999])]
        )
        comparison = compare_benchmarks(old, new, 10.0)
        assert comparison["memory_rows"] == []
        assert comparison["ok"]
        # and symmetrically
        reverse = compare_benchmarks(new, old, 10.0)
        assert reverse["memory_rows"] == []
        assert reverse["ok"]

    def test_format_comparison_renders_memory_table_only_when_present(self):
        with_memory = compare_benchmarks(
            _payload([_mem_result("check/toy", [1.0], [1000])]),
            _payload([_mem_result("check/toy", [1.0], [1000])]),
            10.0,
        )
        text = format_comparison(with_memory)
        assert "memory status" in text
        assert "byte-noise envelope" in text

        time_only = compare_benchmarks(
            _payload([_result("check/toy", [1.0])]),
            _payload([_result("check/toy", [1.0])]),
            10.0,
        )
        assert "memory" not in format_comparison(time_only)

    def test_format_bench_table_memory_columns_are_conditional(self):
        from repro.obs.bench import format_bench_table

        plain = format_bench_table(_payload([_result("check/toy", [1.0])]))
        assert "alloc KiB" not in plain
        enriched = format_bench_table(
            _payload([_mem_result("check/toy", [1.0], [2048])])
        )
        assert "alloc KiB" in enriched and "rss MiB" in enriched


class TestMemoryCli:
    def test_mem_flag_collects_memory_and_writes_resources(
        self, tmp_path, capsys
    ):
        from repro.obs.resources import read_resources

        out = tmp_path / "bench.json"
        mem = tmp_path / "mem.json"
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "2", "--warmup", "0",
            "--output", str(out), "--mem", "--mem-json", str(mem),
        ]) == 0
        (scenario,) = read_bench(out)["scenarios"]
        memory = scenario["memory"]
        assert len(memory["alloc_per_rep_bytes"]) == 2
        assert memory["alloc_peak_bytes"] > 0
        assert memory["peak_rss_bytes"] > 0
        resources = read_resources(mem)
        names = [row["name"] for row in resources["sections"]]
        assert "checker.check" in names
        assert "resources written to" in capsys.readouterr().err

    def test_without_mem_flag_no_memory_section(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--scenario", "check/wind_sensor",
            "--repetitions", "1", "--warmup", "0", "--output", str(out),
        ]) == 0
        (scenario,) = read_bench(out)["scenarios"]
        assert "memory" not in scenario
