"""Sampling profiler: deterministic sampling, golden payload, the
NullProfiler overhead pin, and the --profile-json CLI surface."""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.profile import (
    DEFAULT_INTERVAL,
    MAX_STACK_DEPTH,
    NullProfiler,
    PROFILE_SCHEMA,
    ProfileError,
    SamplingProfiler,
    _stack_of,
    aggregate_profile,
    dumps_profile,
    format_profile_table,
    get_profiler,
    installed_profiler,
    profile_payload,
    read_profile,
    section,
    section_counts,
    set_profiler,
    validate_profile,
    write_profile,
)
from repro.obs.resources import (
    ResourceMonitor,
    get_resource_monitor,
    installed_resource_monitor,
)
from repro.obs.slot import NULL_SECTION

GOLDEN = Path(__file__).parent / "golden" / "profile.golden.json"

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


def _golden_samples() -> list[dict]:
    """Hand-built aggregates as the sampler would produce them: count
    descending, then section, then stack."""
    return [
        {
            "section": "interpreter.step",
            "stack": ["repro.cli.main", "repro.runtime.interpreter.run",
                      "repro.runtime.interpreter.eval"],
            "count": 5,
        },
        {
            "section": "checker.check",
            "stack": ["repro.cli.main", "repro.core.checker.run"],
            "count": 2,
        },
        {
            "section": None,
            "stack": ["repro.cli.main"],
            "count": 1,
        },
    ]


def _golden_payload() -> dict:
    return profile_payload(
        _golden_samples(),
        interval_seconds=0.005,
        duration_seconds=0.04,
        fingerprint=dict(PINNED_FINGERPRINT),
        created_utc=CREATED,
    )


def _probe_frame():
    """A real frame captured inside a recognizably named function."""
    import sys

    def golden_probe_leaf():
        return sys._getframe()

    return golden_probe_leaf()


class TestStackOf:
    def test_root_first_module_function_names(self):
        frame = _probe_frame()
        stack = _stack_of(frame)
        assert stack[-1] == "tests.obs.test_profile.golden_probe_leaf"
        assert stack[-2] == "tests.obs.test_profile._probe_frame"
        assert all("." in name for name in stack)

    def test_truncates_at_max_depth(self):
        frame = _probe_frame()
        assert len(_stack_of(frame, max_depth=2)) == 2
        assert len(_stack_of(frame)) <= MAX_STACK_DEPTH


class TestSampler:
    def _manual(self, frames=None):
        """A profiler driven by hand: no sampler thread, injected clock
        and frame supplier."""
        return SamplingProfiler(
            interval_seconds=0.005,
            clock=_counting_clock(0.5),
            frames=frames if frames is not None else lambda: {},
        )

    def test_section_labels_samples(self):
        tid = threading.get_ident()
        frame = _probe_frame()
        profiler = self._manual(frames=lambda: {tid: frame})
        with profiler.section("interpreter.step"):
            assert profiler.sample_now() == 1
            assert profiler.sample_now() == 1
        (sample,) = profiler.samples()
        assert sample["section"] == "interpreter.step"
        assert sample["count"] == 2
        assert sample["stack"][-1].endswith("golden_probe_leaf")

    def test_sections_nest_innermost_wins(self):
        tid = threading.get_ident()
        frame = _probe_frame()
        profiler = self._manual(frames=lambda: {tid: frame})
        with profiler.section("checker.check"):
            with profiler.section("infer.fixpoint"):
                profiler.sample_now()
            profiler.sample_now()
        sections = {s["section"] for s in profiler.samples()}
        assert sections == {"checker.check", "infer.fixpoint"}

    def test_sample_outside_sections_is_unattributed(self):
        tid = threading.get_ident()
        frame = _probe_frame()
        profiler = self._manual(frames=lambda: {tid: frame})
        with profiler.section("x"):
            pass  # registers the thread, then leaves the section
        profiler.sample_now()
        (sample,) = profiler.samples()
        assert sample["section"] is None

    def test_unregistered_threads_are_not_sampled(self):
        frame = _probe_frame()
        profiler = self._manual(frames=lambda: {99999: frame})
        assert profiler.sample_now() == 0

    def test_payload_duration_from_injected_clock(self):
        profiler = self._manual()
        profiler.start()
        profiler.stop()
        payload = profiler.payload(
            fingerprint=dict(PINNED_FINGERPRINT), created_utc=CREATED
        )
        # counting clock: start reads 0.0, stop reads 0.5
        assert payload["duration_seconds"] == 0.5
        assert payload["sample_count"] == 0
        validate_profile(payload)

    def test_live_thread_sampling_smoke(self):
        """A real sampler thread over a busy loop records samples and
        attributes them to the open section."""
        profiler = SamplingProfiler(interval_seconds=0.001)
        deadline = time.monotonic() + 0.25
        with profiler:
            with profiler.section("interpreter.step"):
                while time.monotonic() < deadline and not profiler.sample_count:
                    sum(range(1000))
        assert profiler.sample_count > 0
        counts = section_counts(profiler.payload())
        assert "interpreter.step" in counts

    def test_bad_interval_rejected(self):
        with pytest.raises(ProfileError, match="interval_seconds"):
            SamplingProfiler(interval_seconds=0)

    def test_sample_survives_concurrent_section_pop(self):
        """The profiled thread pops its section stack without the lock,
        so the pop can land between the sampler's truthiness check and
        the ``[-1]`` read; the sample must come out unattributed rather
        than raise and kill the sampler thread."""

        class PoppedUnderneath(list):
            # Truthy like a one-entry stack, but by the time the
            # sampler indexes it the owning thread has emptied it.
            def __getitem__(self, index):
                raise IndexError("pop won the race")

        tid = threading.get_ident()
        frame = _probe_frame()
        profiler = self._manual(frames=lambda: {tid: frame})
        with profiler._lock:
            profiler._targets.add(tid)
            profiler._sections[tid] = PoppedUnderneath(["interpreter.step"])
        assert profiler.sample_now() == 1
        (sample,) = profiler.samples()
        assert sample["section"] is None


class TestNullProfiler:
    def test_default_profiler_is_null(self):
        assert isinstance(get_profiler(), NullProfiler)
        assert not get_profiler().enabled

    def test_installed_profiler_restores_previous(self):
        profiler = SamplingProfiler(
            interval_seconds=0.005, frames=lambda: {}
        )
        before = get_profiler()
        with installed_profiler(profiler):
            assert get_profiler() is profiler
        assert get_profiler() is before

    def test_set_profiler_none_restores_null(self):
        previous = set_profiler(
            SamplingProfiler(interval_seconds=0.005, frames=lambda: {})
        )
        set_profiler(None)
        assert isinstance(get_profiler(), NullProfiler)
        assert isinstance(previous, NullProfiler)

    def test_noop_overhead_is_negligible(self):
        """The pin the CI profile-smoke step relies on: 100k disabled
        sections must stay under the same bound as the null tracer —
        the anchors sit inside the interpreter's event loop."""
        profiler = get_profiler()
        assert isinstance(profiler, NullProfiler)
        start = time.perf_counter()
        for _ in range(100_000):
            with profiler.section("interpreter.step"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"no-op section overhead too high: {elapsed:.3f}s"

    def test_anchor_overhead_is_negligible(self):
        """The same pin for the anchor the checker, the inference
        fixpoint and the event loop open: with the profiler and the
        resource monitor both off it is the shared no-op."""
        assert not get_profiler().enabled
        assert not get_resource_monitor().enabled
        assert section("interpreter.step") is NULL_SECTION
        start = time.perf_counter()
        for _ in range(100_000):
            with section("interpreter.step"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"no-op anchor overhead too high: {elapsed:.3f}s"


class TestSectionAnchor:
    """``section(name)`` enters whichever of the profiler and the
    resource monitor is installed."""

    def _profiler(self):
        tid = threading.get_ident()
        frame = _probe_frame()
        return SamplingProfiler(
            interval_seconds=0.005,
            clock=_counting_clock(0.5),
            frames=lambda: {tid: frame},
        )

    def _monitor(self):
        return ResourceMonitor(
            clock=_counting_clock(0.5),
            rss_supplier=lambda: None,
            trace_allocations=False,
            track_gc=False,
        )

    def test_profiler_only(self):
        profiler = self._profiler()
        with installed_profiler(profiler):
            with section("interpreter.step"):
                assert profiler.sample_now() == 1
        (sample,) = profiler.samples()
        assert sample["section"] == "interpreter.step"

    def test_monitor_only(self):
        monitor = self._monitor()
        with installed_resource_monitor(monitor):
            with section("checker.check"):
                pass
        assert monitor.sections() == [
            {"name": "checker.check", "count": 1, "net_alloc_bytes": 0},
        ]

    def test_both_on(self):
        profiler = self._profiler()
        monitor = self._monitor()
        with installed_profiler(profiler), installed_resource_monitor(
            monitor
        ):
            with section("infer.fixpoint"):
                assert profiler.sample_now() == 1
        (sample,) = profiler.samples()
        assert sample["section"] == "infer.fixpoint"
        assert sample["count"] == 1
        assert monitor.sections() == [
            {"name": "infer.fixpoint", "count": 1, "net_alloc_bytes": 0},
        ]

    def test_both_on_exits_both_when_the_block_raises(self):
        profiler = self._profiler()
        monitor = self._monitor()
        with installed_profiler(profiler), installed_resource_monitor(
            monitor
        ):
            with pytest.raises(RuntimeError):
                with section("infer.fixpoint"):
                    raise RuntimeError("boom")
            profiler.sample_now()
        (sample,) = profiler.samples()
        assert sample["section"] is None
        assert monitor.sections()[0]["count"] == 1


class TestSchema:
    def test_golden_profile_json(self):
        """The full payload, byte for byte — schema drift must be a
        conscious change to the golden file and PROFILE_SCHEMA."""
        assert dumps_profile(_golden_payload()) == GOLDEN.read_text(
            encoding="utf-8"
        )

    def test_round_trip(self, tmp_path):
        payload = _golden_payload()
        path = write_profile(payload, tmp_path / "PROFILE_test.json")
        assert read_profile(path) == payload

    def test_default_filename_uses_utc_stamp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_profile(_golden_payload())
        assert path.name == "PROFILE_20260101T000000Z.json"

    def test_empty_sample_list_is_valid(self):
        payload = profile_payload(
            [], interval_seconds=DEFAULT_INTERVAL, duration_seconds=0.0,
            fingerprint=dict(PINNED_FINGERPRINT), created_utc=CREATED,
        )
        assert validate_profile(payload) is payload

    def test_schema_violations_rejected(self):
        good = _golden_payload()
        assert validate_profile(good) is good
        with pytest.raises(ProfileError, match="unsupported profile schema"):
            validate_profile(dict(good, schema=PROFILE_SCHEMA + 1))
        with pytest.raises(ProfileError, match="kind"):
            validate_profile(dict(good, kind="bench"))
        with pytest.raises(ProfileError, match="fingerprint missing"):
            validate_profile(dict(good, fingerprint={"python": "3"}))
        with pytest.raises(ProfileError, match="sample_count"):
            validate_profile(dict(good, sample_count=99))
        bad_stack = _golden_payload()
        bad_stack["samples"][0]["stack"] = [""]
        with pytest.raises(ProfileError, match="stack"):
            validate_profile(bad_stack)
        bad_count = _golden_payload()
        bad_count["samples"][0]["count"] = 0
        with pytest.raises(ProfileError, match="positive int"):
            validate_profile(bad_count)

    def test_read_profile_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ProfileError, match="invalid JSON"):
            read_profile(path)


class TestAggregation:
    def test_self_and_total_counts(self):
        rows = aggregate_profile(_golden_payload())
        by_name = {row["function"]: row for row in rows}
        # leaf of the 5-count stack: self == total == 5
        leaf = by_name["repro.runtime.interpreter.eval"]
        assert leaf["self_count"] == 5 and leaf["total_count"] == 5
        # root frame appears on every stack, innermost only once
        root = by_name["repro.cli.main"]
        assert root["self_count"] == 1
        assert root["total_count"] == 8
        # ranked by self count descending
        assert rows[0]["function"] == "repro.runtime.interpreter.eval"

    def test_section_counts(self):
        counts = section_counts(_golden_payload())
        assert counts == {
            "interpreter.step": 5,
            "checker.check": 2,
            "<unattributed>": 1,
        }

    def test_format_table_is_deterministic(self):
        payload = _golden_payload()
        first = format_profile_table(payload)
        assert first == format_profile_table(payload)
        assert "interpreter.step" in first
        assert "repro.runtime.interpreter.eval" in first
        assert "// 8 samples" in first


class TestProfileCli:
    def test_check_profile_json_writes_valid_payload(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main([
            "check", "src/repro/apps/programs/wind_sensor.sj",
            "--profile-json", str(out),
        ]) == 0
        assert "profile written to" in capsys.readouterr().err
        payload = read_profile(out)
        assert payload["schema"] == PROFILE_SCHEMA

    def test_bench_profile_json_composes(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main([
            "bench", "--scenario", "interpreter-step/wind_sensor",
            "--warmup", "0", "--repetitions", "1",
            "--output", str(tmp_path / "bench.json"),
            "--profile-json", str(out),
            "--profile-interval", "0.001",
        ]) == 0
        read_profile(out)  # must validate, sampled or not

    @pytest.mark.parametrize("interval", ["0", "-0.5"])
    def test_non_positive_interval_is_a_clean_cli_error(
        self, tmp_path, capsys, interval
    ):
        """An explicit ``--profile-interval 0`` must be rejected, not
        silently swapped for the default; negatives get the same clean
        ``error:`` + exit 2 instead of a traceback."""
        out = tmp_path / "p.json"
        assert main([
            "check", "src/repro/apps/programs/wind_sensor.sj",
            "--profile-json", str(out),
            "--profile-interval", interval,
        ]) == 2
        assert "error: interval_seconds must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_profiler_not_leaked_after_cli(self, tmp_path):
        main([
            "check", "src/repro/apps/programs/wind_sensor.sj",
            "--profile-json", str(tmp_path / "p.json"),
        ])
        assert isinstance(get_profiler(), NullProfiler)
