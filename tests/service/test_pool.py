"""Batch checking: verdicts, timings, cache integration, process fan-out."""

from __future__ import annotations

import multiprocessing
import os
import signal
from pathlib import Path

import pytest

import repro.core.checker
from repro.core.checker import timed_check
from repro.service.cache import ResultCache
from repro.service.pool import (
    ERROR,
    FAIL,
    FRONT_END_ERROR,
    PASS,
    TIMEOUT,
    BatchResult,
    CheckerPool,
    check_source_payload,
)


class TestTimedCheck:
    def test_reports_per_pass_timings(self, wind_source):
        report, timings = timed_check(wind_source)
        assert report.self_stabilizing
        assert set(timings) == {"parse", "resolve", "typecheck", "check"}
        assert all(t >= 0.0 for t in timings.values())

    def test_payload_for_front_end_error(self):
        payload = check_source_payload("class {", file="bad.sj")
        assert payload["kind"] == "error"
        assert payload["error"] == "front-end"
        assert payload["file"] == "bad.sj"


class TestBatchVerdicts:
    def test_all_bundled_apps_pass_with_timings(self, app_files):
        """Acceptance criterion: batch over the bundled programs yields a
        per-file verdict and timing for every app."""
        results = CheckerPool(max_workers=1).check_paths(app_files)
        assert [r.path for r in results] == [str(p) for p in app_files]
        assert all(r.verdict == PASS for r in results)
        assert all(r.elapsed_seconds > 0.0 for r in results)
        assert all(r.payload["timings"] for r in results)

    def test_failing_program(self, tmp_path, broken_source):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        (result,) = CheckerPool().check_paths([bad])
        assert result.verdict == FAIL
        assert result.error_count > 0
        assert not result.ok

    def test_front_end_error(self, tmp_path):
        bad = tmp_path / "syntax.sj"
        bad.write_text("class {")
        (result,) = CheckerPool().check_paths([bad])
        assert result.verdict == FRONT_END_ERROR
        assert result.message

    def test_unreadable_file(self, tmp_path):
        (result,) = CheckerPool().check_paths([tmp_path / "missing.sj"])
        assert result.verdict == ERROR

    def test_results_keep_input_order(self, tmp_path, app_files, broken_source):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        mixed = [app_files[0], bad, app_files[1]]
        results = CheckerPool().check_paths(mixed)
        assert [r.verdict for r in results] == [PASS, FAIL, PASS]

    def test_to_dict_round_trip(self, app_files):
        (result,) = CheckerPool().check_paths(app_files[:1])
        entry = result.to_dict()
        assert entry["verdict"] == PASS
        assert entry["payload"]["kind"] == "check"


class TestCacheIntegration:
    def test_second_run_is_served_from_cache(self, app_files):
        cache = ResultCache()
        pool = CheckerPool(max_workers=1, cache=cache)
        first = pool.check_paths(app_files)
        assert not any(r.cached for r in first)
        second = pool.check_paths(app_files)
        assert all(r.cached for r in second)
        assert all(r.verdict == PASS for r in second)
        assert pool.stats()["cache"]["memory_hits"] == len(app_files)

    def test_failing_verdict_is_cached_too(self, tmp_path, broken_source):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        pool = CheckerPool(cache=ResultCache())
        (first,) = pool.check_paths([bad])
        (second,) = pool.check_paths([bad])
        assert first.verdict == FAIL and second.verdict == FAIL
        assert second.cached
        assert second.error_count == first.error_count


class TestProcessPool:
    def test_parallel_matches_serial(self, app_files, tmp_path, broken_source):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        paths = list(app_files) + [bad]
        serial = CheckerPool(max_workers=1).check_paths(paths)
        parallel = CheckerPool(max_workers=2).check_paths(paths)
        assert [r.verdict for r in parallel] == [r.verdict for r in serial]
        assert [r.path for r in parallel] == [r.path for r in serial]

    def test_parallel_feeds_the_parent_cache(self, app_files):
        cache = ResultCache()
        pool = CheckerPool(max_workers=2, cache=cache)
        pool.check_paths(app_files)
        warm = pool.check_paths(app_files)
        assert all(r.cached for r in warm)


class TestSingleSource:
    def test_check_source(self, wind_source):
        result = CheckerPool().check_source(wind_source, file="wind.sj")
        assert result.verdict == PASS
        assert result.payload["file"] == "wind.sj"

    def test_check_source_uses_cache(self, wind_source):
        pool = CheckerPool(cache=ResultCache())
        assert not pool.check_source(wind_source).cached
        assert pool.check_source(wind_source).cached


#: The first line of the one file in a batch whose check is faulted.
VICTIM = "// fault victim\n"


def with_victim(tmp_path, files) -> tuple[list, Path]:
    """``files`` with a marked copy of the first inserted after it."""
    victim = tmp_path / "victim.sj"
    victim.write_text(VICTIM + Path(files[0]).read_text())
    return [files[0], victim, *files[1:]], victim


def fault_victim(monkeypatch, fault) -> None:
    """Run ``fault`` at the start of the victim's check.  The pool's
    task imports ``timed_check`` at call time, so workers forked after
    this patch inherit it (the fork start method)."""
    real = repro.core.checker.timed_check

    def timed_check(source):
        if source.startswith(VICTIM):
            fault()
        return real(source)

    monkeypatch.setattr(repro.core.checker, "timed_check", timed_check)


class TestFaultIsolation:
    """One file's fault costs that file, not the batch."""

    def test_killed_worker_fails_only_files_in_flight(
        self, monkeypatch, tmp_path, app_files, broken_source
    ):
        bad = tmp_path / "bad.sj"
        bad.write_text(broken_source)
        files, victim = with_victim(tmp_path, [*app_files, bad])
        real = {r.path: r.verdict for r in CheckerPool().check_paths(files)}
        test_process = os.getpid()

        def crash():
            assert os.getpid() != test_process, "check ran in-process"
            os.kill(os.getpid(), signal.SIGKILL)

        fault_victim(monkeypatch, crash)
        results = CheckerPool(max_workers=2).check_paths(files)
        wrong = {
            r.path: r.verdict for r in results if r.verdict != real[r.path]
        }
        assert wrong.pop(str(victim)) == ERROR
        # A file in flight beside the victim re-runs alone and passes.
        assert wrong == {}

    def test_hung_check_times_out_without_waiting_for_it(
        self, monkeypatch, tmp_path, app_files
    ):
        files, victim = with_victim(tmp_path, app_files[:3])
        release = multiprocessing.Event()
        finished = multiprocessing.Event()

        def hang():
            release.wait(10.0)
            finished.set()

        fault_victim(monkeypatch, hang)
        try:
            results = CheckerPool(
                max_workers=2, task_timeout=0.5
            ).check_paths(files)
            returned_first = not finished.is_set()
        finally:
            release.set()
        verdicts = {r.path: r.verdict for r in results}
        assert verdicts.pop(str(victim)) == TIMEOUT
        assert set(verdicts.values()) == {PASS}
        assert returned_first, "check_paths waited for the hung worker"
        assert finished.wait(10.0), "the released worker never finished"

    def test_raising_check_fails_only_its_file(
        self, monkeypatch, tmp_path, app_files
    ):
        files, victim = with_victim(tmp_path, app_files[:3])

        def recurse():
            raise RecursionError("maximum recursion depth exceeded")

        fault_victim(monkeypatch, recurse)
        results = CheckerPool(max_workers=1).check_paths(files)
        verdicts = {r.path: r.verdict for r in results}
        assert verdicts.pop(str(victim)) == ERROR
        assert set(verdicts.values()) == {PASS}
