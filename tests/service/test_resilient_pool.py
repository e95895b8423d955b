"""ResilientPool: the fan-out layer must survive worker crashes,
enforce wall-clock timeouts, and never silently drop a task."""

from __future__ import annotations

import concurrent.futures
import os
import random
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.service.pool import ResilientPool, TaskFailure


# Workers must be module-level (picklable by qualified name).

def _double(payload: dict) -> dict:
    return {"value": payload["value"] * 2}


def _sleepy(payload: dict) -> dict:
    time.sleep(payload["seconds"])
    return {"slept": True}


def _raise(payload: dict) -> dict:
    raise ValueError(payload["message"])


def _crash_once(payload: dict) -> dict:
    """SIGKILL the worker on first sight of the marker-less payload;
    succeed on the retry (the marker file survives the crash)."""
    marker = Path(payload["marker"])
    if not marker.exists():
        marker.write_text("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": payload["value"], "recovered": True}


def _crash_always(payload: dict) -> dict:
    os.kill(os.getpid(), signal.SIGKILL)
    return {}  # pragma: no cover


def collect(pool: ResilientPool, fn, payloads) -> dict:
    return dict(pool.run(fn, payloads))


class TestInlineMode:
    def test_results_in_order(self):
        pool = ResilientPool(max_workers=1)
        results = list(pool.run(_double, [{"value": v} for v in range(4)]))
        assert results == [(i, {"value": i * 2}) for i in range(4)]

    def test_exception_becomes_failure_record(self):
        pool = ResilientPool(max_workers=1)
        outcomes = collect(pool, _raise, [{"message": "boom"}])
        failure = outcomes[0]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "error"
        assert "boom" in failure.message


class TestParallelHappyPath:
    def test_every_payload_yields_exactly_once(self):
        pool = ResilientPool(max_workers=2)
        payloads = [{"value": v} for v in range(6)]
        outcomes = collect(pool, _double, payloads)
        assert sorted(outcomes) == list(range(6))
        for index, result in outcomes.items():
            assert result == {"value": index * 2}


class TestWorkerCrash:
    def test_pool_rebuilds_after_sigkilled_worker(self, tmp_path):
        """Acceptance path: a SIGKILLed worker breaks the process pool;
        the pool is rebuilt and the shard retried, and every other task
        still completes."""
        sleeps: list[float] = []
        pool = ResilientPool(max_workers=2, max_retries=2,
                             sleep=sleeps.append)
        payloads = [{"value": 0, "marker": str(tmp_path / "m0")}]
        payloads += [{"value": v} for v in (1, 2, 3)]
        outcomes = collect(pool, _crash_once_or_double, payloads)
        assert outcomes[0] == {"value": 0, "recovered": True}
        for index in (1, 2, 3):
            assert outcomes[index] == {"value": index * 2}
        assert sleeps, "a rebuild round should have backed off first"

    def test_persistent_crasher_is_reported_not_dropped(self, tmp_path):
        sleeps: list[float] = []
        pool = ResilientPool(max_workers=2, max_retries=1,
                             sleep=sleeps.append)
        payloads = [{"crash": True}] + [{"value": v} for v in (1, 2)]
        outcomes = collect(pool, _crash_always_or_double, payloads)
        failure = outcomes[0]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "worker-crash"
        assert failure.attempts == 2  # initial try + one retry
        # the bystander tasks were requeued, not charged, and completed
        assert outcomes[1] == {"value": 2}
        assert outcomes[2] == {"value": 4}

    def test_crash_is_charged_to_the_crasher_not_its_neighbour(self):
        """The crasher is submitted second, so the task in flight
        beside it is the first unfinished one when the pool breaks."""
        pool = ResilientPool(max_workers=2, max_retries=2,
                             sleep=lambda seconds: None)
        outcomes = collect(
            pool, _sleepy_or_crash, [{"seconds": 0.3}, {"crash": True}]
        )
        assert outcomes[0] == {"slept": True}
        assert pool.attempts_of(0) == 1
        failure = outcomes[1]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "worker-crash"
        assert failure.attempts == 3  # max_retries + 1 charged runs


def _pools_breaking_during_submission() -> type:
    """A process-pool class whose first pool loses its first task's
    worker before the second task is submitted; later pools run every
    task."""
    made = []

    class Pool:
        def __init__(self, max_workers: int) -> None:
            made.append(self)
            self.first = len(made) == 1
            self.submitted = 0

        def submit(self, fn, payload):
            self.submitted += 1
            future = concurrent.futures.Future()
            if not self.first:
                future.set_result(fn(payload))
            elif self.submitted == 1:
                future.set_exception(BrokenProcessPool("worker died"))
            else:
                raise BrokenProcessPool("worker died")
            return future

        def shutdown(self, wait: bool, cancel_futures: bool) -> None:
            pass

    return Pool


class TestSubmissionRace:
    def test_a_pool_broken_mid_submission_requeues_the_rest(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            _pools_breaking_during_submission(),
        )
        pool = ResilientPool(max_workers=2, max_retries=1, sleep=lambda s: None)
        outcomes = collect(pool, _double, [{"value": v} for v in range(3)])
        assert outcomes == {i: {"value": i * 2} for i in range(3)}
        assert pool.attempts_of(0) == 2  # charged for the crash
        assert pool.attempts_of(1) == pool.attempts_of(2) == 1


def _crash_once_or_double(payload: dict) -> dict:
    if "marker" in payload:
        return _crash_once(payload)
    return _double(payload)


def _crash_always_or_double(payload: dict) -> dict:
    if payload.get("crash"):
        return _crash_always(payload)
    return _double(payload)


def _sleepy_or_crash(payload: dict) -> dict:
    if payload.get("crash"):
        return _crash_always(payload)
    return _sleepy(payload)


class TestTimeout:
    def test_slow_task_fails_with_timeout(self):
        sleeps: list[float] = []
        pool = ResilientPool(max_workers=2, task_timeout=0.2,
                             max_retries=0, sleep=sleeps.append)
        # the abandoned worker finishes its nap in the background; keep
        # it short so interpreter exit (which joins workers) stays fast
        outcomes = collect(
            pool, _sleepy_or_double,
            [{"seconds": 3.0}, {"value": 1}],
        )
        failure = outcomes[0]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "timeout"
        assert outcomes[1] == {"value": 2}


def _sleepy_or_double(payload: dict) -> dict:
    if "seconds" in payload:
        return _sleepy(payload)
    return _double(payload)


class TestBackoff:
    def test_backoff_has_decorrelated_jitter_within_bounds(self):
        """Every delay lands in [base, cap]; the draw window grows from
        the *previous* delay (decorrelated jitter), so consecutive
        retries desynchronize instead of marching in lockstep."""
        pool = ResilientPool(
            backoff_base=0.25, backoff_cap=1.0, rng=random.Random(7)
        )
        delays = [pool._next_backoff() for _ in range(8)]
        assert all(0.25 <= d <= 1.0 for d in delays)
        # With rate-limited uniform draws the schedule is not constant.
        assert len(set(delays)) > 1

    def test_backoff_schedule_is_reproducible_under_a_seeded_rng(self):
        def schedule(seed):
            pool = ResilientPool(
                backoff_base=0.25, backoff_cap=4.0, rng=random.Random(seed)
            )
            return [pool._next_backoff() for _ in range(6)]

        assert schedule(42) == schedule(42)
        assert schedule(42) != schedule(43)

    def test_backoff_first_delay_draws_from_base_window(self):
        """The first retry draws from [base, 3*base] — never below the
        base, never an instant stampede."""
        for seed in range(20):
            pool = ResilientPool(
                backoff_base=0.5, backoff_cap=10.0, rng=random.Random(seed)
            )
            first = pool._next_backoff()
            assert 0.5 <= first <= 1.5

    def test_backoff_resets_between_runs(self):
        """run() starts each payload batch from a fresh delay window, so
        one bad round does not inflate the next run's first retry."""
        pool = ResilientPool(
            backoff_base=0.25, backoff_cap=1.0, rng=random.Random(1)
        )
        for _ in range(6):
            pool._next_backoff()
        assert pool._delay > 0.0
        list(pool.run(_double, [{"value": 1}]))
        assert pool._delay == 0.0
