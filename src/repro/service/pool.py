"""Batch checking and the one process fan-out under it.

:class:`ResilientPool` runs a picklable function over many payloads on
``concurrent.futures.ProcessPoolExecutor`` workers and survives the
faults it meets.  Campaign shards and :class:`CheckerPool`'s cache
misses both run through it.

:class:`CheckerPool` reads each ``.sj`` file and looks it up in the
shared :class:`~repro.service.cache.ResultCache` in the parent; only
misses go to the pool, each as the source text the parent read, and
their reports are written back through the cache, so a warm batch run
touches no worker at all.  Each miss gets one attempt: a check that
exceeds the timeout reads ``timeout``, one that raises reads ``error``,
and a killed worker fails only the file that killed it.

With ``max_workers=1`` both degrade to plain in-process execution: no
subprocesses, no pickling, no timeout enforcement — the mode used by
tests, coverage runs, and platforms without ``fork``.

Workers return protocol payloads (plain dicts), not checker objects, so
the wire format is exercised on every parallel run and nothing
unpicklable crosses the process boundary.
"""

from __future__ import annotations

import concurrent.futures
import random
import time
from concurrent.futures.process import EXTRA_QUEUED_CALLS, BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.obs import MetricsRegistry
from repro.lang import FRONT_END_ERRORS
from repro.service import protocol

if TYPE_CHECKING:
    from repro.service.cache import ResultCache

#: Verdicts a batch item can end with.
PASS = "pass"
FAIL = "fail"
FRONT_END_ERROR = "front-end-error"
TIMEOUT = "timeout"
ERROR = "error"


def check_source_payload(source: str, *, file: Optional[str] = None) -> dict:
    """Check one source and return a protocol payload (``check`` on
    success, ``error`` on front-end failure).  Pool workers run it
    (through :func:`_check_task`), so it returns plain dicts.  The
    checker is imported here, not at module level, so campaigns, which
    fan out through :class:`ResilientPool`, never load it."""
    from repro.core.checker import timed_check

    start = time.perf_counter()
    try:
        report, timings = timed_check(source)
    except FRONT_END_ERRORS as exc:
        return protocol.error_payload(str(exc), file=file)
    return protocol.check_payload(
        report,
        file=file,
        elapsed_seconds=time.perf_counter() - start,
        timings=timings,
    )


def _check_task(task: dict) -> dict:
    """The :class:`CheckerPool` task: check the source the parent read."""
    return check_source_payload(task["source"], file=task["file"])


@dataclass
class TaskFailure:
    """A task the :class:`ResilientPool` gave up on.

    ``reason`` is ``timeout`` (wall clock exceeded), ``worker-crash``
    (the process pool broke underneath the task) or ``error`` (the task
    function raised); ``attempts`` counts how many times it ran.
    """

    reason: str
    message: str
    attempts: int


@dataclass
class ResilientPool:
    """Generic process fan-out that survives the faults it provokes.

    Runs a picklable module-level function over a sequence of payloads
    with a per-task wall-clock timeout.  A worker crash
    (:class:`BrokenProcessPool` — e.g. a SIGKILLed worker) rebuilds the
    pool and retries with capped, decorrelated-jitter exponential
    backoff.  The crash is charged to the task that caused it: when it
    leaves several tasks unfinished, those that may have been in flight
    re-run one at a time on a one-worker pool first, so a task running
    beside a crasher is never charged.  A timeout is settled the same
    way: the task that timed out is charged, the tasks still running
    beside it get one more ``task_timeout`` to finish, and those still
    unfinished re-run uncharged on a fresh pool.  Such a task may also
    finish on the abandoned pool, so it can run twice: tasks must be
    idempotent (campaign shards and checks are; results are stored by
    the parent).  Tasks that keep failing are reported as
    :class:`TaskFailure`, never silently dropped.
    Fault-injection campaigns fan their shards out through this.

    Every source of nondeterminism is injectable: ``sleep`` (tests
    record the schedule instead of waiting), ``rng`` (a seeded
    ``random.Random`` makes the jitter schedule byte-reproducible) and
    ``clock`` (retry-round timestamps).  A campaign seeds ``rng`` from
    its own seed, so two runs of the same campaign back off
    identically.

    ``max_workers <= 1`` degrades to plain in-process execution (no
    subprocesses, no timeout enforcement), the mode used by tests.
    """

    max_workers: int = 1
    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 4.0
    #: Injection point for tests; production code sleeps for real.
    sleep: Callable[[float], None] = time.sleep
    #: Jitter source; seed it (``random.Random(seed)``) to pin the
    #: backoff schedule exactly.
    rng: random.Random = field(default_factory=random.Random)
    #: Monotonic clock for retry-round timing (injectable for tests).
    clock: Callable[[], float] = time.monotonic
    _delay: float = field(default=0.0, init=False)
    #: Failure counts per payload index for the *current* :meth:`run`;
    #: read through :meth:`attempts_of` as results stream out.
    _attempts: dict = field(default_factory=dict)

    def attempts_of(self, index: int) -> int:
        """How many times payload ``index`` has run so far (≥ 1 once its
        result has been yielded).  Valid for the most recent / ongoing
        :meth:`run`; campaigns persist this into their manifest."""
        return self._attempts.get(index, 0) + 1

    def run(
        self, fn: Callable[[dict], dict], payloads: Sequence[dict]
    ) -> Iterator[tuple[int, dict | TaskFailure]]:
        """Yield ``(payload_index, result_or_failure)`` as tasks finish.

        Results stream out as soon as each task settles, so callers can
        checkpoint incrementally; every payload yields exactly once.
        """
        self._attempts = {}
        self._delay = 0.0
        if self.max_workers <= 1:
            yield from self._run_inline(fn, payloads)
            return
        self._attempts.update({index: 0 for index in range(len(payloads))})
        pending = list(range(len(payloads)))
        # Tasks a worker death may be down to, re-run one at a time.
        suspects: list[int] = []
        troubled = False
        while pending or suspects:
            if troubled:
                self.sleep(self._next_backoff())
            if suspects:
                batch, workers = [suspects.pop(0)], 1
            else:
                batch, pending, workers = pending, [], self.max_workers
            troubled = yield from self._round(
                fn, payloads, batch, workers, pending, suspects
            )

    def _round(
        self,
        fn: Callable[[dict], dict],
        payloads: Sequence[dict],
        batch: list[int],
        workers: int,
        pending: list[int],
        suspects: list[int],
    ) -> Iterator[tuple[int, dict | TaskFailure]]:
        """Run ``batch`` on a fresh pool of ``workers`` processes,
        yielding what settles and requeueing the rest; returns whether
        any task failed."""
        # A suspect's retry stays on the one-at-a-time queue.
        retry = suspects if workers == 1 else pending
        troubled = False
        executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        try:
            futures = []
            for position, index in enumerate(batch):
                try:
                    future = executor.submit(fn, payloads[index])
                    futures.append((index, future))
                except BrokenProcessPool:
                    # A worker died while the batch was still being
                    # submitted: these tasks never ran, so requeue
                    # them without charging a retry.
                    retry.extend(batch[position:])
                    troubled = True
                    break
            for position, (index, future) in enumerate(futures):
                try:
                    yield index, future.result(timeout=self.task_timeout)
                    continue
                except concurrent.futures.TimeoutError:
                    future.cancel()
                    yield from self._fail(
                        index, retry, "timeout",
                        f"task exceeded {self.task_timeout:.1f}s",
                    )
                    yield from self._settle_timeout(futures[position + 1:], retry)
                    return True
                except BrokenProcessPool as exc:
                    yield from self._settle_break(
                        futures[position:], retry, pending, suspects,
                        str(exc) or "worker process died",
                    )
                    return True
                except Exception as exc:
                    troubled = True
                    yield from self._fail(index, retry, "error", str(exc))
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return troubled

    def _settle_timeout(
        self,
        futures: list[tuple[int, concurrent.futures.Future]],
        retry: list[int],
    ) -> Iterator[tuple[int, dict | TaskFailure]]:
        """Settle the ``futures`` submitted after one that timed out.  A
        task's timeout runs only while the parent waits on it, so a task
        still unfinished may never have had a worker.  The ``futures``
        get one more ``task_timeout`` together: those running beside the
        hung task finish here and yield, and those still unfinished
        requeue uncharged, to run on a fresh pool."""
        concurrent.futures.wait(
            [future for _, future in futures], timeout=self.task_timeout
        )
        for index, future in futures:
            if not future.done():
                retry.append(index)
                continue
            error = future.exception()
            if error is None:
                yield index, future.result()
            elif isinstance(error, BrokenProcessPool):
                retry.append(index)
            else:
                yield from self._fail(index, retry, "error", str(error))

    def _settle_break(
        self,
        futures: list[tuple[int, concurrent.futures.Future]],
        retry: list[int],
        pending: list[int],
        suspects: list[int],
        message: str,
    ) -> Iterator[tuple[int, dict | TaskFailure]]:
        """Settle a broken pool's ``futures``, the first of which raised
        the break: those that finished yield, and the break is charged
        to the one unfinished task.  With several unfinished, no one is
        charged yet.  Workers take tasks in submission order, so the one
        a dead worker was running is among the first ``max_workers``
        unfinished; those and ``EXTRA_QUEUED_CALLS`` more, for a result
        the break overtook, re-run one at a time, where a break names
        its task.  The rest are requeued."""
        unfinished = []
        for index, future in futures:
            # Waits only while the broken pool fails its pending futures.
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                unfinished.append(index)
            elif error is None:
                yield index, future.result()
            else:
                yield from self._fail(index, retry, "error", str(error))
        if len(unfinished) == 1:
            yield from self._fail(
                unfinished[0], retry, "worker-crash", message
            )
            return
        window = self.max_workers + EXTRA_QUEUED_CALLS
        suspects.extend(unfinished[:window])
        pending.extend(unfinished[window:])

    def _run_inline(
        self, fn: Callable[[dict], dict], payloads: Sequence[dict]
    ) -> Iterator[tuple[int, dict | TaskFailure]]:
        for index, payload in enumerate(payloads):
            try:
                yield index, fn(payload)
            except Exception as exc:
                yield index, TaskFailure(
                    reason="error", message=str(exc), attempts=1
                )

    def _fail(
        self, index: int, queue: list[int], reason: str, message: str
    ) -> Iterator[tuple[int, TaskFailure]]:
        """Charge task ``index`` one attempt and requeue it on
        ``queue``, or give up and yield its failure record."""
        self._attempts[index] += 1
        if self._attempts[index] <= self.max_retries:
            queue.append(index)
        else:
            yield index, TaskFailure(
                reason=reason, message=message, attempts=self._attempts[index]
            )

    def _next_backoff(self) -> float:
        """Capped exponential backoff with decorrelated jitter: each
        delay is drawn uniformly from ``[base, 3 × previous]`` and
        capped, so retry rounds desynchronize (a fleet of crashed
        shards does not stampede the rebuilt pool in lockstep) while
        the expectation still grows geometrically toward the cap."""
        previous = self._delay if self._delay > 0.0 else self.backoff_base
        self._delay = min(
            self.backoff_cap,
            self.rng.uniform(self.backoff_base, previous * 3.0),
        )
        return self._delay


@dataclass
class BatchResult:
    """Outcome of checking one file in a batch."""

    path: str
    verdict: str  # one of PASS/FAIL/FRONT_END_ERROR/TIMEOUT/ERROR
    elapsed_seconds: float
    cached: bool = False
    error_count: int = 0
    message: str = ""
    payload: Optional[dict] = None  # the protocol payload, when one exists

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        entry = {
            "path": self.path,
            "verdict": self.verdict,
            "elapsed_seconds": self.elapsed_seconds,
            "cached": self.cached,
            "error_count": self.error_count,
        }
        if self.message:
            entry["message"] = self.message
        if self.payload is not None:
            entry["payload"] = self.payload
        return entry


@dataclass
class CheckerPool:
    """Batch front end over the checker: cache, fan-out, timeouts.

    Cache misses run through :class:`ResilientPool`, one attempt each.
    ``task_timeout`` (seconds) bounds each file's check when running
    with worker processes; a timed-out check is abandoned (its worker is
    left to finish in the background, and the interpreter joins it at
    exit).  In-process mode cannot interrupt a check, so the timeout is
    not enforced there.
    """

    max_workers: int = 1
    task_timeout: Optional[float] = None
    cache: Optional[ResultCache] = None
    #: When set, :meth:`check_source` records each check's execution
    #: time into the ``repro_pool_exec_seconds`` histogram (the daemon
    #: passes its registry in).
    metrics: Optional[MetricsRegistry] = None
    _stats: dict = field(default_factory=lambda: {"checked": 0, "cached": 0})

    # -- public API ------------------------------------------------------

    def check_paths(self, paths: Sequence[str | Path]) -> list[BatchResult]:
        """Check many files; results come back in input order."""
        results: list[Optional[BatchResult]] = []
        misses: list[tuple[int, str, str]] = []  # (index, path, source)
        for index, path in enumerate(map(str, paths)):
            try:
                source = Path(path).read_text(encoding="utf-8")
            except OSError:
                results.append(BatchResult(
                    path=path, verdict=ERROR, elapsed_seconds=0.0,
                    message=f"cannot read {path}",
                ))
                continue
            hit = self._cached(source, path)
            if hit is None:
                misses.append((index, path, source))
            results.append(hit)

        # One attempt per file: a retried hang would cost the batch one
        # timeout per attempt.
        pool = ResilientPool(
            max_workers=self.max_workers,
            task_timeout=self.task_timeout,
            max_retries=0,
        )
        tasks = [
            {"source": source, "file": path} for _, path, source in misses
        ]
        for position, outcome in pool.run(_check_task, tasks):
            index, path, source = misses[position]
            if not isinstance(outcome, TaskFailure):
                payload = outcome
            elif outcome.reason == "timeout":
                payload = protocol.error_payload(
                    f"check exceeded {self.task_timeout:.1f}s",
                    file=path,
                    error="timeout",
                )
            else:  # the check raised, or its worker died
                payload = protocol.error_payload(
                    outcome.message, file=path, error="worker"
                )
            results[index] = self._absorb(path, source, payload)
        return results

    def check_source(self, source: str, *, file: str = "<memory>") -> BatchResult:
        """Single-source entry point used by the daemon."""
        hit = self._cached(source, file)
        if hit is not None:
            return hit
        start = time.perf_counter()
        payload = check_source_payload(source, file=file)
        elapsed = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_pool_exec_seconds", "pool task latency in seconds"
            ).observe(elapsed)
        return self._absorb(file, source, payload, elapsed=elapsed)

    def stats(self) -> dict:
        stats = dict(self._stats)
        if self.cache is not None:
            stats["cache"] = self.cache.stats.to_dict()
        return stats

    # -- results ---------------------------------------------------------

    def _cached(self, source: str, path: str) -> Optional[BatchResult]:
        """The cached verdict for ``source``, or None on a miss."""
        cached = self.cache.get(source) if self.cache is not None else None
        if cached is None:
            return None
        self._stats["cached"] += 1
        return BatchResult(
            path=path,
            verdict=PASS if cached.self_stabilizing else FAIL,
            elapsed_seconds=0.0,
            cached=True,
            error_count=len(cached.errors),
            payload=protocol.check_payload(cached, file=path, cached=True),
        )

    def _absorb(
        self,
        path: str,
        source: str,
        payload: dict,
        *,
        elapsed: Optional[float] = None,
    ) -> BatchResult:
        """Turn a check payload into a BatchResult, feeding the cache."""
        self._stats["checked"] += 1
        if payload.get("kind") == "check":
            report = protocol.report_from_payload(payload)
            if self.cache is not None:
                self.cache.put(source, report)
            return BatchResult(
                path=path,
                verdict=PASS if report.self_stabilizing else FAIL,
                elapsed_seconds=(
                    elapsed if elapsed is not None
                    else float(payload.get("elapsed_seconds", 0.0))
                ),
                error_count=len(report.errors),
                payload=payload,
            )
        error_kind = payload.get("error", "error")
        verdict = {
            "front-end": FRONT_END_ERROR,
            "timeout": TIMEOUT,
        }.get(error_kind, ERROR)
        return BatchResult(
            path=path,
            verdict=verdict,
            elapsed_seconds=elapsed if elapsed is not None else 0.0,
            message=str(payload.get("message", "")),
            payload=payload,
        )
