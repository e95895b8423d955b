"""Low-overhead sampling wall-clock profiler.

Spans (:mod:`repro.obs.trace`) time the operations the code *declared*
interesting; the profiler answers the complementary question — where
does interpreter time actually go *between* the span boundaries?  A
:class:`SamplingProfiler` runs one daemon thread that periodically
snapshots the Python call stack of the profiled threads via
:func:`sys._current_frames` and accumulates ``(section, stack) →
count`` aggregates, so the measured code runs at full speed between
samples (no ``sys.setprofile``/``sys.settrace`` hooks, no signals —
safe under worker threads and pools).

Instrumented anchor points — the interpreter step loop, the checker
passes, the inference fixpoint — open :func:`section`, which enters
:meth:`~SamplingProfiler.section`, a thread-local label stack, and the
resource monitor's section of the same name.  Each
stack sample records the innermost active section, so profile payloads
join the trace vocabulary (``interpreter.step`` samples land under the
same name the span tree shows) and ``repro bench --attribute`` can
cross-reference both.

Like tracing and events, profiling is strictly opt-in: the default
profiler is a :class:`NullProfiler` whose :meth:`~NullProfiler.section`
hands back the shared no-op :data:`~repro.obs.slot.NULL_SECTION`, as
:func:`section` does with both instruments off, pinned by
micro-benchmarks in ``tests/obs/test_profile.py`` to the same bound as
the null tracer — the anchors sit inside the runtime's hot loops.

Payloads are schema-versioned ``PROFILE_<UTCSTAMP>.json`` documents
(:func:`profile_payload` / :func:`validate_profile` /
:func:`read_profile` / :func:`write_profile`), documented in
``docs/BENCHMARKS.md``.  The clock is injectable, so tests produce
byte-deterministic golden payloads.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from repro.obs import codec
from repro.obs.resources import get_resource_monitor
from repro.obs.slot import NULL_SECTION, Slot

#: Bump when the PROFILE_*.json payload layout changes.
PROFILE_SCHEMA = 1

#: Default seconds between stack samples (~200 Hz).
DEFAULT_INTERVAL = 0.005

#: Stacks deeper than this are truncated (leaf-most frames win).
MAX_STACK_DEPTH = 64


class ProfileError(ValueError):
    """A profile payload violated the documented schema."""


def _stack_of(frame, max_depth: int = MAX_STACK_DEPTH) -> tuple[str, ...]:
    """The call stack of ``frame`` as ``module.function`` strings,
    root-most first (flamegraph order).  The walk starts at the leaf
    and follows ``f_back``, so stacks deeper than ``max_depth`` keep
    the leaf-most frames and drop the roots — the right bias for
    self-time aggregation."""
    names: list[str] = []
    while frame is not None and len(names) < max_depth:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        names.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    names.reverse()
    return tuple(names)


class SamplingProfiler:
    """Samples the stacks of profiled threads on a fixed interval.

    ``clock`` stamps the run's wall duration and is injectable for
    deterministic tests; ``frames`` (default :func:`sys._current_frames`)
    supplies the thread-id → frame mapping each sample reads, so tests
    can drive :meth:`sample_now` without a live sampler thread.

    Threads become *profiled* by calling :meth:`start` (registers the
    caller) or by opening a :meth:`section` — pool worker threads that
    enter an instrumented anchor are picked up automatically.
    """

    enabled = True

    def __init__(
        self,
        *,
        interval_seconds: float = DEFAULT_INTERVAL,
        clock: Callable[[], float] = time.perf_counter,
        frames: Callable[[], dict] = sys._current_frames,
        max_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if interval_seconds <= 0:
            raise ProfileError("interval_seconds must be > 0")
        self.interval_seconds = interval_seconds
        self.clock = clock
        self.max_depth = max_depth
        self._frames = frames
        self._samples: dict[tuple[Optional[str], tuple[str, ...]], int] = {}
        self._sample_count = 0
        self._sections: dict[int, list[str]] = {}
        self._targets: set[int] = set()
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._duration = 0.0

    # -- instrumentation anchors -----------------------------------------

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Label every sample taken while this thread is inside the
        block; sections nest, the innermost label wins."""
        tid = threading.get_ident()
        stack = self._sections.get(tid)
        if stack is None:
            stack = []
            with self._lock:
                self._sections[tid] = stack
                self._targets.add(tid)
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()

    # -- sampling --------------------------------------------------------

    def sample_now(self) -> int:
        """Take one sample of every profiled thread; returns how many
        stacks were recorded.  The sampler thread calls this on its
        interval; tests call it directly with injected ``frames``."""
        frames = self._frames()
        own = threading.get_ident()
        recorded = 0
        with self._lock:
            targets = set(self._targets)
        for tid in sorted(targets):
            if tid == own and self._thread is not None:
                continue  # never sample the sampler itself
            frame = frames.get(tid)
            if frame is None:
                continue
            sections = self._sections.get(tid)
            try:
                # The profiled thread pushes/pops its section stack
                # without the lock (hot path); the pop can land between
                # the truthiness check and the index.
                section = sections[-1] if sections else None
            except IndexError:
                section = None
            key = (section, _stack_of(frame, self.max_depth))
            with self._lock:
                self._samples[key] = self._samples.get(key, 0) + 1
                self._sample_count += 1
            recorded += 1
        return recorded

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_seconds):
            self.sample_now()

    def start(self) -> "SamplingProfiler":
        """Register the calling thread as profiled and launch the
        sampler thread.  Idempotent."""
        with self._lock:
            self._targets.add(threading.get_ident())
        if self._started_at is None:
            self._started_at = self.clock()
        if self._thread is None:
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread and freeze the run's duration."""
        if self._started_at is not None:
            self._duration += self.clock() - self._started_at
            self._started_at = None
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=5.0)

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- payload ---------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return self._sample_count

    def samples(self) -> list[dict]:
        """The accumulated aggregates in payload form, deterministic
        order: count descending, then section, then stack."""
        with self._lock:
            items = sorted(
                self._samples.items(),
                key=lambda kv: (-kv[1], kv[0][0] or "", kv[0][1]),
            )
        return [
            {"section": section, "stack": list(stack), "count": count}
            for (section, stack), count in items
        ]

    def payload(
        self,
        *,
        fingerprint: Optional[dict] = None,
        created_utc: Optional[str] = None,
    ) -> dict:
        duration = self._duration
        if self._started_at is not None:  # still running
            duration += self.clock() - self._started_at
        return profile_payload(
            self.samples(),
            interval_seconds=self.interval_seconds,
            duration_seconds=duration,
            fingerprint=fingerprint,
            created_utc=created_utc,
        )


class NullProfiler:
    """The disabled profiler: ``section()`` is a shared no-op context
    manager.  Kept deliberately trivial — the anchors sit in the
    interpreter's event loop, the checker, and the inference fixpoint."""

    enabled = False
    interval_seconds = 0.0
    sample_count = 0

    def section(self, name: str):
        return NULL_SECTION

    def sample_now(self) -> int:
        return 0

    def samples(self) -> list:
        return []


#: The process-wide profiler instrumented anchors report to.
_PROFILER: Slot[SamplingProfiler | NullProfiler] = Slot(NullProfiler())
get_profiler = _PROFILER.get
set_profiler = _PROFILER.set
installed_profiler = _PROFILER.installed


def section(name: str):
    """The anchor the checker, the inference fixpoint and the event
    loop open: it enters the installed profiler's and resource
    monitor's ``section(name)``, profiler outermost, and is the shared
    no-op :data:`~repro.obs.slot.NULL_SECTION` when both are off."""
    profiler = get_profiler()
    monitor = get_resource_monitor()
    if not monitor.enabled:
        return profiler.section(name)
    if not profiler.enabled:
        return monitor.section(name)
    return _both_sections(profiler, monitor, name)


@contextmanager
def _both_sections(profiler, monitor, name: str) -> Iterator[None]:
    with profiler.section(name), monitor.section(name):
        yield


# ---------------------------------------------------------------------------
# Payload schema
# ---------------------------------------------------------------------------


def profile_payload(
    samples: Sequence[dict],
    *,
    interval_seconds: float,
    duration_seconds: float,
    fingerprint: Optional[dict] = None,
    created_utc: Optional[str] = None,
) -> dict:
    """The schema-versioned JSON form of one profiling run.  The
    environment fingerprint and timestamp default to the live ones and
    are injectable for byte-stable golden tests."""
    samples = [dict(sample) for sample in samples]
    return {
        **codec.envelope(
            PROFILE_SCHEMA, "profile",
            fingerprint=fingerprint, created_utc=created_utc,
        ),
        "interval_seconds": interval_seconds,
        "duration_seconds": duration_seconds,
        "sample_count": sum(int(s.get("count", 0)) for s in samples),
        "samples": samples,
    }


def validate_profile(payload: dict) -> dict:
    """Raise :class:`ProfileError` unless ``payload`` is a well-formed
    profile document (the schema in ``docs/BENCHMARKS.md``); returns
    it.  An *empty* sample list is valid — a fast run can finish before
    the first sampling tick."""
    codec.check_envelope(payload, PROFILE_SCHEMA, "profile", ProfileError)
    for key in ("interval_seconds", "duration_seconds"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            raise ProfileError(f"{key} must be a non-negative number")
    samples = payload.get("samples")
    if not isinstance(samples, list):
        raise ProfileError("samples must be a list")
    total = 0
    for index, sample in enumerate(samples):
        if not isinstance(sample, dict):
            raise ProfileError(f"samples[{index}] must be an object")
        section = sample.get("section")
        if section is not None and not isinstance(section, str):
            raise ProfileError(
                f"samples[{index}]: section must be a string or null"
            )
        stack = sample.get("stack")
        if (
            not isinstance(stack, list)
            or not all(isinstance(fn, str) and fn for fn in stack)
        ):
            raise ProfileError(
                f"samples[{index}]: stack must be a list of non-empty "
                f"strings"
            )
        count = sample.get("count")
        if not isinstance(count, int) or count < 1:
            raise ProfileError(
                f"samples[{index}]: count must be a positive int"
            )
        total += count
    if payload.get("sample_count") != total:
        raise ProfileError(
            f"sample_count {payload.get('sample_count')!r} != summed "
            f"sample counts {total}"
        )
    return payload


def read_profile(path: str | Path) -> dict:
    """Parse and validate one PROFILE json file."""
    return codec.read_payload(path, validate_profile, ProfileError)


dumps_profile = codec.dumps_payload


def write_profile(payload: dict, path: str | Path | None = None) -> Path:
    """Write ``payload`` to ``path``, defaulting to
    ``PROFILE_<UTCSTAMP>.json`` in the current directory."""
    return codec.write_payload(payload, path, "PROFILE")


# ---------------------------------------------------------------------------
# Aggregation and rendering
# ---------------------------------------------------------------------------


def aggregate_profile(payload: dict) -> list[dict]:
    """Per-function rows from a profile payload: ``self_count`` (samples
    where the function was the innermost frame) and ``total_count``
    (samples where it appeared anywhere on the stack, counted once per
    stack).  Rows sorted by self count descending, then total, then
    name — deterministic for identical payloads."""
    totals: dict[str, dict] = {}
    for sample in payload["samples"]:
        stack = sample["stack"]
        count = sample["count"]
        for function in set(stack):
            row = totals.setdefault(
                function,
                {"function": function, "self_count": 0, "total_count": 0},
            )
            row["total_count"] += count
        if stack:
            totals[stack[-1]]["self_count"] += count
    return sorted(
        totals.values(),
        key=lambda r: (-r["self_count"], -r["total_count"], r["function"]),
    )


def section_counts(payload: dict) -> dict[str, int]:
    """Samples per instrumented section (``None`` key rendered as
    ``<unattributed>``) — the join surface with the span vocabulary."""
    counts: dict[str, int] = {}
    for sample in payload["samples"]:
        name = sample["section"] or "<unattributed>"
        counts[name] = counts.get(name, 0) + sample["count"]
    return counts


def format_profile_table(payload: dict, *, limit: int = 30) -> str:
    """Human rendering of one profile payload, deterministic layout:
    the section summary, then the top ``limit`` functions by self
    samples."""
    total = payload["sample_count"]
    lines = [
        f"// {total} samples over {payload['duration_seconds']:.3f}s "
        f"(interval {payload['interval_seconds'] * 1000.0:g}ms)"
    ]
    sections = section_counts(payload)
    if sections:
        width = max(len(name) for name in sections)
        for name in sorted(sections):
            count = sections[name]
            pct = 100.0 * count / total if total else 0.0
            lines.append(f"{name:<{width}}  {count:6d} samples {pct:5.1f}%")
    rows = aggregate_profile(payload)[:limit]
    if rows:
        width = max([len("function")] + [len(r["function"]) for r in rows])
        lines.append(
            f"{'function':<{width}} {'self':>6} {'self%':>6} {'total':>6}"
        )
        for row in rows:
            pct = 100.0 * row["self_count"] / total if total else 0.0
            lines.append(
                f"{row['function']:<{width}} {row['self_count']:6d} "
                f"{pct:5.1f}% {row['total_count']:6d}"
            )
    return "\n".join(lines)
