"""Memory & resource telemetry: the heap half of the perf substrate.

Spans, profiles, and the bench trajectory measure *time*; this module
measures what the process *holds* while it runs:

* **peak RSS** via :func:`resource.getrusage` (normalized to bytes —
  Linux reports kilobytes, macOS bytes);
* **allocation snapshots** via :mod:`tracemalloc`, attributed to the
  same section vocabulary the profiler anchors use
  (``interpreter.step``, ``checker.check``, ``infer.fixpoint``,
  ``campaign.shard``), plus per-repetition traced peaks for the bench
  harness's additive ``memory`` section;
* **GC pauses** via :data:`gc.callbacks` — collection counts and
  summed stop-the-world durations, per generation;
* **cache occupancy** — entries/bytes per tier, pulled from registered
  suppliers (the service's :class:`~repro.service.cache.ResultCache`
  exposes ``occupancy()``).

Like tracing, events, and profiling, resource monitoring is strictly
opt-in: the default monitor is a :class:`NullResourceMonitor` whose
``section()`` hands back one shared no-op context manager, pinned by a
micro-benchmark in ``tests/obs/test_resources.py`` beside the null
tracer/event-log/profiler pins — the anchors sit inside the runtime's
hot loops.

Payloads are schema-versioned ``MEM_*.json`` documents
(:func:`resources_payload` / :func:`validate_resources` /
:func:`read_resources` / :func:`write_resources`), written by ``repro
bench --mem-json FILE`` and documented in ``docs/BENCHMARKS.md``.  The
clock and the RSS/allocation suppliers are injectable, so tests produce
byte-deterministic golden payloads.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.obs import codec
from repro.obs.slot import NULL_SECTION, Slot

#: Bump when the MEM_*.json payload layout changes.
RESOURCES_SCHEMA = 1


class ResourceError(ValueError):
    """A resources payload violated the documented schema."""


def peak_rss_bytes() -> Optional[int]:
    """This process's lifetime peak resident set size in bytes, or
    ``None`` where :mod:`resource` is unavailable.  ``ru_maxrss`` is
    kilobytes on Linux and bytes on macOS — normalized here so payloads
    compare across platforms."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    scale = 1 if sys.platform == "darwin" else 1024
    return int(usage.ru_maxrss) * scale


def _tracemalloc_read() -> tuple[int, int]:
    import tracemalloc

    return tracemalloc.get_traced_memory()


def _tracemalloc_reset() -> None:
    import tracemalloc

    tracemalloc.reset_peak()


class ResourceMonitor:
    """Samples process memory, GC pauses, and section-attributed
    allocations between :meth:`start` and :meth:`stop`.

    ``clock`` stamps GC pauses and the run duration; ``rss_supplier``
    reads peak RSS; ``alloc_read`` returns a ``(current, peak)`` traced
    byte pair (default :func:`tracemalloc.get_traced_memory`) and
    ``alloc_reset`` resets the traced peak — all injectable, so tests
    drive byte-deterministic payloads without touching the real
    allocator.  With ``trace_allocations=False`` tracemalloc is never
    started (the daemon's mode: RSS + GC + caches only) and every
    allocation field reads ``None``.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        rss_supplier: Callable[[], Optional[int]] = peak_rss_bytes,
        trace_allocations: bool = True,
        track_gc: bool = True,
        alloc_read: Optional[Callable[[], tuple[int, int]]] = None,
        alloc_reset: Optional[Callable[[], None]] = None,
    ) -> None:
        self.clock = clock
        self.rss_supplier = rss_supplier
        self.trace_allocations = trace_allocations
        self.track_gc = track_gc
        self._alloc_read = alloc_read
        self._alloc_reset = alloc_reset
        self._owns_alloc = trace_allocations and alloc_read is None
        self._lock = threading.Lock()
        self._sections: dict[str, list] = {}  # name -> [count, net_bytes]
        self._caches: dict[str, Callable[[], dict]] = {}
        self._gc_started: dict[int, float] = {}
        self._gc_collections = 0
        self._gc_by_generation: dict[int, int] = {}
        self._gc_pause_total = 0.0
        self._gc_registered = False
        self._tracemalloc_started = False
        self._final_alloc: tuple[Optional[int], Optional[int]] = (None, None)
        self._sample_base: Optional[int] = None
        self._started_at: Optional[float] = None
        self._duration = 0.0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ResourceMonitor":
        """Begin monitoring: starts tracemalloc when this monitor traces
        allocations (and nothing else already did) and registers the GC
        callback.  Idempotent."""
        if self._started_at is None:
            self._started_at = self.clock()
        if self._owns_alloc and self._alloc_read is None:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracemalloc_started = True
            self._alloc_read = _tracemalloc_read
            self._alloc_reset = _tracemalloc_reset
        if self.track_gc and not self._gc_registered:
            gc.callbacks.append(self._on_gc)
            self._gc_registered = True
        return self

    def stop(self) -> None:
        """Stop monitoring and freeze the run duration; unregisters the
        GC callback and stops tracemalloc if this monitor started it."""
        if self._started_at is not None:
            self._duration += self.clock() - self._started_at
            self._started_at = None
        if self._gc_registered:
            try:
                gc.callbacks.remove(self._on_gc)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._gc_registered = False
        if self._tracemalloc_started:
            import tracemalloc

            if self._alloc_read is not None:
                # Freeze the last reading so payloads rendered after
                # stop() still carry the run's allocation figures.
                current, peak = self._alloc_read()
                self._final_alloc = (int(current), int(peak))
            tracemalloc.stop()
            self._tracemalloc_started = False
            self._alloc_read = None
            self._alloc_reset = None

    def __enter__(self) -> "ResourceMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- GC pause tracking -----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        """The :data:`gc.callbacks` hook: "start" stamps the clock for
        the collecting generation, "stop" folds the pause in.  Lock-free:
        a collection can start while this thread holds ``_lock``, and the
        collector runs one collection's callbacks at a time."""
        generation = int(info.get("generation", 0))
        if phase == "start":
            self._gc_started[generation] = self.clock()
            return
        started = self._gc_started.pop(generation, None)
        self._gc_collections += 1
        self._gc_by_generation[generation] = (
            self._gc_by_generation.get(generation, 0) + 1
        )
        if started is not None:
            self._gc_pause_total += self.clock() - started

    def gc_snapshot(self) -> dict:
        """Cumulative GC totals so far — callers diff two snapshots to
        charge collections/pauses to one scenario or request window."""
        # Copied first: a collection while sorting may add a generation.
        by_generation = dict(self._gc_by_generation)
        return {
            "collections": self._gc_collections,
            "pause_seconds_total": self._gc_pause_total,
            "collections_by_generation": {
                str(gen): count for gen, count in sorted(by_generation.items())
            },
        }

    # -- section attribution ---------------------------------------------

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Attribute the net traced allocation delta of the block to
        ``name`` (the profiler's section vocabulary); without an
        allocation supplier the invocation is still counted."""
        before = self._alloc_read() if self._alloc_read is not None else None
        try:
            yield
        finally:
            net = 0
            if before is not None and self._alloc_read is not None:
                net = self._alloc_read()[0] - before[0]
            with self._lock:
                row = self._sections.setdefault(name, [0, 0])
                row[0] += 1
                row[1] += net

    def sections(self) -> list[dict]:
        """Per-section attribution rows, sorted by name."""
        with self._lock:
            return [
                {
                    "name": name,
                    "count": row[0],
                    "net_alloc_bytes": row[1],
                }
                for name, row in sorted(self._sections.items())
            ]

    # -- per-repetition sampling (the bench harness) ---------------------

    def begin_sample(self) -> None:
        """Reset the traced peak and remember the current baseline; one
        :meth:`end_sample` later yields that window's peak allocation."""
        if self._alloc_read is None:
            self._sample_base = None
            return
        if self._alloc_reset is not None:
            self._alloc_reset()
        self._sample_base = self._alloc_read()[0]

    def end_sample(self) -> Optional[int]:
        """Peak traced bytes allocated above the :meth:`begin_sample`
        baseline, or ``None`` when allocation tracing is off."""
        if self._alloc_read is None or self._sample_base is None:
            return None
        current, peak = self._alloc_read()
        return max(0, int(peak) - int(self._sample_base))

    # -- process-wide reads ----------------------------------------------

    def peak_rss(self) -> Optional[int]:
        value = self.rss_supplier()
        return None if value is None else int(value)

    def alloc_snapshot(self) -> tuple[Optional[int], Optional[int]]:
        """``(current, peak)`` traced bytes; after :meth:`stop`, the
        frozen final reading; ``(None, None)`` when tracing is off."""
        if self._alloc_read is None:
            return self._final_alloc
        current, peak = self._alloc_read()
        return (int(current), int(peak))

    # -- cache occupancy -------------------------------------------------

    def watch_cache(
        self, name: str, supplier: Callable[[], dict]
    ) -> None:
        """Register an occupancy supplier (``() -> {"entries": int,
        "bytes": int}``) reported under ``name`` in the payload."""
        with self._lock:
            self._caches[name] = supplier

    def cache_occupancy(self) -> dict:
        """Entries/bytes per registered cache tier; a supplier that
        raises is reported as zero occupancy — telemetry must never
        break the workload it watches."""
        with self._lock:
            suppliers = dict(self._caches)
        occupancy: dict[str, dict] = {}
        for name in sorted(suppliers):
            try:
                tier = suppliers[name]()
            except Exception:
                tier = {}
            occupancy[name] = {
                "entries": int(tier.get("entries", 0)),
                "bytes": int(tier.get("bytes", 0)),
            }
        return occupancy

    # -- payload ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The monitor's current readings as plain data (no schema
        envelope) — what ``/healthz`` and the Prometheus gauges read."""
        duration = self._duration
        if self._started_at is not None:  # still running
            duration += self.clock() - self._started_at
        current, peak = self.alloc_snapshot()
        return {
            "duration_seconds": duration,
            "peak_rss_bytes": self.peak_rss(),
            "alloc_current_bytes": current,
            "alloc_peak_bytes": peak,
            "gc": self.gc_snapshot(),
            "sections": self.sections(),
            "caches": self.cache_occupancy(),
        }

    def payload(
        self,
        *,
        fingerprint: Optional[dict] = None,
        created_utc: Optional[str] = None,
    ) -> dict:
        return resources_payload(
            self.snapshot(),
            fingerprint=fingerprint,
            created_utc=created_utc,
        )


_ZERO_GC = {
    "collections": 0,
    "pause_seconds_total": 0.0,
    "collections_by_generation": {},
}


class NullResourceMonitor:
    """The disabled monitor: ``section()`` is a shared no-op context
    manager.  Kept deliberately trivial — the anchors share the
    profiler's hot-loop placement, so the off state must cost ~nothing
    (pinned in ``tests/obs/test_resources.py``)."""

    enabled = False

    def section(self, name: str):
        return NULL_SECTION

    def begin_sample(self) -> None:
        pass

    def end_sample(self) -> None:
        return None

    def gc_snapshot(self) -> dict:
        return dict(_ZERO_GC)

    def sections(self) -> list:
        return []

    def watch_cache(self, name: str, supplier) -> None:
        pass

    def cache_occupancy(self) -> dict:
        return {}

    def peak_rss(self) -> None:
        return None

    def alloc_snapshot(self) -> tuple[None, None]:
        return (None, None)


#: The process-wide monitor instrumented anchors report to.
_MONITOR: Slot[ResourceMonitor | NullResourceMonitor] = Slot(
    NullResourceMonitor()
)
get_resource_monitor = _MONITOR.get
set_resource_monitor = _MONITOR.set
installed_resource_monitor = _MONITOR.installed


# ---------------------------------------------------------------------------
# Payload schema
# ---------------------------------------------------------------------------


def resources_payload(
    snapshot: dict,
    *,
    fingerprint: Optional[dict] = None,
    created_utc: Optional[str] = None,
) -> dict:
    """The schema-versioned JSON form of one monitoring run.  The
    environment fingerprint and timestamp default to the live ones and
    are injectable for byte-stable golden tests."""
    return {
        **codec.envelope(
            RESOURCES_SCHEMA, "resources",
            fingerprint=fingerprint, created_utc=created_utc,
        ),
        "duration_seconds": float(snapshot.get("duration_seconds", 0.0)),
        "peak_rss_bytes": snapshot.get("peak_rss_bytes"),
        "alloc_current_bytes": snapshot.get("alloc_current_bytes"),
        "alloc_peak_bytes": snapshot.get("alloc_peak_bytes"),
        "gc": snapshot.get("gc", dict(_ZERO_GC)),
        "sections": list(snapshot.get("sections", [])),
        "caches": dict(snapshot.get("caches", {})),
    }


def _require_optional_nonneg_int(payload: dict, key: str) -> None:
    value = payload.get(key)
    if value is not None and (not isinstance(value, int) or value < 0):
        raise ResourceError(f"{key} must be a non-negative int or null")


def validate_resources(payload: dict) -> dict:
    """Raise :class:`ResourceError` unless ``payload`` is a well-formed
    resources document (the schema in ``docs/BENCHMARKS.md``); returns
    it."""
    codec.check_envelope(
        payload, RESOURCES_SCHEMA, "resources", ResourceError
    )
    duration = payload.get("duration_seconds")
    if not isinstance(duration, (int, float)) or duration < 0:
        raise ResourceError("duration_seconds must be a non-negative number")
    for key in ("peak_rss_bytes", "alloc_current_bytes", "alloc_peak_bytes"):
        _require_optional_nonneg_int(payload, key)
    gc_doc = payload.get("gc")
    if not isinstance(gc_doc, dict):
        raise ResourceError("gc must be an object")
    if not isinstance(gc_doc.get("collections"), int) \
            or gc_doc["collections"] < 0:
        raise ResourceError("gc.collections must be a non-negative int")
    pause = gc_doc.get("pause_seconds_total")
    if not isinstance(pause, (int, float)) or pause < 0:
        raise ResourceError(
            "gc.pause_seconds_total must be a non-negative number"
        )
    by_gen = gc_doc.get("collections_by_generation")
    if not isinstance(by_gen, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in by_gen.items()
    ):
        raise ResourceError(
            "gc.collections_by_generation must map generation -> count"
        )
    sections = payload.get("sections")
    if not isinstance(sections, list):
        raise ResourceError("sections must be a list")
    for index, row in enumerate(sections):
        if not isinstance(row, dict) or not isinstance(row.get("name"), str):
            raise ResourceError(f"sections[{index}] needs a name")
        if not isinstance(row.get("count"), int) or row["count"] < 0:
            raise ResourceError(
                f"sections[{index}]: count must be a non-negative int"
            )
        if not isinstance(row.get("net_alloc_bytes"), int):
            raise ResourceError(
                f"sections[{index}]: net_alloc_bytes must be an int"
            )
    caches = payload.get("caches")
    if not isinstance(caches, dict):
        raise ResourceError("caches must be an object")
    for name, tier in caches.items():
        if not isinstance(tier, dict):
            raise ResourceError(f"cache {name!r}: tier must be an object")
        for key in ("entries", "bytes"):
            if not isinstance(tier.get(key), int) or tier[key] < 0:
                raise ResourceError(
                    f"cache {name!r}: {key} must be a non-negative int"
                )
    return payload


def read_resources(path: str | Path) -> dict:
    """Parse and validate one MEM json file."""
    return codec.read_payload(path, validate_resources, ResourceError)


dumps_resources = codec.dumps_payload


def write_resources(payload: dict, path: str | Path | None = None) -> Path:
    """Write ``payload`` to ``path``, defaulting to
    ``MEM_<UTCSTAMP>.json`` in the current directory."""
    return codec.write_payload(payload, path, "MEM")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _mib(value: Optional[int]) -> str:
    return "       -" if value is None else f"{value / 1048576.0:8.1f}"


def format_resources_table(payload: dict) -> str:
    """Human rendering of one resources payload, deterministic layout."""
    gc_doc = payload["gc"]
    lines = [
        f"// peak rss {_mib(payload['peak_rss_bytes']).strip()} MiB, "
        f"alloc peak {_mib(payload['alloc_peak_bytes']).strip()} MiB, "
        f"{gc_doc['collections']} gc collection(s) "
        f"({gc_doc['pause_seconds_total'] * 1000.0:.2f} ms paused) "
        f"over {payload['duration_seconds']:.3f}s"
    ]
    sections = payload["sections"]
    if sections:
        width = max([len("section")] + [len(s["name"]) for s in sections])
        lines.append(
            f"{'section':<{width}} {'count':>8} {'net alloc MiB':>13}"
        )
        for row in sections:
            lines.append(
                f"{row['name']:<{width}} {row['count']:8d} "
                f"{row['net_alloc_bytes'] / 1048576.0:13.3f}"
            )
    caches = payload["caches"]
    if caches:
        width = max([len("cache")] + [len(name) for name in caches])
        lines.append(f"{'cache':<{width}} {'entries':>8} {'bytes':>12}")
        for name in sorted(caches):
            tier = caches[name]
            lines.append(
                f"{name:<{width}} {tier['entries']:8d} {tier['bytes']:12d}"
            )
    return "\n".join(lines)
