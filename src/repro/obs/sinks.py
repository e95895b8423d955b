"""Trace sinks and renderers.

A sink is anything with ``emit(span)``; the tracer calls it once per
*closed* span, children before parents.  Three are provided:

* :class:`RingBufferSink` — keeps the last N finished root span trees in
  memory (the daemon's ``--profile`` and inspection surface);
* :class:`JsonlTraceWriter` — appends one :func:`~repro.obs.trace.span_event`
  JSON object per line to a file.  Writes go through a single
  ``O_APPEND`` file descriptor in one ``os.write`` call each, so
  concurrent threads (and well-behaved cooperating processes) never
  interleave partial lines;
* :func:`format_tree` — a human rendering of one span tree with
  durations and per-phase percentages.

:func:`read_trace` / :func:`validate_trace` are the executable form of
the JSONL schema documented in ``docs/OBSERVABILITY.md``; CI runs them
over the smoke campaign's trace.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import warnings
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.obs.trace import Span, TRACE_SCHEMA, span_event


class RingBufferSink:
    """Keeps the most recent ``capacity`` finished *root* spans."""

    def __init__(self, capacity: int = 64) -> None:
        self._roots: collections.deque[Span] = collections.deque(
            maxlen=capacity
        )
        self._lock = threading.Lock()

    def emit(self, span: Span) -> None:
        if span.parent is None:
            with self._lock:
                self._roots.append(span)

    @property
    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()


class CollectingSink:
    """Collects every closed span as a flat :func:`span_event` dict.

    The bench runner's tap: attached to whichever tracer is live for
    the duration of a scenario (via :meth:`Tracer.add_sink`) to build
    per-scenario span self-time tables, then detached.  ``enabled``
    gates collection so the same sink object can stay attached across
    warmup (off) and timed repetitions (on) without re-plumbing."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.enabled = True
        self._lock = threading.Lock()

    def emit(self, span: Span) -> None:
        if self.enabled:
            with self._lock:
                self.events.append(span_event(span))

    def clear(self) -> None:
        with self._lock:
            self.events.clear()


class JsonlWriter:
    """Appends one JSON object per line; atomic at line granularity.

    The generic atomic-append machinery: each :meth:`write` serializes
    one object to a single line and pushes it through one ``os.write``
    call on an ``O_APPEND`` descriptor, so concurrent threads (and
    well-behaved cooperating processes) interleave *lines*, never
    *bytes*.  :class:`JsonlTraceWriter` (spans) and
    :class:`repro.obs.events.JsonlEventWriter` (log events) are thin
    adapters over it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: Optional[int] = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()

    def write(self, obj: dict) -> None:
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        data = (line + "\n").encode("utf-8")
        with self._lock:
            if self._fd is not None:
                os.write(self._fd, data)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlTraceWriter(JsonlWriter):
    """Appends one span event per line; atomic at line granularity."""

    def emit(self, span: Span) -> None:
        self.write(span_event(span))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _format_extras(span: Span) -> str:
    parts: list[str] = []
    for key in sorted(span.attrs):
        parts.append(f"{key}={span.attrs[key]}")
    for key in sorted(span.counters):
        value = span.counters[key]
        rendered = int(value) if value == int(value) else round(value, 6)
        parts.append(f"{key}={rendered}")
    return f"  [{', '.join(parts)}]" if parts else ""


def format_tree(root: Span) -> str:
    """Render one span tree with durations and per-phase percentages.

    Percentages are relative to the *root* span, so a phase list that
    sums to ~100% means the root's time is fully accounted for.
    """
    total = root.duration_seconds or 0.0
    lines: list[str] = []

    def pct(span: Span) -> str:
        if total <= 0.0 or span.duration_seconds is None:
            return "     -"
        return f"{100.0 * span.duration_seconds / total:5.1f}%"

    def ms(span: Span) -> str:
        if span.duration_seconds is None:
            return "   open"
        return f"{span.duration_seconds * 1000.0:9.2f}ms"

    def render(span: Span, prefix: str, branch: str, child_prefix: str) -> None:
        lines.append(
            f"{prefix}{branch}{span.name}  {ms(span)}  {pct(span)}"
            f"{_format_extras(span)}"
        )
        for index, child in enumerate(span.children):
            last = index == len(span.children) - 1
            render(
                child,
                child_prefix,
                "└─ " if last else "├─ ",
                child_prefix + ("   " if last else "│  "),
            )

    render(root, "", "", "")
    return "\n".join(lines)


def build_forest(events: Iterable[dict]) -> list[Span]:
    """Reconstruct renderable span trees from flat trace events —
    including multi-process merged traces.

    Spans link to their parents by ``(trace_id, parent_id)``.  A span
    whose parent id is absent from the stream (worker killed mid-write,
    unmerged per-worker file) is **never dropped**: orphans are grouped
    under one synthetic ``<orphaned>`` root per process (``pid`` key,
    stamped by :func:`repro.obs.propagate.merge_traces`; events without
    one share a single root).  The synthetic root's duration is the sum
    of its children, so :func:`format_tree` percentages stay sane.

    Returns roots in stream order: real roots first, synthetic orphan
    roots after, ordered by pid.
    """
    events = list(events)
    nodes: dict[tuple[str, int], Span] = {}
    for event in events:
        node = Span(
            event["name"],
            dict(event["attrs"]),
            trace_id=event["trace_id"],
            span_id=event["span_id"],
            parent=None,
            start_seconds=float(event["start_seconds"]),
            start_cpu=0.0,
        )
        node.duration_seconds = float(event["duration_seconds"])
        node.cpu_seconds = float(event["cpu_seconds"])
        node.counters = dict(event["counters"])
        nodes[(event["trace_id"], event["span_id"])] = node
    roots: list[Span] = []
    orphans_by_pid: dict[object, list[Span]] = {}
    for event in events:
        node = nodes[(event["trace_id"], event["span_id"])]
        if event["parent_id"] is None:
            roots.append(node)
            continue
        parent = nodes.get((event["trace_id"], event["parent_id"]))
        if parent is not None:
            node.parent = parent
            parent.children.append(node)
        else:
            orphans_by_pid.setdefault(event.get("pid"), []).append(node)
    for pid in sorted(orphans_by_pid, key=lambda p: (p is not None, p)):
        orphans = orphans_by_pid[pid]
        attrs = {} if pid is None else {"pid": pid}
        synthetic = Span(
            "<orphaned>",
            attrs,
            trace_id=orphans[0].trace_id,
            span_id=0,
            parent=None,
            start_seconds=orphans[0].start_seconds,
            start_cpu=0.0,
        )
        synthetic.duration_seconds = sum(
            orphan.duration_seconds or 0.0 for orphan in orphans
        )
        synthetic.cpu_seconds = 0.0
        for orphan in orphans:
            orphan.parent = synthetic
            synthetic.children.append(orphan)
        roots.append(synthetic)
    # A merged trace interleaves children before parents, so children
    # were appended in close order; render them in start order instead.
    for node in nodes.values():
        node.children.sort(key=lambda child: child.start_seconds)
    return roots


def format_forest(events: Iterable[dict]) -> str:
    """Render every tree in a (possibly multi-process) trace, one
    :func:`format_tree` block per root, orphan groups included."""
    return "\n".join(format_tree(root) for root in build_forest(events))


# ---------------------------------------------------------------------------
# Reading traces back
# ---------------------------------------------------------------------------


class TraceError(ValueError):
    """A trace file violated the documented JSONL schema."""


class TraceWarning(UserWarning):
    """A recoverable defect in a JSONL stream (e.g. a truncated final
    line left behind by a crashed writer) that the reader skipped."""


def read_jsonl(
    path: str | Path,
    *,
    validate: Callable[[dict], None],
    error: type = TraceError,
) -> list[dict]:
    """Parse a JSONL file, validating each object with ``validate``.

    A final line with no trailing newline is the signature of a writer
    killed mid-``os.write``; if that line fails to parse or validate it
    is *skipped* with a :class:`TraceWarning` instead of poisoning the
    whole file — every complete line before it is still returned.  Any
    defect on a newline-terminated line still raises ``error``: those
    were complete writes, so corruption there is real.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    terminated = text.endswith("\n")
    objects: list[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        truncated_tail = number == len(lines) and not terminated
        try:
            obj = json.loads(line)
            validate(obj)
        except (json.JSONDecodeError, ValueError) as exc:
            detail = (
                f"invalid JSON: {exc}"
                if isinstance(exc, json.JSONDecodeError) else str(exc)
            )
            if truncated_tail:
                warnings.warn(
                    f"{path}:{number}: skipping truncated final line "
                    f"(crashed writer?): {detail}",
                    TraceWarning,
                    stacklevel=2,
                )
                break
            raise error(f"{path}:{number}: {detail}") from exc
        objects.append(obj)
    return objects


_REQUIRED_EVENT_KEYS = (
    "schema", "event", "trace_id", "span_id", "parent_id", "name",
    "start_seconds", "duration_seconds", "cpu_seconds", "attrs", "counters",
)


def validate_event(event: dict) -> None:
    """Raise :class:`TraceError` unless ``event`` is a well-formed span
    event (the schema in ``docs/OBSERVABILITY.md``)."""
    if not isinstance(event, dict):
        raise TraceError("trace event must be a JSON object")
    missing = [key for key in _REQUIRED_EVENT_KEYS if key not in event]
    if missing:
        raise TraceError(f"trace event missing keys {missing}")
    if event["schema"] != TRACE_SCHEMA:
        raise TraceError(
            f"unsupported trace schema {event['schema']!r} "
            f"(speaking {TRACE_SCHEMA})"
        )
    if event["event"] != "span":
        raise TraceError(f"unknown trace event kind {event['event']!r}")
    if not isinstance(event["name"], str) or not event["name"]:
        raise TraceError("span event needs a non-empty name")
    if not isinstance(event["span_id"], int):
        raise TraceError("span_id must be an int")
    if event["parent_id"] is not None and not isinstance(
        event["parent_id"], int
    ):
        raise TraceError("parent_id must be an int or null")
    for key in ("start_seconds", "duration_seconds", "cpu_seconds"):
        if not isinstance(event[key], (int, float)):
            raise TraceError(f"{key} must be a number")
    for key in ("attrs", "counters"):
        if not isinstance(event[key], dict):
            raise TraceError(f"{key} must be an object")


def read_trace(path: str | Path) -> list[dict]:
    """Parse and validate a JSONL trace file into a list of events.

    A truncated final line (crashed writer) is skipped with a
    :class:`TraceWarning`; see :func:`read_jsonl`.
    """
    return read_jsonl(path, validate=validate_event, error=TraceError)


def orphan_events(events: Iterable[dict]) -> list[dict]:
    """Span events whose parent id is absent from the stream — the
    signature of a run (or pool worker) killed before an enclosing span
    could close, or of a per-worker file read on its own (its
    ``remote_parent`` edge points into the *driver's* file)."""
    present: set[tuple[str, int]] = {
        (event["trace_id"], event["span_id"]) for event in events
    }
    return [
        event for event in events
        if event["parent_id"] is not None
        and (event["trace_id"], event["parent_id"]) not in present
    ]


def validate_trace(path: str | Path) -> list[dict]:
    """:func:`read_trace` plus structural checks: the file must be
    non-empty, and spans whose parent never closed (an interrupted run,
    a worker killed mid-write, an unmerged per-worker file) are counted
    in a :class:`TraceWarning` — reported, never dropped; renderers
    group them under a synthetic ``<orphaned>`` root (see
    :func:`build_forest`)."""
    events = read_trace(path)
    if not events:
        raise TraceError(f"{path}: trace file holds no span events")
    orphans = orphan_events(events)
    if orphans:
        traces = sorted({event["trace_id"] for event in orphans})
        warnings.warn(
            f"{path}: {len(orphans)} orphaned span(s) in traces {traces} "
            f"— their parents never closed (interrupted run, killed "
            f"worker, or an unmerged per-worker file); renderers group "
            f"them under a synthetic <orphaned> root",
            TraceWarning,
            stacklevel=2,
        )
    return events


def aggregate_trace(events: Iterable[dict]) -> list[dict]:
    """Per-span-name aggregates for ``repro metrics --trace`` and
    ``repro bench --report``: count, total/mean wall seconds, *exclusive*
    (self) wall seconds, total CPU seconds, summed counters.

    Self time is a span's duration minus the summed durations of its
    direct children — flamegraph-style exclusive time.  Every child
    second is subtracted from exactly one parent, so the per-name self
    times of a trace sum to its root spans' wall time.  Rows come back
    sorted by self time descending, then name, so two runs over the
    same trace render identically and diff cleanly.
    """
    # Appended runs legitimately reuse trace/span ids (each Tracer
    # numbers from 1), so ids alone don't address a span.  Within one
    # run every (trace_id, span_id) appears exactly once and children
    # close — and are written — before their parents, so the k-th
    # occurrence of an id pair belongs to appended run k; keying the
    # child-time sums by (trace_id, span_id, occurrence) keeps runs
    # from stealing each other's child time.
    seen: dict[tuple[str, int], int] = {}
    child_wall: dict[tuple[str, int, int], float] = {}
    totals: dict[str, dict] = {}
    for event in events:
        trace_id, span_id = event["trace_id"], event["span_id"]
        run = seen.get((trace_id, span_id), 0)
        seen[(trace_id, span_id)] = run + 1
        duration = float(event["duration_seconds"])
        self_seconds = duration - child_wall.pop(
            (trace_id, span_id, run), 0.0
        )
        if event["parent_id"] is not None:
            parent_key = (trace_id, event["parent_id"], run)
            child_wall[parent_key] = (
                child_wall.get(parent_key, 0.0) + duration
            )
        entry = totals.setdefault(
            event["name"],
            {"name": event["name"], "count": 0, "wall_seconds": 0.0,
             "self_seconds": 0.0, "cpu_seconds": 0.0, "counters": {}},
        )
        entry["count"] += 1
        entry["wall_seconds"] += duration
        entry["self_seconds"] += self_seconds
        entry["cpu_seconds"] += float(event["cpu_seconds"])
        for key, value in event["counters"].items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    out = sorted(
        totals.values(), key=lambda e: (-e["self_seconds"], e["name"])
    )
    for entry in out:
        entry["mean_seconds"] = (
            entry["wall_seconds"] / entry["count"] if entry["count"] else 0.0
        )
    return out


def trace_root_seconds(events: Iterable[dict]) -> float:
    """Summed wall time of every root span — the total a trace's
    per-name self times account for."""
    return sum(
        float(event["duration_seconds"])
        for event in events
        if event["parent_id"] is None
    )


def format_aggregate_table(
    rows: list[dict], *, total_seconds: Optional[float] = None
) -> str:
    """Deterministic table rendering of :func:`aggregate_trace` rows.

    The name/count columns size to their content and every time column
    is fixed-width, so the same trace always renders byte-identically
    and two renderings diff cleanly.  ``total_seconds`` (usually
    :func:`trace_root_seconds`) turns on the ``self%`` column.
    """
    name_width = max([len("span")] + [len(row["name"]) for row in rows])
    count_width = max(
        [len("count")] + [len(str(row["count"])) for row in rows]
    )
    pct_header = f" {'self%':>6}" if total_seconds is not None else ""
    lines = [
        f"{'span':<{name_width}} {'count':>{count_width}} "
        f"{'self ms':>10}{pct_header} {'wall ms':>10} {'mean ms':>10}"
        f"  counters"
    ]
    for row in rows:
        if total_seconds is not None:
            if total_seconds > 0:
                pct = f" {100.0 * row['self_seconds'] / total_seconds:5.1f}%"
            else:
                pct = f" {'-':>6}"
        else:
            pct = ""
        counters = ", ".join(
            f"{key}={_render_counter(value)}"
            for key, value in sorted(row["counters"].items())
        )
        lines.append(
            f"{row['name']:<{name_width}} {row['count']:>{count_width}} "
            f"{row['self_seconds'] * 1000.0:10.2f}{pct} "
            f"{row['wall_seconds'] * 1000.0:10.2f} "
            f"{row['mean_seconds'] * 1000.0:10.2f}  {counters}"
        )
    return "\n".join(lines)


def _render_counter(value) -> str:
    if isinstance(value, (int, float)) and value == int(value):
        return str(int(value))
    return f"{value:.6g}" if isinstance(value, float) else str(value)
