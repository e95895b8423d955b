"""Structured, leveled, trace-correlated event log.

Spans (:mod:`repro.obs.trace`) answer *how long*; metrics
(:mod:`repro.obs.metrics`) answer *how many*; events answer *what
happened* — a corruption was injected at site 412, iteration 7; the
outputs re-converged 3 iterations later; a shard infra-failed after two
retries.  Each event is one flat JSON object carrying:

* a **level** (``debug`` < ``info`` < ``warn`` < ``error``) gated by the
  log's threshold, so per-iteration telemetry costs nothing unless
  someone asked for ``debug``;
* the **active trace/span id** read from the installed tracer at emit
  time, so events join spans on ``(trace_id, span_id)`` the way
  Dapper-style pipelines correlate logs with traces;
* a **monotonic, injectable clock** and a process-local sequence
  number, so tests produce byte-identical streams;
* a ``schema``-versioned envelope whose executable validator is
  :func:`validate_event_record` (golden file:
  ``tests/obs/golden/events.golden.jsonl``).

Like tracing, event logging is strictly opt-in: the default log is a
:class:`NullEventLog` whose :meth:`~NullEventLog.emit` is a no-op, so
instrumented hot paths (the runtime event loop, injection trials) pay
one global read and a method call when events are disabled — pinned by
a micro-benchmark in ``tests/obs/test_events.py``.

Sinks are anything with ``write(record: dict)``:
:class:`JsonlEventWriter` appends one event per line through the
atomic-append machinery of :class:`repro.obs.sinks.JsonlWriter`;
:class:`EventBuffer` keeps the last N events in memory (the daemon's
``events`` op); :class:`LoggingBridge` forwards every record to the
stdlib :mod:`logging` tree under the ``repro`` logger, so third-party
embedders see our events through whatever logging setup they already
run.
"""

from __future__ import annotations

import collections
import json
import logging
import threading
import time
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.obs.sinks import JsonlWriter, read_jsonl
from repro.obs.slot import Slot
from repro.obs.trace import get_tracer

#: Bump when the event envelope layout changes.
EVENTS_SCHEMA = 1

#: Severity levels, least to most severe.
LEVELS = ("debug", "info", "warn", "error")

_LEVEL_RANK = {level: rank for rank, level in enumerate(LEVELS)}

#: stdlib logging equivalents, for :class:`LoggingBridge` and the CLI's
#: ``--log-level`` flag.
PY_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warn": logging.WARNING,
    "error": logging.ERROR,
}


class EventError(ValueError):
    """An event stream violated the documented JSONL schema."""


def level_rank(level: str) -> int:
    """Numeric severity of ``level``; raises :class:`EventError` on an
    unknown name so typos fail loudly at the call site."""
    try:
        return _LEVEL_RANK[level]
    except KeyError:
        raise EventError(
            f"unknown event level {level!r}; levels: {LEVELS}"
        ) from None


class EventLog:
    """Produces structured event records and fans them out to sinks.

    ``level`` is the emission threshold (events below it vanish before
    the envelope is even built).  ``sample`` maps an event *name* to a
    keep-1-in-N sampling interval — counter-based, not random, so a
    sampled stream is deterministic and replayable.  ``clock`` defaults
    to :func:`time.monotonic` and is injectable for byte-deterministic
    tests.
    """

    enabled = True

    def __init__(
        self,
        *,
        level: str = "info",
        sinks: Sequence = (),
        clock: Callable[[], float] = time.monotonic,
        sample: Optional[dict[str, int]] = None,
    ) -> None:
        self.level = level
        self._threshold = level_rank(level)
        self.sinks = list(sinks)
        self.clock = clock
        self.sample = dict(sample or {})
        for name, every in self.sample.items():
            if not isinstance(every, int) or every < 1:
                raise EventError(
                    f"sample interval for {name!r} must be a positive "
                    f"int, got {every!r}"
                )
        self._seen: dict[str, int] = {}
        self._seq = 0
        self._lock = threading.Lock()

    def enabled_for(self, level: str) -> bool:
        """True when events at ``level`` pass the threshold — the guard
        instrumented code uses before computing expensive attributes
        (per-iteration digests, say)."""
        return level_rank(level) >= self._threshold

    def emit(
        self, name: str, message: str = "", *, level: str = "info", **attrs
    ) -> Optional[dict]:
        """Record one event; returns the emitted envelope, or ``None``
        when the level gate or the sampler dropped it."""
        if level_rank(level) < self._threshold:
            return None
        with self._lock:
            every = self.sample.get(name)
            if every is not None:
                seen = self._seen.get(name, 0)
                self._seen[name] = seen + 1
                if seen % every:
                    return None
            self._seq += 1
            seq = self._seq
        span = get_tracer().current()
        record = {
            "schema": EVENTS_SCHEMA,
            "event": "log",
            "seq": seq,
            "time_seconds": self.clock(),
            "level": level,
            "name": name,
            "message": message,
            "trace_id": None if span is None else span.trace_id,
            "span_id": None if span is None else span.span_id,
            "attrs": attrs,
        }
        for sink in self.sinks:
            sink.write(record)
        return record


class NullEventLog:
    """The disabled event log: ``emit`` does nothing.  Kept trivial —
    this object sits inside the runtime's event loop."""

    enabled = False
    level = "error"
    sinks: list = []

    def enabled_for(self, level: str) -> bool:
        return False

    def emit(
        self, name: str, message: str = "", *, level: str = "info", **attrs
    ) -> None:
        return None


#: The process-wide event log instrumented code reports to.
_EVENT_LOG: Slot[EventLog | NullEventLog] = Slot(NullEventLog())
get_event_log = _EVENT_LOG.get
set_event_log = _EVENT_LOG.set
installed_event_log = _EVENT_LOG.installed


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class JsonlEventWriter(JsonlWriter):
    """Appends one event record per line; atomic at line granularity
    (see :class:`repro.obs.sinks.JsonlWriter`)."""


class EventBuffer:
    """Keeps the most recent ``capacity`` event records in memory —
    the daemon's ``events`` op reads from one of these."""

    def __init__(self, capacity: int = 512) -> None:
        self._records: collections.deque[dict] = collections.deque(
            maxlen=capacity
        )
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


class LoggingBridge:
    """Forwards event records to stdlib :mod:`logging`.

    Third-party embedders that already run a logging setup attach one of
    these (or install an :class:`EventLog` containing one via
    :func:`set_event_log`) and our structured events surface as ordinary
    log records under the ``repro.<event name>`` hierarchy — level
    mapped through :data:`PY_LEVELS`, attributes rendered as sorted
    ``key=value`` pairs.
    """

    def __init__(self, logger: Optional[logging.Logger] = None) -> None:
        self.logger = logger if logger is not None else logging.getLogger(
            "repro"
        )

    def write(self, record: dict) -> None:
        level = PY_LEVELS.get(record["level"], logging.INFO)
        logger = self.logger.getChild(record["name"])
        if not logger.isEnabledFor(level):
            return
        attrs = record["attrs"]
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        parts = [part for part in (record["message"], detail) if part]
        logger.log(level, "%s", " ".join(parts) if parts else record["name"])


# ---------------------------------------------------------------------------
# Reading streams back
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = (
    "schema", "event", "seq", "time_seconds", "level", "name", "message",
    "trace_id", "span_id", "attrs",
)


def validate_event_record(record: dict) -> None:
    """Raise :class:`EventError` unless ``record`` is a well-formed
    event envelope (the schema in ``docs/OBSERVABILITY.md``)."""
    if not isinstance(record, dict):
        raise EventError("event record must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in record]
    if missing:
        raise EventError(f"event record missing keys {missing}")
    if record["schema"] != EVENTS_SCHEMA:
        raise EventError(
            f"unsupported events schema {record['schema']!r} "
            f"(speaking {EVENTS_SCHEMA})"
        )
    if record["event"] != "log":
        raise EventError(f"unknown event kind {record['event']!r}")
    if not isinstance(record["seq"], int) or record["seq"] < 1:
        raise EventError("seq must be a positive int")
    if not isinstance(record["time_seconds"], (int, float)):
        raise EventError("time_seconds must be a number")
    if record["level"] not in _LEVEL_RANK:
        raise EventError(f"unknown event level {record['level']!r}")
    if not isinstance(record["name"], str) or not record["name"]:
        raise EventError("event needs a non-empty name")
    if not isinstance(record["message"], str):
        raise EventError("message must be a string")
    if record["trace_id"] is not None and not isinstance(
        record["trace_id"], str
    ):
        raise EventError("trace_id must be a string or null")
    if record["span_id"] is not None and not isinstance(
        record["span_id"], int
    ):
        raise EventError("span_id must be an int or null")
    if not isinstance(record["attrs"], dict):
        raise EventError("attrs must be an object")


def read_events(path) -> list[dict]:
    """Parse and validate a JSONL events file.

    A truncated final line (crashed writer) is skipped with a
    :class:`~repro.obs.sinks.TraceWarning`; see
    :func:`repro.obs.sinks.read_jsonl`.
    """
    return read_jsonl(path, validate=validate_event_record, error=EventError)


def validate_events(path) -> list[dict]:
    """:func:`read_events` plus a non-emptiness check — the executable
    form CI runs over the smoke campaign's events artifact."""
    records = read_events(path)
    if not records:
        raise EventError(f"{path}: events file holds no event records")
    return records


def filter_events(
    records: Iterable[dict],
    *,
    min_level: Optional[str] = None,
    name: Optional[str] = None,
    trace_id: Optional[str] = None,
    span_id: Optional[int] = None,
    tail: Optional[int] = None,
) -> list[dict]:
    """The shared filter behind ``repro events`` and the daemon's
    ``events`` op: severity floor, substring name match, exact
    trace/span correlation, last-N tail (applied after the filters)."""
    floor = level_rank(min_level) if min_level is not None else 0
    out = [
        record for record in records
        if _LEVEL_RANK[record["level"]] >= floor
        and (name is None or name in record["name"])
        and (trace_id is None or record["trace_id"] == trace_id)
        and (span_id is None or record["span_id"] == span_id)
    ]
    if tail is not None and tail >= 0:
        out = out[len(out) - min(tail, len(out)):]
    return out


def follow_events(
    path,
    *,
    poll_seconds: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[dict]:
    """Yield validated event records from a JSONL file as they are
    appended — ``tail -f`` for ``--events`` streams, no daemon needed.

    Polls by byte offset every ``poll_seconds``.  The same crashed-writer
    tolerance as :func:`repro.obs.sinks.read_jsonl`, live: a final line
    still missing its newline is an in-flight ``os.write``, so it stays
    buffered until the rest arrives instead of being parsed half-done.
    A *complete* line that fails validation raises :class:`EventError` —
    that was a full write, so corruption there is real.  A file that
    does not exist yet is waited for.  ``stop`` (checked once per poll)
    and ``sleep`` are injectable so tests can drive the loop without
    wall-clock time; without a ``stop``, iterate until interrupted.
    """
    from pathlib import Path

    target = Path(path)
    offset = 0
    buffer = b""
    while True:
        chunk = b""
        if target.exists():
            with open(target, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset += len(chunk)
        if chunk:
            buffer += chunk
            while True:
                line, newline, rest = buffer.partition(b"\n")
                if not newline:
                    break
                buffer = rest
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise EventError(
                        f"{target}: invalid JSON on a complete line: {exc}"
                    ) from exc
                validate_event_record(record)
                yield record
            continue  # a burst may already hold more complete lines
        if stop is not None and stop():
            return
        sleep(poll_seconds)


def format_event(record: dict) -> str:
    """One deterministic human-readable line per event."""
    attrs = record["attrs"]
    detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    correlation = (
        f"  ({record['trace_id']}/{record['span_id']})"
        if record["trace_id"] is not None else ""
    )
    parts = [part for part in (record["message"], detail) if part]
    body = f"  {' '.join(parts)}" if parts else ""
    return (
        f"{record['time_seconds']:12.6f} {record['level']:<5} "
        f"{record['name']}{body}{correlation}"
    )
