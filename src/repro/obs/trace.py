"""Structured tracing: nested spans with wall/CPU time and counters.

A :class:`Span` records one timed operation — a checker pass, an
inference phase, a service request, a campaign shard.  Spans nest: the
:class:`Tracer` keeps a *thread-local* stack of open spans, so two
service handler threads tracing concurrently each grow their own
well-nested tree and never interleave.

Tracing is opt-in.  The default tracer is a :class:`NullTracer` whose
``span()`` hands back one shared no-op object, so instrumented hot paths
(the checker pipeline, injection trials, the inference fixpoint) cost a
single attribute lookup and a method call when tracing is disabled —
``tests/obs/test_trace.py`` pins that overhead with a micro-benchmark.

When a span *closes* it is emitted to every configured sink (see
:mod:`repro.obs.sinks`): children close before their parents, so a
streamed JSONL trace always ends each tree with its closed root span.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.slot import Slot

#: Bump when the span event layout (``span_event``) changes.
TRACE_SCHEMA = 1


class Span:
    """One timed, named, attributed operation in a trace tree."""

    __slots__ = (
        "name", "attrs", "counters", "children", "parent",
        "trace_id", "span_id", "start_seconds", "duration_seconds",
        "_start_cpu", "cpu_seconds", "remote_parent",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        *,
        trace_id: str,
        span_id: int,
        parent: Optional["Span"],
        start_seconds: float,
        start_cpu: float,
        remote_parent: Optional[int] = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.parent = parent
        self.trace_id = trace_id
        self.span_id = span_id
        self.start_seconds = start_seconds
        self._start_cpu = start_cpu
        self.duration_seconds: Optional[float] = None
        self.cpu_seconds: Optional[float] = None
        #: Span id of a parent living in *another process* (attached via
        #: :meth:`Tracer.attached`); only ever set on local roots.
        self.remote_parent = remote_parent

    # -- recording -------------------------------------------------------

    def set_attr(self, name: str, value) -> None:
        self.attrs[name] = value

    def count(self, name: str, amount: float = 1) -> None:
        """Accumulate a named counter on this span (steps, cache hits…)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- introspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.duration_seconds is not None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def child_seconds(self) -> dict[str, float]:
        """Summed duration of direct children, keyed by span name —
        the per-phase timings the service reports."""
        totals: dict[str, float] = {}
        for child in self.children:
            if child.duration_seconds is not None:
                totals[child.name] = (
                    totals.get(child.name, 0.0) + child.duration_seconds
                )
        return totals

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Nested JSON form (the ring-buffer/inspection shape; the JSONL
        wire form is the flat :func:`span_event`)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_seconds:.6f}s" if self.closed else "open"
        return f"<Span {self.name!r} {state} children={len(self.children)}>"


def span_event(span: Span) -> dict:
    """The flat, one-line JSONL form of one closed span.

    A local root carrying a *remote* parent (a span in another process,
    attached via :meth:`Tracer.attached`) emits that parent's id as its
    ``parent_id`` plus a ``remote_parent: true`` marker, so
    :func:`repro.obs.propagate.merge_traces` knows the id belongs to the
    driver's numbering, not this file's.  Purely local spans emit the
    exact key set they always did — the golden trace stays byte-stable.
    """
    if span.parent is not None:
        parent_id = span.parent.span_id
    else:
        parent_id = span.remote_parent
    event = {
        "schema": TRACE_SCHEMA,
        "event": "span",
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": parent_id,
        "name": span.name,
        "start_seconds": span.start_seconds,
        "duration_seconds": span.duration_seconds,
        "cpu_seconds": span.cpu_seconds,
        "attrs": dict(span.attrs),
        "counters": dict(span.counters),
    }
    if span.parent is None and span.remote_parent is not None:
        event["remote_parent"] = True
    return event


class Tracer:
    """Produces nested spans with thread-local context.

    ``sinks`` is a sequence of objects with an ``emit(span)`` method;
    every span is emitted exactly once, when it closes (children before
    parents).  ``wall_clock``/``cpu_clock`` are injectable so tests can
    produce byte-deterministic traces.
    """

    enabled = True

    def __init__(
        self,
        *,
        sinks: tuple = (),
        wall_clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.sinks = list(sinks)
        self.wall_clock = wall_clock
        self.cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span_id = 0
        self._next_trace_id = 0

    # -- sinks -----------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach ``sink`` (anything with ``emit(span)``) to this live
        tracer — how the bench runner taps an already-installed tracer
        for per-scenario span tables without disturbing its streams."""
        self.sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach a sink previously added with :meth:`add_sink`."""
        self.sinks.remove(sink)

    # -- span context ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def attached(self, context) -> Iterator[None]:
        """Attach a remote parent context to this thread.

        ``context`` is anything with ``trace_id``/``span_id`` attributes
        (normally a :class:`repro.obs.propagate.TraceContext` parsed
        from a traceparent string), or ``None`` for a no-op attach.
        While attached, *root* spans this thread opens adopt the remote
        trace id and record the remote span id as their
        :attr:`Span.remote_parent` — the cross-process half of the
        parent chain that :func:`repro.obs.propagate.merge_traces`
        stitches back together.  Non-root spans are untouched.
        """
        previous = getattr(self._local, "remote", None)
        self._local.remote = context
        try:
            yield
        finally:
            self._local.remote = previous

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        remote = (
            getattr(self._local, "remote", None) if parent is None else None
        )
        with self._lock:
            self._next_span_id += 1
            span_id = self._next_span_id
            if parent is not None:
                trace_id = parent.trace_id
            elif remote is not None:
                trace_id = remote.trace_id
            else:
                self._next_trace_id += 1
                trace_id = f"t{self._next_trace_id}"
        span = Span(
            name,
            attrs,
            trace_id=trace_id,
            span_id=span_id,
            parent=parent,
            start_seconds=self.wall_clock(),
            start_cpu=self.cpu_clock(),
            remote_parent=None if remote is None else remote.span_id,
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.duration_seconds = self.wall_clock() - span.start_seconds
            span.cpu_seconds = self.cpu_clock() - span._start_cpu
            stack.pop()
            for sink in self.sinks:
                sink.emit(span)


class _NullSpan:
    """The shared do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()
    name = "<null>"
    attrs: dict = {}
    counters: dict = {}
    children: list = []
    duration_seconds = None
    cpu_seconds = None
    closed = False
    is_root = False
    remote_parent = None

    def set_attr(self, name: str, value) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def child_seconds(self) -> dict:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: ``span()`` is a shared no-op context manager.

    Kept deliberately trivial — this object sits on every hot path in
    the checker, the inference engine and the injection backends.
    """

    enabled = False
    sinks: list = []

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def attached(self, context) -> _NullSpan:
        # The shared null span doubles as a no-op context manager, so
        # attaching a remote context with tracing off costs one call.
        return _NULL_SPAN


#: The process-wide tracer instrumented code reports to.
_TRACER: Slot[Tracer | NullTracer] = Slot(NullTracer())
get_tracer = _TRACER.get
set_tracer = _TRACER.set
installed_tracer = _TRACER.installed


@contextmanager
def timed_span(
    name: str, timings: dict[str, float], **attrs
) -> Iterator[Span | _NullSpan]:
    """Open a span *and* accumulate its wall time into ``timings[name]``.

    Instrumented pipelines report per-phase timings on their wire
    payloads whether or not tracing is enabled; this helper keeps the
    span tree and the timings dict from drifting apart.
    """
    start = time.perf_counter()
    with get_tracer().span(name, **attrs) as span:
        try:
            yield span
        finally:
            timings[name] = (
                timings.get(name, 0.0) + time.perf_counter() - start
            )
