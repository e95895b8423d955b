"""The traced run's span recorder and per-layer accounting.

Spans are recorded from the benchmark's side of each layer boundary.
The harness opens a root span per op (``op.check``, ``op.shard``, ...),
and :func:`instrument` temporarily wraps the public functions one layer
calls in another (``repro.apps.registry.parse_program`` inside
``load_app``, the engine's ``run`` inside a trial, ...), so nested calls
get spans too.  Nothing under ``src/`` changes and ``repro``'s own
tracer stays off.

A span's layer is the first dotted component of its name (``lang.parse``
belongs to ``lang``); ``op.*`` roots belong to the ``harness`` layer.  A
span's self time is its duration minus the part of that interval its
children cover, so the self times of one op's spans add up to the op's
wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

#: Every layer a span can belong to, in table order.
LAYERS = (
    "harness", "lang", "core", "infer", "service", "runtime", "campaign",
    "dist",
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float
    attrs: Optional[dict] = None

    @property
    def layer(self) -> str:
        head = self.name.split(".", 1)[0]
        return "harness" if head == "op" else head

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        record = {
            "id": self.id, "parent": self.parent, "op": self.op,
            "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


@dataclass(frozen=True)
class OpenSpan:
    """What :meth:`Recorder.span` yields: enough to attach children
    measured elsewhere (the daemon's own timings) after the fact."""

    id: int
    op: int


class Recorder:
    """In-memory spans; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return bool(self._stack())

    @contextmanager
    def span(self, name: str, attrs: Optional[dict] = None) -> Iterator[OpenSpan]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        current = OpenSpan(sid, parent.op if parent else sid)
        stack.append(current)
        start = self.clock()
        try:
            yield current
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(
                sid, parent.id if parent else None, current.op, name,
                start, end, attrs,
            ))

    def add(
        self, parent: OpenSpan, name: str, start: float, end: float,
        attrs: Optional[dict] = None,
    ) -> None:
        """Record a finished child of ``parent`` timed elsewhere."""
        self.spans.append(
            Span(next(self._ids), parent.id, parent.op, name, start, end, attrs)
        )

    def wrap(
        self, fn: Callable, name: str,
        attrs: Optional[Callable[..., dict]] = None,
    ) -> Callable:
        """``fn`` with a span around every call made inside an open span.
        Calls outside any op (the differential oracle) pass straight
        through, so they never show up as roots."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            extra = attrs(*args, **kwargs) if attrs is not None else None
            with self.span(name, extra):
                return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.to_dict()) + "\n")


@contextmanager
def instrument(recorder: Recorder, targets: Iterable[tuple]) -> Iterator[None]:
    """Wrap ``owner.attribute`` with a span for each
    ``(owner, attribute, span name[, attrs function])`` target; restore
    every attribute on exit.  Owners are modules or classes."""
    saved = []
    try:
        for owner, attribute, name, *rest in targets:
            own = vars(owner)
            saved.append((owner, attribute, own.get(attribute), attribute in own))
            setattr(owner, attribute, recorder.wrap(
                getattr(owner, attribute), name, rest[0] if rest else None
            ))
        yield
    finally:
        for owner, attribute, original, owned in reversed(saved):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of child spans."""
    total = 0.0
    cursor = start
    for child in sorted(children, key=lambda s: s.start):
        lo = max(child.start, cursor)
        hi = min(child.end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.id: span.duration - _covered(span.start, span.end, children[span.id])
        for span in spans
    }


@dataclass
class LayerTable:
    wall: float  # summed root (op) wall time, seconds
    layer_self: dict[str, float]
    name_self: dict[str, float]
    name_calls: dict[str, int]
    max_error_pct: float  # worst |sum(self) - root| / root over ops
    ops: int

    def share(self, layer: str) -> float:
        return self.layer_self.get(layer, 0.0) / self.wall if self.wall else 0.0

    def rate(self, name: str) -> float:
        """Calls of ``name`` per second of its own self time (0 when
        the workload never makes that call)."""
        busy = self.name_self.get(name, 0.0)
        return self.name_calls.get(name, 0) / busy if busy > 0 else 0.0


def layer_table(spans: list[Span]) -> LayerTable:
    selfs = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    name_calls: dict[str, int] = defaultdict(int)
    op_self: dict[int, float] = defaultdict(float)
    for span in spans:
        layer_self[span.layer] += selfs[span.id]
        name_self[span.name] += selfs[span.id]
        name_calls[span.name] += 1
        op_self[span.op] += selfs[span.id]
    roots = [span for span in spans if span.parent is None]
    errors = [
        abs(op_self[root.id] - root.duration) / root.duration * 100.0
        for root in roots if root.duration > 0
    ]
    return LayerTable(
        wall=sum(root.duration for root in roots),
        layer_self=dict(layer_self),
        name_self=dict(name_self),
        name_calls=dict(name_calls),
        max_error_pct=max(errors, default=0.0),
        ops=len(roots),
    )


def durations(spans: list[Span], name: str) -> list[float]:
    return [span.duration for span in spans if span.name == name]


def format_table(table: LayerTable) -> str:
    lines = [f"{'layer':<10} {'self_s':>10} {'share':>8}"]
    for layer in LAYERS:
        lines.append(
            f"{layer:<10} {table.layer_self.get(layer, 0.0):>10.4f} "
            f"{table.share(layer):>8.2%}"
        )
    lines.append(
        f"{'total':<10} {table.wall:>10.4f} over {table.ops} ops; "
        f"worst self-time sum error {table.max_error_pct:.4f}%"
    )
    return "\n".join(lines)
