"""The process-wide install point every instrument shares.

The tracer, the event log, the profiler, the resource monitor and the
chaos injector are each reached through one :class:`Slot` holding a
null default.  Instrumented code reads the slot (``get_tracer()`` is
``Slot.get``) and pays one call when the instrument is off; CLI
commands and tests install a live object for a scope with
``installed_*`` and get the previous one back on exit.

:data:`NULL_SECTION` is the shared no-op context manager the null
profiler and null resource monitor hand out for ``section(name)``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class Slot(Generic[T]):
    """One process-wide instrument with a null default."""

    __slots__ = ("null", "_current", "_lock")

    def __init__(self, null: T) -> None:
        self.null = null
        self._current = null
        self._lock = threading.Lock()

    def get(self) -> T:
        """The installed instrument (the null default when none is)."""
        return self._current

    def set(self, value: Optional[T]) -> T:
        """Install ``value`` (None restores the null default); returns
        the previously installed instrument so callers can restore it."""
        with self._lock:
            previous = self._current
            self._current = value if value is not None else self.null
        return previous

    @contextmanager
    def installed(self, value: T) -> Iterator[T]:
        """Scoped :meth:`set`: the previous instrument is restored on
        exit, so tests and CLI commands cannot leak state."""
        previous = self.set(value)
        try:
            yield value
        finally:
            self.set(previous)


class _NullSection:
    """A do-nothing context manager: one call on the hot path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SECTION = _NullSection()
