"""Simulated input devices.

``Device.readX()`` calls in sjava programs pull values from a
:class:`DeviceBus`.  Two implementations:

* :class:`ScriptedDevice` — fixed per-function value sequences, for
  deterministic tests and replayable experiments;
* :class:`SyntheticDevice` — deterministic pseudo-random generators per
  function, seeded, for long experiment runs.

When a scripted stream runs dry the device raises :class:`InputExhausted`,
which the interpreter turns into a clean end of the event loop — the
paper's programs run for as long as input frames arrive.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional


class InputExhausted(Exception):
    """No more input: the event loop ends."""


class DeviceBus:
    """Base device: every read raises unless a source is registered."""

    def __init__(self) -> None:
        self._sources: dict[str, Callable[[], object]] = {}
        self.reads = 0

    def register(self, name: str, source: Callable[[], object]) -> None:
        self._sources[name] = source

    def read(self, name: str) -> object:
        self.reads += 1
        source = self._sources.get(name)
        if source is None:
            raise InputExhausted(f"no input source for Device.{name}")
        return source()


class ScriptedDevice(DeviceBus):
    """Replays fixed sequences; raises :class:`InputExhausted` at the end.

    ``streams`` maps a Device function name to a list of values.
    """

    def __init__(self, streams: dict[str, list]) -> None:
        super().__init__()
        self.streams = {name: list(values) for name, values in streams.items()}
        self._cursors = {name: 0 for name in streams}
        for name in streams:
            self.register(name, self._make_reader(name))

    def _make_reader(self, name: str) -> Callable[[], object]:
        def reader() -> object:
            cursor = self._cursors[name]
            values = self.streams[name]
            if cursor >= len(values):
                raise InputExhausted(f"Device.{name} stream exhausted")
            self._cursors[name] = cursor + 1
            return values[cursor]

        return reader


class SyntheticDevice(DeviceBus):
    """Deterministic pseudo-random inputs with realistic shapes:

    * int readers produce small non-negative sensor-like values;
    * float readers produce smooth band-limited signals (sums of
      sinusoids plus seeded noise), so decoder-style programs see
      plausible waveforms.
    """

    def __init__(self, seed: int = 0, limit: Optional[int] = None) -> None:
        super().__init__()
        self.rng = random.Random(seed)
        self.limit = limit
        self._count = 0
        self._phase: dict[str, int] = {}

    def read(self, name: str) -> object:
        if self.limit is not None and self._count >= self.limit:
            raise InputExhausted("synthetic input limit reached")
        self._count += 1
        self.reads += 1
        source = self._sources.get(name)
        if source is not None:
            return source()
        return self._default_read(name)

    def _default_read(self, name: str) -> object:
        tick = self._phase.get(name, 0)
        self._phase[name] = tick + 1
        if name in ("readTemp", "readHumidity", "readFloat", "readSample"):
            base = math.sin(tick * 0.21) + 0.5 * math.sin(tick * 0.043 + 1.0)
            return base + self.rng.uniform(-0.05, 0.05)
        # int-like sensors
        return self.rng.randint(0, 15)


class IterationKeyedDevice(DeviceBus):
    """Inputs are a pure function of (iteration, function name, read index
    within the iteration).

    This encodes the paper's error-model assumption that input reads are
    performed unconditionally every iteration (Section 1.1.2): even if a
    fault makes one iteration read a different *number* of values, the
    next iteration's inputs are unaffected, so reference and injected
    runs see identical post-fault input streams.

    ``generator(name, iteration, index) -> value``; ``iterations`` bounds
    the event loop (reads beyond it raise :class:`InputExhausted`).
    """

    def __init__(
        self,
        generator: Callable[[str, int, int], object],
        iterations: int,
    ) -> None:
        super().__init__()
        self.generator = generator
        self.iterations = iterations
        self.iteration = 0
        self._index_in_iteration: dict[str, int] = {}

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._index_in_iteration.clear()

    def position(self) -> tuple:
        """Everything the next read depends on besides the generator:
        the iteration and the per-function read counts within it."""
        return self.iteration, tuple(sorted(self._index_in_iteration.items()))

    def seek(self, position: tuple) -> None:
        """Continue from a :meth:`position` another device reached."""
        self.iteration, counts = position
        self._index_in_iteration = dict(counts)

    def read(self, name: str) -> object:
        if self.iteration >= self.iterations:
            raise InputExhausted("input stream complete")
        self.reads += 1
        index = self._index_in_iteration.get(name, 0)
        self._index_in_iteration[name] = index + 1
        return self.generator(name, self.iteration, index)


class OutputSink:
    """Collects values emitted through SJ.broadcast / SJ.print / SJ.emit."""

    def __init__(self) -> None:
        self.values: list[object] = []

    def emit(self, value: object) -> None:
        self.values.append(value)

    def clear(self) -> None:
        self.values.clear()
