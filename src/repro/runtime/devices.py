"""Simulated input devices.

``Device.readX()`` calls in sjava programs pull values from a
:class:`DeviceBus`.  Two implementations:

* :class:`IterationKeyedDevice` — values are a pure function of the
  iteration and the read's position in it, the paper's input model.
  Every program the tools run reads through one: the bundled apps with
  their registered generators, fabric nodes with their views, and
  ``repro run``/``repro inject`` with :func:`synthetic_inputs`;
* :class:`ScriptedDevice` — fixed per-function value sequences, for
  tests that need a plain stream.

When an input stream runs dry the device raises :class:`InputExhausted`,
which the interpreter turns into a clean end of the event loop — the
paper's programs run for as long as input frames arrive.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable

from repro.lang.builtins import DEVICE_FUNCTIONS
from repro.lang.types import FLOAT


class InputExhausted(Exception):
    """No more input: the event loop ends."""


class DeviceBus:
    """What an engine reads ``Device.readX()`` values from."""

    def read(self, name: str) -> object:
        raise NotImplementedError


class ScriptedDevice(DeviceBus):
    """Replays fixed sequences; raises :class:`InputExhausted` at the end.

    ``streams`` maps a Device function name to a list of values.
    """

    def __init__(self, streams: dict[str, list]) -> None:
        self._streams = {
            name: iter(tuple(values)) for name, values in streams.items()
        }

    def read(self, name: str) -> object:
        try:
            return next(self._streams[name])
        except KeyError:
            raise InputExhausted(f"no input source for Device.{name}") from None
        except StopIteration:
            raise InputExhausted(f"Device.{name} stream exhausted") from None


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
        index = self._index_in_iteration.get(name, 0)
        self._index_in_iteration[name] = index + 1
        return self.generator(name, self.iteration, index)


#: Readers that ``DEVICE_FUNCTIONS`` declares ``float``.
_FLOAT_READERS = frozenset(
    name for name, sig in DEVICE_FUNCTIONS.items() if sig.check([]) == FLOAT
)


def synthetic_inputs(seed: int) -> Callable[[str, int, int], object]:
    """An :class:`IterationKeyedDevice` generator for any program: each
    value is a pure function of (``seed``, Device function, iteration,
    read index), so a fault that changes one iteration's reads leaves
    every later iteration's inputs as they were.

    Float readers produce a smooth band-limited signal (two sinusoids
    plus seeded noise), so decoder-style programs see plausible
    waveforms; the ``k``-th read of an iteration sits ``k`` ticks after
    its first.  Every other reader produces a small sensor-like int
    from 0 to 15.
    """

    def generator(name: str, iteration: int, index: int) -> object:
        key = f"{seed}:{name}:{iteration}:{index}".encode()
        draw = int.from_bytes(
            hashlib.blake2b(key, digest_size=8).digest(), "big"
        )
        if name not in _FLOAT_READERS:
            return draw % 16
        tick = iteration + index
        base = math.sin(tick * 0.21) + 0.5 * math.sin(tick * 0.043 + 1.0)
        return base + 0.1 * (draw / 2**64) - 0.05

    return generator


class OutputSink:
    """Collects values emitted through SJ.broadcast / SJ.print / SJ.emit."""

    def __init__(self) -> None:
        self.values: list[object] = []

    def emit(self, value: object) -> None:
        self.values.append(value)

    def clear(self) -> None:
        self.values.clear()
