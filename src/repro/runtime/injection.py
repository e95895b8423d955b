"""Fault injection (Section 6.2).

The paper's compiler "generated error injection code that randomly
selects memory and mathematical operations, and replaces the original
value with a random value".  Here the interpreter calls
:meth:`ErrorInjector.site` for every value produced by an assignment or
arithmetic operation; the injector counts those sites globally and
corrupts the chosen one (or a run of consecutive ones — the eye-tracking
experiment injects errors at 10 consecutive instructions).

Only type-preserving corruptions are performed (ints→ints, floats→floats,
booleans flip); references are never corrupted, matching the paper's
error model, which assumes type safety is preserved (Section 1.1.2).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.lang import ast


class ErrorInjector:
    """Replaces the value at site ``target_step`` (and the following
    ``burst - 1`` sites) with a random same-typed value."""

    def __init__(
        self,
        target_step: int,
        seed: int = 0,
        burst: int = 1,
        int_range: tuple[int, int] = (-32768, 32767),
        float_range: tuple[float, float] = (-1000.0, 1000.0),
    ) -> None:
        self.target_step = target_step
        self.burst = burst
        self.rng = random.Random(seed)
        self.int_range = int_range
        self.float_range = float_range
        self.step = 0
        self.injected_at: list[int] = []
        self.injection_iteration: Optional[int] = None
        self._current_iteration = 0

    def begin_iteration(self, iteration: int) -> None:
        self._current_iteration = iteration

    def site(self, value: object, node: ast.Node) -> object:
        index = self.step
        self.step += 1
        if not self.target_step <= index < self.target_step + self.burst:
            return value
        corrupted = self._corrupt(value)
        # Identity is not the right test here: randint can return a value
        # equal to the original but not interned (large ints), and such a
        # "corruption" is unobservable — only record value inequality.
        if corrupted != value:
            self.injected_at.append(index)
            if self.injection_iteration is None:
                self.injection_iteration = self._current_iteration
        return corrupted

    def _corrupt(self, value: object) -> object:
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return self.rng.randint(*self.int_range)
        if isinstance(value, float):
            return self.rng.uniform(*self.float_range)
        return value  # references / strings: never corrupted (type safety)

    @property
    def fired(self) -> bool:
        return bool(self.injected_at)

    @property
    def spent(self) -> bool:
        """True once every site this injector may corrupt has passed."""
        return self.step >= self.target_step + self.burst


class StepCounter:
    """Counts injectable sites in a clean run, to pick a uniform target."""

    def __init__(self) -> None:
        self.step = 0

    def begin_iteration(self, iteration: int) -> None:  # noqa: ARG002
        pass

    def site(self, value: object, node: ast.Node) -> object:  # noqa: ARG002
        self.step += 1
        return value
