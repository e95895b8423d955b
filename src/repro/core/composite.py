"""Composite location types and lexicographic ordering (Section 3.4).

A composite location is a sequence of location elements: a method-lattice
element followed by zero or more field-lattice elements.  Each element
carries the lattice it is drawn from.  Two distinguished singletons exist
outside any lattice:

* :data:`TOP_LOC` — the location of literals and constants; values here
  may flow anywhere (Section 4.1.2, LITERAL rule);
* :data:`BOT_LOC` — the location of output sinks; anything may flow here.

The ordering is lexicographic (Equation 3.1) with the *prefix-is-higher*
completion: a composite that is a proper prefix of another is strictly
higher ("if a value is high enough to flow to a reference on the path to
a field, it is high enough to flow to the field").

``glb`` implements Fig. 3.2.  Note: case 1 of the figure's pseudo-code
assigns ⊥ to the remaining elements, while the prose says ⊤; ⊤ (here:
truncation, since a prefix is the greatest extension) is the correct
*greatest* lower bound and is what we implement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.core.lattice import Lattice


class Rel(enum.Enum):
    LOWER = "lower"
    EQUAL = "equal"
    HIGHER = "higher"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "Rel":
        if self is Rel.LOWER:
            return Rel.HIGHER
        if self is Rel.HIGHER:
            return Rel.LOWER
        return self


class _Extreme:
    """Base for the TOP/BOT singletons."""

    _NAME = ""

    def __repr__(self) -> str:
        return self._NAME

    def __str__(self) -> str:
        return self._NAME


class TopLocType(_Extreme):
    _NAME = "⊤"


class BotLocType(_Extreme):
    _NAME = "⊥"


TOP_LOC = TopLocType()
BOT_LOC = BotLocType()


@dataclass(frozen=True)
class CompositeLocation:
    """A non-extreme composite location.

    ``elements[i]`` is an element of ``lattices[i]``; lattices are
    compared by identity (each method and class owns exactly one
    :class:`~repro.core.lattice.Lattice` instance).
    """

    elements: tuple[str, ...]
    lattices: tuple[Lattice, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.lattices):
            raise ValueError("elements and lattices must have equal length")
        if not self.elements:
            raise ValueError("a composite location needs at least one element")

    def __len__(self) -> int:
        return len(self.elements)

    def append(self, element: str, lattice: Lattice) -> "CompositeLocation":
        """The ⊕ operator: extend with one more field element."""
        return CompositeLocation(
            self.elements + (element,), self.lattices + (lattice,)
        )

    def prefix(self, length: int) -> "CompositeLocation":
        return CompositeLocation(self.elements[:length], self.lattices[:length])

    @property
    def last_lattice(self) -> Lattice:
        return self.lattices[-1]

    @property
    def last_element(self) -> str:
        return self.elements[-1]

    def is_shared(self) -> bool:
        """True if the final element is a shared location in its lattice."""
        return self.last_lattice.is_shared(self.last_element)

    def __str__(self) -> str:
        return "⟨" + ",".join(self.elements) + "⟩"


Loc = Union[CompositeLocation, TopLocType, BotLocType]


def compare(first: Loc, second: Loc) -> Rel:
    """Lexicographic composite ordering (Equation 3.1 + extremes)."""
    if isinstance(first, TopLocType):
        return Rel.EQUAL if isinstance(second, TopLocType) else Rel.HIGHER
    if isinstance(second, TopLocType):
        return Rel.LOWER
    if isinstance(first, BotLocType):
        return Rel.EQUAL if isinstance(second, BotLocType) else Rel.LOWER
    if isinstance(second, BotLocType):
        return Rel.HIGHER

    for a_elem, a_lat, b_elem, b_lat in zip(
        first.elements, first.lattices, second.elements, second.lattices
    ):
        if a_lat is not b_lat:
            return Rel.INCOMPARABLE
        if a_elem == b_elem:
            continue
        if a_lat.lt(a_elem, b_elem):
            return Rel.LOWER
        if a_lat.lt(b_elem, a_elem):
            return Rel.HIGHER
        return Rel.INCOMPARABLE
    if len(first) == len(second):
        return Rel.EQUAL
    # A proper prefix is strictly higher than its extensions.
    return Rel.HIGHER if len(first) < len(second) else Rel.LOWER


def leq(first: Loc, second: Loc) -> bool:
    """``first ⊑ second``."""
    return compare(first, second) in (Rel.LOWER, Rel.EQUAL)


def lt(first: Loc, second: Loc) -> bool:
    """``first ⊏ second``."""
    return compare(first, second) is Rel.LOWER


def glb(first: Loc, second: Loc) -> Loc:
    """Greatest lower bound of two composite locations (Fig. 3.2).

    May raise :class:`repro.core.lattice.NotALatticeError` when a manual
    lattice lacks a unique meet for an element pair.
    """
    if isinstance(first, TopLocType):
        return second
    if isinstance(second, TopLocType):
        return first
    if isinstance(first, BotLocType) or isinstance(second, BotLocType):
        return BOT_LOC

    length = min(len(first), len(second))
    for index in range(length):
        a_lat = first.lattices[index]
        if a_lat is not second.lattices[index]:
            # Elements from different lattices: no common structure below
            # the shared prefix, so the GLB collapses to ⊥.
            return BOT_LOC
        a_elem = first.elements[index]
        b_elem = second.elements[index]
        if a_elem == b_elem:
            continue
        meet = a_lat.glb(a_elem, b_elem)
        if meet == a_elem:
            return first  # case 2: first is (weakly) below second here
        if meet == b_elem:
            return second  # case 3
        # Case 1: the meet is strictly below both; the greatest composite
        # starting with it is the bare prefix (⊤-filled remainder).
        return CompositeLocation(
            first.elements[:index] + (meet,), first.lattices[:index] + (a_lat,)
        )
    # One is a prefix of the other (or they are equal): the longer/lower
    # composite is the GLB (case 4 exhausting one side).
    return first if len(first) >= len(second) else second


def glb_all(locs: list[Loc]) -> Loc:
    result: Loc = TOP_LOC
    for loc in locs:
        result = glb(result, loc)
    return result


@dataclass(frozen=True)
class FlowJudgment:
    """Result of a flow-down query: allowed, and whether it relied on a
    shared location (the eviction analysis must then check simultaneous
    clearing, Section 4.1.8)."""

    allowed: bool
    via_shared: bool = False
    reason: str = ""


def can_flow(source: Loc, dest: Loc) -> FlowJudgment:
    """The flow-down rule for one value flow ``source → dest``.

    Values move only to *strictly* lower locations (Section 3.2: the type
    checking rules rely on the strict partial ordering), with two
    exceptions: ⊤ sources (literals/constants/fresh input) flow anywhere,
    and flows between identical *shared* locations are permitted pending
    the shared-clearing check.
    """
    if isinstance(source, TopLocType):
        return FlowJudgment(True, reason="source is ⊤")
    if isinstance(dest, BotLocType):
        return FlowJudgment(True, reason="destination is ⊥")
    relation = compare(dest, source)
    if relation is Rel.LOWER:
        return FlowJudgment(True)
    if (
        relation is Rel.EQUAL
        and isinstance(dest, CompositeLocation)
        and dest.is_shared()
    ):
        return FlowJudgment(True, via_shared=True)
    return FlowJudgment(
        False,
        reason=f"destination {dest} is {relation.value} w.r.t. source {source}",
    )


def pc_allows(pc: Loc, dest: Loc) -> FlowJudgment:
    """Check the implicit-flow premise: the program counter location must
    be strictly higher than any assignment destination (Section 4.1.4)."""
    if isinstance(pc, TopLocType):
        return FlowJudgment(True, reason="pc is ⊤")
    return can_flow(pc, dest)


