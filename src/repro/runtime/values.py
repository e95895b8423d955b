"""Runtime value representations for the interpreter.

Primitives map to Python natives (``int``, ``float``, ``bool``, ``str``);
references are :class:`ObjectVal`, :class:`ArrayVal`, :class:`BufferVal`
or ``None`` (Java ``null``).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.lang import ast


class ObjectVal:
    """An instance of a user class: a mutable field record."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name: str, fields: Optional[dict] = None) -> None:
        self.class_name = class_name
        self.fields: dict[str, object] = fields if fields is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectVal({self.class_name}, {self.fields})"


class ArrayVal:
    """A fixed-length array of primitives."""

    __slots__ = ("items", "default")

    def __init__(self, length: int, default: object) -> None:
        self.items: list[object] = [default] * length
        self.default = default

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayVal({self.items!r})"


class BufferVal:
    """The SJava library ordered buffer (Section 4.1.3).

    ``insert`` shifts every element one position down and writes the new
    value at index 0 — so index 0 is the newest value and index
    ``capacity-1`` the oldest, mirroring the paper's "first element
    lowest, last highest" ordering of locations.
    """

    __slots__ = ("items", "default")

    def __init__(self, capacity: int, default: object) -> None:
        self.items: list[object] = [default] * capacity
        self.default = default

    def insert(self, value: object) -> None:
        self.items.insert(0, value)
        self.items.pop()

    def get(self, index: int) -> object:
        return self.items[index]

    def size(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BufferVal({self.items!r})"


#: The reference types; every other runtime value is an immutable primitive.
REFERENCE_TYPES = (ObjectVal, ArrayVal, BufferVal)


def copy_graph(roots: Sequence[object]) -> list[object]:
    """Copies of ``roots`` and everything they reach, with one copy per
    original object, so aliasing among and within the roots survives.
    Primitives are immutable and shared.  An array whose ``default`` is
    not None has a primitive element type (the type checker guarantees
    it), so its items are copied without a scan."""
    copies: dict[int, object] = {}
    pending: list[object] = []

    def visit(value: object) -> object:
        kind = type(value)
        if kind not in REFERENCE_TYPES:
            return value
        twin = copies.get(id(value))
        if twin is None:
            if kind is ObjectVal:
                twin = ObjectVal(value.class_name, dict(value.fields))
                pending.append(twin)
            else:
                twin = kind.__new__(kind)
                twin.items = list(value.items)
                twin.default = value.default
                if value.default is None:
                    pending.append(twin)
            copies[id(value)] = twin
        return twin

    result = [visit(root) for root in roots]
    while pending:
        twin = pending.pop()
        if type(twin) is ObjectVal:
            fields = twin.fields
            for name, value in fields.items():
                fields[name] = visit(value)
        else:
            twin.items[:] = map(visit, twin.items)
    return result


def _same_primitive(left: object, right: object) -> bool:
    if left is right:
        return True
    if type(left) is not type(right) or left != right:
        return False
    return (
        type(left) is not float or left != 0.0
        or math.copysign(1.0, left) == math.copysign(1.0, right)
    )


def same_graph(left: Sequence[object], right: Sequence[object]) -> bool:
    """Whether two heaps, given as parallel root lists, are the same up
    to object identity: one-to-one corresponding objects of the same
    class and shape, the same aliasing, and primitives that behave
    identically from here on: the same object, or equal values of one
    type that are not zeros of opposite sign (``1``, ``1.0`` and
    ``True`` differ; ``-0.0`` and ``0.0`` differ; distinct NaNs differ)."""
    if len(left) != len(right):
        return False
    paired: dict[int, object] = {}
    taken: set[int] = set()
    pending = list(zip(left, right))
    while pending:
        a, b = pending.pop()
        kind = type(a)
        if kind not in REFERENCE_TYPES:
            if not _same_primitive(a, b):
                return False
            continue
        if type(b) is not kind:
            return False
        twin = paired.get(id(a))
        if twin is not None:
            if twin is not b:
                return False
            continue
        if id(b) in taken:
            return False
        paired[id(a)] = b
        taken.add(id(b))
        if kind is ObjectVal:
            fields = b.fields
            if a.class_name != b.class_name or a.fields.keys() != fields.keys():
                return False
            pending.extend((value, fields[name]) for name, value in a.fields.items())
        elif (
            len(a.items) != len(b.items)
            or not _same_primitive(a.default, b.default)
        ):
            return False
        elif a.default is None:
            pending.extend(zip(a.items, b.items))
        elif not all(map(_same_primitive, a.items, b.items)):
            return False
    return True


def default_value(node: ast.TypeNode) -> object:
    """The Java default value for a declared type."""
    if isinstance(node, ast.PrimType):
        return {
            "int": 0,
            "float": 0.0,
            "boolean": False,
            "String": None,
            "void": None,
        }[node.name]
    return None


def java_int_div(left: int, right: int) -> int:
    """Java integer division truncates toward zero."""
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def java_int_rem(left: int, right: int) -> int:
    """Java ``%`` takes the sign of the dividend."""
    return left - java_int_div(left, right) * right
