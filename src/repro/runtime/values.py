"""Runtime value representations for the interpreter.

Primitives map to Python natives (``int``, ``float``, ``bool``, ``str``);
references are :class:`ObjectVal`, :class:`ArrayVal`, :class:`BufferVal`
or ``None`` (Java ``null``).
"""

from __future__ import annotations

from typing import Optional

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
