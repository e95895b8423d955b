"""Parsing of SJava annotation values (the grammar of Fig. 3.3).

Annotation *tokens* (``@LATTICE(...)`` etc.) are produced by the language
parser; this module parses the string payloads:

* lattice declarations — ``"A<B,B<C,S*"`` is a list of ``lower<higher``
  ordering entries plus ``loc*`` shared-location entries;
* location lists — ``"CAOBJ,TMP"`` or qualified ``"WDOBJ,WindRec.DIR0"``;
* delta locations — ``"DELTA(WDOBJ,DIR0)"`` with arbitrary nesting, and
  the equivalent ``@DELTA("WDOBJ,DIR0")`` annotation form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.lang.ast import LOCATION_ANNOTATIONS

#: Those that give a location, Fig. 6.3's LOC column.
_LOC_COLUMN = LOCATION_ANNOTATIONS - {"LATTICE", "METHODDEFAULT"}

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class AnnotationSyntaxError(Exception):
    """Raised when an annotation payload does not match the grammar."""


@dataclass(frozen=True)
class OrderEntry:
    """One ``lower<higher`` entry of a lattice declaration."""

    lower: str
    higher: str


@dataclass(frozen=True)
class LatticeDecl:
    """A parsed ``@LATTICE`` / ``@METHODDEFAULT`` payload."""

    orderings: tuple[OrderEntry, ...] = ()
    shared: tuple[str, ...] = ()
    #: Names declared without any ordering entry (``"A"`` bare).
    standalone: tuple[str, ...] = ()

    def all_names(self) -> set[str]:
        names = set(self.shared) | set(self.standalone)
        for entry in self.orderings:
            names.add(entry.lower)
            names.add(entry.higher)
        return names


@dataclass(frozen=True)
class LocElementRef:
    """A single location element, optionally class-qualified."""

    name: str
    class_name: Optional[str] = None

    def __str__(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name


@dataclass(frozen=True)
class LocSpec:
    """A parsed location annotation: a composite element list wrapped in
    ``delta_depth`` applications of the delta function."""

    elements: tuple[LocElementRef, ...] = ()
    delta_depth: int = 0

    def __str__(self) -> str:
        inner = ",".join(str(e) for e in self.elements)
        for _ in range(self.delta_depth):
            inner = f"DELTA({inner})"
        return inner


def _check_ident(name: str, payload: str) -> str:
    name = name.strip()
    if not _IDENT.match(name):
        raise AnnotationSyntaxError(
            f"invalid location name {name!r} in annotation payload {payload!r}"
        )
    return name


def parse_lattice_decl(payload: str) -> LatticeDecl:
    """Parse a lattice declaration such as ``"A<B, B<C, IDX*"``.

    An empty payload declares an empty lattice (just ⊤ and ⊥).
    """
    orderings: list[OrderEntry] = []
    shared: list[str] = []
    standalone: list[str] = []
    text = payload.strip()
    if not text:
        return LatticeDecl()
    for raw_entry in text.split(","):
        entry = raw_entry.strip()
        if not entry:
            raise AnnotationSyntaxError(f"empty entry in lattice payload {payload!r}")
        if entry.endswith("*"):
            shared.append(_check_ident(entry[:-1], payload))
        elif "<" in entry:
            lower_raw, _, higher_raw = entry.partition("<")
            lower = _check_ident(lower_raw, payload)
            higher = _check_ident(higher_raw, payload)
            orderings.append(OrderEntry(lower=lower, higher=higher))
        else:
            # A bare name declares the location without ordering it.
            standalone.append(_check_ident(entry, payload))
    return LatticeDecl(
        orderings=tuple(orderings),
        shared=tuple(shared),
        standalone=tuple(s for s in standalone if s not in shared),
    )


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
            current.append(char)
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise AnnotationSyntaxError(f"unbalanced parentheses in {text!r}")
            current.append(char)
        elif char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise AnnotationSyntaxError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return parts


def parse_loc_spec(payload: str) -> LocSpec:
    """Parse a ``@LOC`` payload: a location list, possibly delta-wrapped."""
    text = payload.strip()
    depth = 0
    while True:
        upper = text.upper()
        if upper.startswith("DELTA(") and text.endswith(")"):
            depth += 1
            text = text[len("DELTA("):-1].strip()
        else:
            break
    if not text:
        raise AnnotationSyntaxError(f"empty location in annotation {payload!r}")
    elements: list[LocElementRef] = []
    for part in _split_top_level(text):
        part = part.strip()
        if "." in part:
            class_raw, _, name_raw = part.partition(".")
            elements.append(
                LocElementRef(
                    name=_check_ident(name_raw, payload),
                    class_name=_check_ident(class_raw, payload),
                )
            )
        else:
            elements.append(LocElementRef(name=_check_ident(part, payload)))
    return LocSpec(elements=tuple(elements), delta_depth=depth)


def parse_single_loc(payload: str) -> str:
    """Parse a payload that must be a single unqualified element name
    (``@THISLOC``, ``@GLOBALLOC``, field ``@LOC``)."""
    spec = parse_loc_spec(payload)
    if spec.delta_depth or len(spec.elements) != 1 or spec.elements[0].class_name:
        raise AnnotationSyntaxError(
            f"expected a single location name, found {payload!r}"
        )
    return spec.elements[0].name


@dataclass
class AnnotationCounts:
    """Counters for the Fig. 6.3 annotation-effort table."""

    loc: int = 0
    lattice: int = 0
    method_default: int = 0
    other: int = 0
    by_name: dict[str, int] = field(default_factory=dict)

    def record(self, name: str) -> None:
        self.by_name[name] = self.by_name.get(name, 0) + 1
        if name in _LOC_COLUMN:
            self.loc += 1
        elif name == "LATTICE":
            self.lattice += 1
        elif name == "METHODDEFAULT":
            self.method_default += 1
        else:
            self.other += 1


def count_annotations(program) -> AnnotationCounts:
    """Count SJava annotations over a parsed program (Fig. 6.3)."""
    from repro.lang import ast

    counts = AnnotationCounts()

    def record_all(annotations: list[ast.Annotation]) -> None:
        for ann in annotations:
            counts.record(ann.name)

    for cls in program.classes:
        record_all(cls.annotations)
        for fld in cls.fields:
            record_all(fld.annotations)
        for method in cls.methods:
            record_all(method.annotations)
            for param in method.params:
                record_all(param.annotations)
            for stmt in ast.walk_stmts(method.body):
                if isinstance(stmt, (ast.VarDecl, ast.While, ast.For)):
                    record_all(stmt.annotations)
    return counts
