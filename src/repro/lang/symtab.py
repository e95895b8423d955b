"""Symbol tables and name resolution for sjava programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.lang import ast
from repro.lang import types as st
from repro.lang.builtins import BUILTIN_CLASSES, BuiltinSig

EVENT_LOOP_LABELS = ("SSJAVA", "SJAVA")
TERMINATE_LABEL_PREFIX = "TERMINATE_"


class ResolveError(Exception):
    """Raised for class-structure errors (duplicates, unknown names, ...)."""


@dataclass(frozen=True)
class BuiltinCall:
    """A resolved call to a builtin namespace function or builtin method."""

    namespace: str  # 'Device', 'SJ', 'Math', or a builtin class name
    sig: BuiltinSig


@dataclass(frozen=True)
class MethodCall:
    """A resolved call to a user-defined method."""

    owner: str  # class that declares (or overrides) the method
    decl: ast.MethodDecl
    receiver_class: str  # static class of the receiver expression


CallTarget = Union[BuiltinCall, MethodCall]

Declaration = Union[ast.VarDecl, ast.Param]


@dataclass
class EventLoop:
    class_name: str
    method: ast.MethodDecl
    loop: Union[ast.While, ast.For]


@dataclass
class ProgramInfo:
    """All resolution results for a program, shared by every analysis."""

    program: ast.Program
    classes: dict[str, ast.ClassDecl] = field(default_factory=dict)
    #: Filled in by the conventional type checker.
    expr_types: dict[int, st.SType] = field(default_factory=dict)
    call_targets: dict[int, CallTarget] = field(default_factory=dict)
    var_decls: dict[int, Declaration] = field(default_factory=dict)
    #: Resolved field accesses: FieldAccess uid -> (owner class, decl).
    field_refs: dict[int, tuple[str, ast.FieldDecl]] = field(default_factory=dict)
    #: Each method's resolved user-method calls, in walk order, keyed
    #: by (class name, method name): the call graph before dispatch.
    method_calls: dict[tuple[str, str], list[MethodCall]] = field(
        default_factory=dict
    )
    #: The loops labelled as the main event loop, in source order.
    event_loops: list[EventLoop] = field(default_factory=list)
    #: The execution backend's generated code
    #: (``repro.runtime.compiler.CompiledProgram``), made on the first
    #: run and shared by every engine on this program.
    compiled: Optional[object] = field(default=None, repr=False, compare=False)

    # -- class structure helpers --------------------------------------

    def class_named(self, name: str) -> ast.ClassDecl:
        try:
            return self.classes[name]
        except KeyError:
            raise ResolveError(f"unknown class {name!r}") from None

    def ancestry(self, name: str) -> Iterator[str]:
        """Yield ``name`` and then each superclass, root last."""
        current: Optional[str] = name
        while current is not None:
            yield current
            current = self.class_named(current).superclass

    def is_subclass(self, sub: str, sup: str) -> bool:
        return sup in self.ancestry(sub)

    def all_fields(self, class_name: str) -> list[tuple[str, ast.FieldDecl]]:
        """All fields of ``class_name`` including inherited, supers first."""
        chain = list(self.ancestry(class_name))
        result: list[tuple[str, ast.FieldDecl]] = []
        for owner in reversed(chain):
            for fld in self.classes[owner].fields:
                result.append((owner, fld))
        return result

    def find_field(
        self, class_name: str, field_name: str
    ) -> Optional[tuple[str, ast.FieldDecl]]:
        for owner in self.ancestry(class_name):
            fld = self.classes[owner].field_named(field_name)
            if fld is not None:
                return owner, fld
        return None

    def find_method(
        self, class_name: str, method_name: str
    ) -> Optional[tuple[str, ast.MethodDecl]]:
        for owner in self.ancestry(class_name):
            method = self.classes[owner].method_named(method_name)
            if method is not None:
                return owner, method
        return None

    def overriding_decls(
        self, class_name: str, method_name: str
    ) -> list[tuple[str, ast.MethodDecl]]:
        """All declarations that a dynamic dispatch on ``class_name`` may
        reach: the statically found one plus every subclass override."""
        found = self.find_method(class_name, method_name)
        if found is None:
            return []
        result = [found]
        for name in self.classes:
            if name != class_name and self.is_subclass(name, class_name):
                decl = self.classes[name].method_named(method_name)
                if decl is not None:
                    result.append((name, decl))
        return result

    @property
    def event_loop(self) -> Optional[EventLoop]:
        if len(self.event_loops) == 1:
            return self.event_loops[0]
        return None


def _check_no_inheritance_cycle(info: ProgramInfo) -> None:
    for name in info.classes:
        seen = set()
        current: Optional[str] = name
        while current is not None:
            if current in seen:
                raise ResolveError(f"inheritance cycle involving class {name!r}")
            seen.add(current)
            current = info.classes[current].superclass


def _find_event_loops(info: ProgramInfo) -> None:
    for cls in info.program.classes:
        for method in cls.methods:
            for stmt in ast.walk_stmts(method.body):
                if (
                    isinstance(stmt, (ast.While, ast.For))
                    and stmt.label in EVENT_LOOP_LABELS
                ):
                    info.event_loops.append(EventLoop(cls.name, method, stmt))


def resolve_program(program: ast.Program) -> ProgramInfo:
    """Build the class table and run structural checks.

    Raises :class:`ResolveError` on duplicate classes/members, unknown
    superclasses, inheritance cycles, or collisions with builtin class
    names.
    """
    info = ProgramInfo(program=program)
    for cls in program.classes:
        if cls.name in info.classes:
            raise ResolveError(f"duplicate class {cls.name!r}")
        if cls.name in BUILTIN_CLASSES:
            raise ResolveError(f"class {cls.name!r} shadows a builtin class")
        info.classes[cls.name] = cls

    for cls in program.classes:
        if cls.superclass is not None and cls.superclass not in info.classes:
            raise ResolveError(
                f"class {cls.name!r} extends unknown class {cls.superclass!r}"
            )
        seen_fields: set[str] = set()
        for fld in cls.fields:
            if fld.name in seen_fields:
                raise ResolveError(
                    f"duplicate field {fld.name!r} in class {cls.name!r}"
                )
            seen_fields.add(fld.name)
        seen_methods: set[str] = set()
        for method in cls.methods:
            if method.name in seen_methods:
                raise ResolveError(
                    f"duplicate method {method.name!r} in class {cls.name!r}"
                )
            seen_methods.add(method.name)

    _check_no_inheritance_cycle(info)
    _find_event_loops(info)
    return info
