"""Abstract syntax tree for the sjava mini-language.

Every node carries a source position and a process-unique ``uid`` that the
static analyses use as a stable key (e.g. for per-statement dataflow
facts).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

_UID_COUNTER = itertools.count(1)


def _next_uid() -> int:
    return next(_UID_COUNTER)


@dataclass
class Node:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)
    uid: int = field(default_factory=_next_uid, kw_only=True, compare=False)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass
class TypeNode(Node):
    pass


@dataclass
class PrimType(TypeNode):
    """``int``, ``float``, ``boolean``, ``String`` or ``void``."""

    name: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass
class ClassType(TypeNode):
    name: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass
class ArrayType(TypeNode):
    element: TypeNode = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"{self.element}[]"


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------


@dataclass
class Annotation(Node):
    """An SJava annotation such as ``@LATTICE("A<B")`` or ``@DELEGATE``.

    ``value`` is the raw argument: a string for most annotations, an int
    for ``@MAXLOOP``, or ``None`` for marker annotations.
    """

    name: str = ""
    value: Union[str, int, None] = None


#: The location-type annotations: what stripping a program for the
#: inference evaluation removes (Section 6.3.1) and what SInfer emits.
#: @TRUSTED, @DELEGATE and @MAXLOOP are semantic, not location,
#: annotations.
LOCATION_ANNOTATIONS = frozenset({
    "LATTICE", "METHODDEFAULT", "LOC", "THISLOC", "RETURNLOC", "PCLOC",
    "GLOBALLOC", "DELTA",
})


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class NullLit(Expr):
    pass


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ThisRef(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    obj: Expr = None  # type: ignore[assignment]
    field_name: str = ""


@dataclass
class ArrayAccess(Expr):
    array: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    """A method invocation.

    ``receiver`` is ``None`` for unqualified calls (implicit ``this``).
    Calls on builtin namespaces (``Device.readTemp()``, ``SJ.broadcast(x)``)
    parse with a :class:`VarRef` receiver naming the namespace; symbol
    resolution marks them via :attr:`is_builtin`.
    """

    receiver: Optional[Expr] = None
    method: str = ""
    args: list[Expr] = field(default_factory=list)
    is_builtin: bool = field(default=False, compare=False)


@dataclass
class New(Expr):
    class_name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewArray(Expr):
    element: TypeNode = None  # type: ignore[assignment]
    size: Expr = None  # type: ignore[assignment]


@dataclass
class ArrayLength(Expr):
    array: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    name: str = ""
    decl_type: TypeNode = None  # type: ignore[assignment]
    annotations: list[Annotation] = field(default_factory=list)
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    """Assignment; ``op`` is one of ``=``, ``+=``, ``-=``, ``*=``, ``/=``.

    ``i++``/``i--`` are desugared by the parser to ``+=``/``-=`` with an
    ``IntLit(1)`` right-hand side (``was_increment`` records the sugar so
    the termination analysis can report precisely).
    """

    target: Expr = None  # type: ignore[assignment]
    op: str = "="
    value: Expr = None  # type: ignore[assignment]
    was_increment: bool = field(default=False, compare=False)


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: Stmt = None  # type: ignore[assignment]
    else_body: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]
    label: Optional[str] = None
    annotations: list[Annotation] = field(default_factory=list)


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    update: Optional[Stmt] = None
    body: Stmt = None  # type: ignore[assignment]
    label: Optional[str] = None
    annotations: list[Annotation] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    name: str = ""
    decl_type: TypeNode = None  # type: ignore[assignment]
    annotations: list[Annotation] = field(default_factory=list)


@dataclass
class FieldDecl(Node):
    name: str = ""
    decl_type: TypeNode = None  # type: ignore[assignment]
    annotations: list[Annotation] = field(default_factory=list)
    is_static: bool = False
    is_final: bool = False
    init: Optional[Expr] = None


@dataclass
class MethodDecl(Node):
    name: str = ""
    return_type: TypeNode = None  # type: ignore[assignment]
    params: list[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]
    annotations: list[Annotation] = field(default_factory=list)
    is_static: bool = False


@dataclass
class ClassDecl(Node):
    name: str = ""
    superclass: Optional[str] = None
    annotations: list[Annotation] = field(default_factory=list)
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)

    def field_named(self, name: str) -> Optional[FieldDecl]:
        for fld in self.fields:
            if fld.name == name:
                return fld
        return None

    def method_named(self, name: str) -> Optional[MethodDecl]:
        for method in self.methods:
            if method.name == name:
                return method
        return None


@dataclass
class Program(Node):
    classes: list[ClassDecl] = field(default_factory=list)

    def class_named(self, name: str) -> Optional[ClassDecl]:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None


def annotation_named(
    annotations: list[Annotation], name: str
) -> Optional[Annotation]:
    """Return the first annotation with ``name`` (case-sensitive)."""
    for ann in annotations:
        if ann.name == name:
            return ann
    return None


def iter_child_exprs(expr: Expr) -> list[Expr]:
    """Return the direct sub-expressions of ``expr`` in evaluation order."""
    if isinstance(expr, FieldAccess):
        return [expr.obj]
    if isinstance(expr, ArrayAccess):
        return [expr.array, expr.index]
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Binary):
        return [expr.left, expr.right]
    if isinstance(expr, Call):
        children = [] if expr.receiver is None else [expr.receiver]
        return children + list(expr.args)
    if isinstance(expr, New):
        return list(expr.args)
    if isinstance(expr, NewArray):
        return [expr.size]
    if isinstance(expr, ArrayLength):
        return [expr.array]
    return []


def iter_child_stmts(stmt: Stmt) -> list[Stmt]:
    """Return the direct sub-statements of ``stmt`` in source order."""
    if isinstance(stmt, Block):
        return list(stmt.stmts)
    if isinstance(stmt, If):
        children = [stmt.then_body, stmt.else_body]
    elif isinstance(stmt, While):
        children = [stmt.body]
    elif isinstance(stmt, For):
        children = [stmt.init, stmt.update, stmt.body]
    else:
        return []
    return [child for child in children if child is not None]


def iter_stmt_exprs(stmt: Stmt) -> list[Expr]:
    """Return the expressions ``stmt`` evaluates itself, in source order;
    those of its sub-statements belong to the sub-statements."""
    if isinstance(stmt, Assign):
        exprs = [stmt.target, stmt.value]
    elif isinstance(stmt, ExprStmt):
        exprs = [stmt.expr]
    elif isinstance(stmt, (If, While, For)):
        exprs = [stmt.cond]
    elif isinstance(stmt, VarDecl):
        exprs = [stmt.init]
    elif isinstance(stmt, Return):
        exprs = [stmt.value]
    else:
        return []
    return [expr for expr in exprs if expr is not None]


def _preorder(roots, children):
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def walk_stmts(*roots: Stmt) -> Iterator[Stmt]:
    """Yield ``roots`` and every statement nested in them, in pre-order."""
    return _preorder(roots, iter_child_stmts)


def walk_exprs(*roots: Expr) -> Iterator[Expr]:
    """Yield ``roots`` and every expression nested in them, in pre-order."""
    return _preorder(roots, iter_child_exprs)
