"""The front end's former first pass, kept as the reference that the
one-walk type checker in :mod:`repro.lang.typecheck` is compared against
(``tests/lang/test_typecheck.py``).

:class:`_Normalizer` walked every method body before any was typed: it
rewrote bare field names to ``this.field`` and enforced the
no-shadowing and placement rules.  It shares no code with the type
checker, so on a program that types it must leave the tree the one walk
leaves.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.builtins import NAMESPACES
from repro.lang.symtab import ProgramInfo
from repro.lang.typecheck import JavaTypeError


class _Normalizer:
    """Rewrites bare field references to explicit ``this.field`` accesses."""

    def __init__(self, info: ProgramInfo, class_name: str, method: ast.MethodDecl):
        self.info = info
        self.class_name = class_name
        self.method = method
        self.declared: set[str] = set()
        self.scopes: list[set[str]] = [set()]
        #: How many loops enclose the statement being normalized.
        self.loops = 0

    def run(self) -> None:
        for param in self.method.params:
            self._declare(param.name, param)
        self._normalize_stmt(self.method.body)

    def _declare(self, name: str, node: ast.Node) -> None:
        if name in self.declared:
            raise JavaTypeError(
                f"variable {name!r} is declared more than once in "
                f"method {self.method.name!r} (shadowing is not supported)",
                node,
            )
        self.declared.add(name)
        self.scopes[-1].add(name)

    def _in_scope(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _push(self) -> None:
        self.scopes.append(set())

    def _pop(self) -> None:
        for name in self.scopes.pop():
            self.declared.discard(name)

    def _normalize_body(self, stmt: ast.Stmt, loop: bool = False) -> None:
        if isinstance(stmt, ast.VarDecl):
            raise JavaTypeError("variable declaration not allowed here", stmt)
        self.loops += loop
        try:
            self._normalize_stmt(stmt)
        finally:
            self.loops -= loop

    def _normalize_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._push()
            for child in stmt.stmts:
                self._normalize_stmt(child)
            self._pop()
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                stmt.init = self._normalize_expr(stmt.init)
            self._declare(stmt.name, stmt)
        elif isinstance(stmt, ast.Assign):
            stmt.target = self._normalize_expr(stmt.target)
            stmt.value = self._normalize_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            stmt.cond = self._normalize_expr(stmt.cond)
            self._normalize_body(stmt.then_body)
            if stmt.else_body is not None:
                self._normalize_body(stmt.else_body)
        elif isinstance(stmt, ast.While):
            stmt.cond = self._normalize_expr(stmt.cond)
            self._normalize_body(stmt.body, loop=True)
        elif isinstance(stmt, ast.For):
            self._push()
            if stmt.init is not None:
                self._normalize_stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self._normalize_expr(stmt.cond)
            if stmt.update is not None:
                self._normalize_stmt(stmt.update)
            self._normalize_body(stmt.body, loop=True)
            self._pop()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self._normalize_expr(stmt.value)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._normalize_expr(stmt.expr)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not self.loops:
                keyword = type(stmt).__name__.lower()
                raise JavaTypeError(f"{keyword!r} outside a loop", stmt)
        else:  # pragma: no cover - defensive
            raise JavaTypeError(f"unhandled statement {type(stmt).__name__}", stmt)

    def _normalize_expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.VarRef):
            if self._in_scope(expr.name):
                return expr
            if self.info.find_field(self.class_name, expr.name) is not None:
                this = ast.ThisRef(line=expr.line, col=expr.col)
                return ast.FieldAccess(
                    obj=this, field_name=expr.name, line=expr.line, col=expr.col
                )
            raise JavaTypeError(f"unknown identifier {expr.name!r}", expr)
        if isinstance(expr, ast.FieldAccess):
            expr.obj = self._normalize_expr(expr.obj)
            return expr
        if isinstance(expr, ast.ArrayAccess):
            expr.array = self._normalize_expr(expr.array)
            expr.index = self._normalize_expr(expr.index)
            return expr
        if isinstance(expr, ast.ArrayLength):
            expr.array = self._normalize_expr(expr.array)
            return expr
        if isinstance(expr, ast.Unary):
            expr.operand = self._normalize_expr(expr.operand)
            return expr
        if isinstance(expr, ast.Binary):
            expr.left = self._normalize_expr(expr.left)
            expr.right = self._normalize_expr(expr.right)
            return expr
        if isinstance(expr, ast.Call):
            receiver = expr.receiver
            if isinstance(receiver, ast.VarRef) and not self._in_scope(receiver.name):
                if receiver.name in NAMESPACES or receiver.name in self.info.classes:
                    pass  # namespace / static call target, left intact
                else:
                    expr.receiver = self._normalize_expr(receiver)
            elif receiver is not None:
                expr.receiver = self._normalize_expr(receiver)
            expr.args = [self._normalize_expr(arg) for arg in expr.args]
            return expr
        if isinstance(expr, ast.New):
            expr.args = [self._normalize_expr(arg) for arg in expr.args]
            return expr
        if isinstance(expr, ast.NewArray):
            expr.size = self._normalize_expr(expr.size)
            return expr
        return expr


def reference_normalize(info: ProgramInfo) -> None:
    """Normalize every method, reporting the first error of the first
    method that has one, as the front end's first pass did."""
    for cls in info.program.classes:
        for method in cls.methods:
            _Normalizer(info, cls.name, method).run()
