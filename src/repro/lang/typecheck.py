"""Conventional (Java-level) type checking for sjava programs.

SJava's location type checking is *independent* of standard Java typing
(Section 4.1); this module provides the standard half.  It runs two
passes:

1. a normalization pass that resolves bare identifiers — rewriting
   ``fieldName`` to ``this.fieldName`` (Java's implicit ``this``) — and
   enforces the mini-language's no-shadowing rule and Java's placement
   rules: no declaration as the whole body of an ``if``, ``else`` or
   loop, and no ``break`` or ``continue`` outside a loop;
2. a type checking pass that assigns a semantic type to every expression,
   resolves calls and field accesses, and validates standard typing
   rules.

Both passes record their results into the shared
:class:`repro.lang.symtab.ProgramInfo`.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang import types as st
from repro.lang.builtins import (
    BUILTIN_CLASSES,
    NAMESPACES,
    lookup_builtin_method,
    lookup_namespace_function,
)
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.symtab import (
    BuiltinCall, MethodCall, ProgramInfo, ResolveError,
)


class JavaTypeError(Exception):
    """A conventional typing error, with source position."""

    def __init__(self, message: str, node: ast.Node) -> None:
        super().__init__(f"{node.line}:{node.col}: {message}")
        self.node = node


#: What the front end (lex, parse, resolve, typecheck) raises on a bad
#: program; everything else it raises is a bug.
FRONT_END_ERRORS = (LexError, ParseError, ResolveError, JavaTypeError)


# ---------------------------------------------------------------------------
# Pass 1: identifier normalization
# ---------------------------------------------------------------------------


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

    # Note: names are unique per method, so popping a scope re-permits the
    # name only for *later* declarations, preserving Java semantics for
    # straight-line code while keeping analyses name-keyed.

    def _normalize_body(self, stmt: ast.Stmt, loop: bool = False) -> None:
        """Normalize the body of an ``if``, ``else`` or loop.  As in Java,
        a declaration may not be the whole body: it would declare a name
        in the enclosing scope that a skipped body leaves unbound."""
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
                # Java's rule; the engines then never carry a jump out
                # of the method it is written in.
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


# ---------------------------------------------------------------------------
# Pass 2: type checking
# ---------------------------------------------------------------------------


class _MethodChecker:
    def __init__(self, info: ProgramInfo, class_name: str, method: ast.MethodDecl):
        self.info = info
        self.class_name = class_name
        self.method = method
        self.builtin_classes = frozenset(BUILTIN_CLASSES)
        self.return_type = st.from_type_node(method.return_type, self.builtin_classes)
        self.vars: dict[str, tuple[st.SType, ast.Node]] = {}

    def semantic(self, node: ast.TypeNode) -> st.SType:
        stype = st.from_type_node(node, self.builtin_classes)
        self._validate_type(stype, node)
        return stype

    def assignable(self, target: st.SType, value: st.SType) -> bool:
        """Java assignability, including subclass-to-superclass widening."""
        if st.assignable(target, value):
            return True
        if isinstance(target, st.ClassT) and isinstance(value, st.ClassT):
            return self.info.is_subclass(value.name, target.name)
        return False

    def _validate_type(self, stype: st.SType, node: ast.Node) -> None:
        if isinstance(stype, st.ClassT) and stype.name not in self.info.classes:
            raise JavaTypeError(f"unknown class {stype.name!r}", node)
        if isinstance(stype, st.ArrayT):
            self._validate_type(stype.element, node)

    def run(self) -> None:
        for param in self.method.params:
            stype = self.semantic(param.decl_type)
            self.vars[param.name] = (stype, param)
        self.check_stmt(self.method.body)

    # -- statements ----------------------------------------------------

    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self.check_stmt(child)
        elif isinstance(stmt, ast.VarDecl):
            declared = self.semantic(stmt.decl_type)
            if stmt.init is not None:
                init_type = self.check_expr(stmt.init)
                if not self.assignable(declared, init_type):
                    raise JavaTypeError(
                        f"cannot initialize {declared} variable "
                        f"{stmt.name!r} with {init_type}",
                        stmt,
                    )
            self.vars[stmt.name] = (declared, stmt)
        elif isinstance(stmt, ast.Assign):
            target_type = self.check_expr(stmt.target)
            value_type = self.check_expr(stmt.value)
            if stmt.op == "=":
                if not self.assignable(target_type, value_type):
                    raise JavaTypeError(
                        f"cannot assign {value_type} to {target_type}", stmt
                    )
            else:
                if stmt.op == "+=" and target_type == st.STRING:
                    pass  # string concatenation
                elif st.numeric_join(target_type, value_type) is None:
                    raise JavaTypeError(
                        f"operator {stmt.op} requires numeric operands, "
                        f"found {target_type} and {value_type}",
                        stmt,
                    )
                elif target_type == st.INT and value_type == st.FLOAT:
                    raise JavaTypeError(
                        "possible lossy conversion from float to int", stmt
                    )
        elif isinstance(stmt, ast.If):
            self._check_cond(stmt.cond)
            self.check_stmt(stmt.then_body)
            if stmt.else_body is not None:
                self.check_stmt(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self._check_cond(stmt.cond)
            self.check_stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.cond is not None:
                self._check_cond(stmt.cond)
            if stmt.update is not None:
                self.check_stmt(stmt.update)
            self.check_stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                if self.return_type != st.VOID:
                    raise JavaTypeError(
                        f"method {self.method.name!r} must return "
                        f"{self.return_type}",
                        stmt,
                    )
            else:
                value_type = self.check_expr(stmt.value)
                if self.return_type == st.VOID:
                    raise JavaTypeError(
                        f"void method {self.method.name!r} cannot return a value",
                        stmt,
                    )
                if not self.assignable(self.return_type, value_type):
                    raise JavaTypeError(
                        f"cannot return {value_type} from a method declared "
                        f"to return {self.return_type}",
                        stmt,
                    )
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        else:  # pragma: no cover - defensive
            raise JavaTypeError(f"unhandled statement {type(stmt).__name__}", stmt)

    def _check_cond(self, cond: ast.Expr) -> None:
        cond_type = self.check_expr(cond)
        if cond_type != st.BOOLEAN:
            raise JavaTypeError(f"condition must be boolean, found {cond_type}", cond)

    # -- expressions -----------------------------------------------------

    def check_expr(self, expr: ast.Expr) -> st.SType:
        stype = self._infer(expr)
        self.info.expr_types[expr.uid] = stype
        return stype

    def _infer(self, expr: ast.Expr) -> st.SType:
        if isinstance(expr, ast.IntLit):
            return st.INT
        if isinstance(expr, ast.FloatLit):
            return st.FLOAT
        if isinstance(expr, ast.BoolLit):
            return st.BOOLEAN
        if isinstance(expr, ast.StringLit):
            return st.STRING
        if isinstance(expr, ast.NullLit):
            return st.NULL
        if isinstance(expr, ast.ThisRef):
            if self.method.is_static:
                raise JavaTypeError("'this' used in a static method", expr)
            return st.ClassT(self.class_name)
        if isinstance(expr, ast.VarRef):
            if expr.name not in self.vars:
                raise JavaTypeError(f"unknown variable {expr.name!r}", expr)
            stype, decl = self.vars[expr.name]
            if isinstance(decl, (ast.VarDecl, ast.Param)):
                self.info.var_decls[expr.uid] = decl
            return stype
        if isinstance(expr, ast.FieldAccess):
            return self._infer_field_access(expr)
        if isinstance(expr, ast.ArrayAccess):
            array_type = self.check_expr(expr.array)
            index_type = self.check_expr(expr.index)
            if not isinstance(array_type, st.ArrayT):
                raise JavaTypeError(f"cannot index into {array_type}", expr)
            if index_type != st.INT:
                raise JavaTypeError(
                    f"array index must be int, found {index_type}", expr
                )
            return array_type.element
        if isinstance(expr, ast.ArrayLength):
            array_type = self.check_expr(expr.array)
            if not isinstance(array_type, st.ArrayT):
                raise JavaTypeError(f"{array_type} has no length", expr)
            return st.INT
        if isinstance(expr, ast.Unary):
            return self._infer_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._infer_binary(expr)
        if isinstance(expr, ast.Call):
            return self._infer_call(expr)
        if isinstance(expr, ast.New):
            return self._infer_new(expr)
        if isinstance(expr, ast.NewArray):
            size_type = self.check_expr(expr.size)
            if size_type != st.INT:
                raise JavaTypeError(f"array size must be int, found {size_type}", expr)
            return st.ArrayT(self.semantic(expr.element))
        raise JavaTypeError(f"unhandled expression {type(expr).__name__}", expr)

    def _infer_field_access(self, expr: ast.FieldAccess) -> st.SType:
        obj_type = self.check_expr(expr.obj)
        if not isinstance(obj_type, st.ClassT):
            raise JavaTypeError(
                f"cannot access field {expr.field_name!r} on {obj_type}", expr
            )
        found = self.info.find_field(obj_type.name, expr.field_name)
        if found is None:
            raise JavaTypeError(
                f"class {obj_type.name!r} has no field {expr.field_name!r}", expr
            )
        owner, decl = found
        self.info.field_refs[expr.uid] = (owner, decl)
        return self.semantic(decl.decl_type)

    def _infer_unary(self, expr: ast.Unary) -> st.SType:
        operand = self.check_expr(expr.operand)
        if expr.op == "-":
            if not st.is_numeric(operand):
                raise JavaTypeError(f"cannot negate {operand}", expr)
            return operand
        if expr.op == "!":
            if operand != st.BOOLEAN:
                raise JavaTypeError(f"'!' requires boolean, found {operand}", expr)
            return st.BOOLEAN
        if expr.op.startswith("cast:"):
            target_name = expr.op.split(":", 1)[1]
            if target_name in ("int", "float") and st.is_numeric(operand):
                return st.INT if target_name == "int" else st.FLOAT
            raise JavaTypeError(
                f"unsupported cast from {operand} to {target_name}", expr
            )
        raise JavaTypeError(f"unknown unary operator {expr.op!r}", expr)

    def _infer_binary(self, expr: ast.Binary) -> st.SType:
        left = self.check_expr(expr.left)
        right = self.check_expr(expr.right)
        op = expr.op
        if op in ("+", "-", "*", "/", "%"):
            if op == "+" and st.STRING in (left, right):
                return st.STRING
            result = st.numeric_join(left, right)
            if result is None:
                raise JavaTypeError(
                    f"operator {op!r} requires numeric operands, "
                    f"found {left} and {right}",
                    expr,
                )
            return result
        if op in ("<", ">", "<=", ">="):
            if st.numeric_join(left, right) is None:
                raise JavaTypeError(
                    f"operator {op!r} requires numeric operands, "
                    f"found {left} and {right}",
                    expr,
                )
            return st.BOOLEAN
        if op in ("==", "!="):
            comparable = (
                st.numeric_join(left, right) is not None
                or left == right
                or (st.is_reference(left) and isinstance(right, st.NullT))
                or (st.is_reference(right) and isinstance(left, st.NullT))
                or left == st.BOOLEAN == right
            )
            if not comparable:
                raise JavaTypeError(f"cannot compare {left} with {right}", expr)
            return st.BOOLEAN
        if op in ("&&", "||"):
            if left != st.BOOLEAN or right != st.BOOLEAN:
                raise JavaTypeError(
                    f"operator {op!r} requires boolean operands", expr
                )
            return st.BOOLEAN
        raise JavaTypeError(f"unknown binary operator {op!r}", expr)

    def _infer_call(self, expr: ast.Call) -> st.SType:
        receiver = expr.receiver

        # Builtin namespace call: Device.readTemp(), SJ.broadcast(x), ...
        if isinstance(receiver, ast.VarRef) and receiver.name in NAMESPACES:
            sig = lookup_namespace_function(receiver.name, expr.method)
            if sig is None:
                raise JavaTypeError(
                    f"unknown builtin {receiver.name}.{expr.method}", expr
                )
            arg_types = [self.check_expr(arg) for arg in expr.args]
            result = sig.check(arg_types)
            if result is None:
                raise JavaTypeError(
                    f"bad arguments to {receiver.name}.{expr.method}: "
                    f"{[str(t) for t in arg_types]}",
                    expr,
                )
            expr.is_builtin = True
            self.info.call_targets[expr.uid] = BuiltinCall(receiver.name, sig)
            return result

        # Static call: ClassName.method(args).
        if isinstance(receiver, ast.VarRef) and receiver.name in self.info.classes:
            found = self.info.find_method(receiver.name, expr.method)
            if found is None or not found[1].is_static:
                raise JavaTypeError(
                    f"class {receiver.name!r} has no static method "
                    f"{expr.method!r}",
                    expr,
                )
            owner, decl = found
            self._check_user_args(expr, decl)
            self.info.call_targets[expr.uid] = MethodCall(owner, decl, receiver.name)
            return self.semantic(decl.return_type)

        # Instance call — explicit receiver or implicit this.
        if receiver is None:
            if self.method.is_static:
                raise JavaTypeError(
                    f"unqualified call to {expr.method!r} in a static method", expr
                )
            receiver_type: st.SType = st.ClassT(self.class_name)
        else:
            receiver_type = self.check_expr(receiver)

        if isinstance(receiver_type, st.BuiltinClassT):
            sig = lookup_builtin_method(receiver_type.name, expr.method)
            if sig is None:
                raise JavaTypeError(
                    f"{receiver_type.name} has no method {expr.method!r}", expr
                )
            arg_types = [self.check_expr(arg) for arg in expr.args]
            result = sig.check(arg_types)
            if result is None:
                raise JavaTypeError(
                    f"bad arguments to {receiver_type.name}.{expr.method}", expr
                )
            expr.is_builtin = True
            self.info.call_targets[expr.uid] = BuiltinCall(receiver_type.name, sig)
            return result

        if not isinstance(receiver_type, st.ClassT):
            raise JavaTypeError(
                f"cannot call method {expr.method!r} on {receiver_type}", expr
            )
        found = self.info.find_method(receiver_type.name, expr.method)
        if found is None:
            raise JavaTypeError(
                f"class {receiver_type.name!r} has no method {expr.method!r}", expr
            )
        owner, decl = found
        self._check_user_args(expr, decl)
        self.info.call_targets[expr.uid] = MethodCall(owner, decl, receiver_type.name)
        return self.semantic(decl.return_type)

    def _check_user_args(self, expr: ast.Call, decl: ast.MethodDecl) -> None:
        if len(expr.args) != len(decl.params):
            raise JavaTypeError(
                f"method {decl.name!r} expects {len(decl.params)} argument(s), "
                f"got {len(expr.args)}",
                expr,
            )
        for arg, param in zip(expr.args, decl.params):
            arg_type = self.check_expr(arg)
            param_type = st.from_type_node(param.decl_type, self.builtin_classes)
            if not self.assignable(param_type, arg_type):
                raise JavaTypeError(
                    f"argument for parameter {param.name!r} has type "
                    f"{arg_type}, expected {param_type}",
                    arg,
                )

    def _infer_new(self, expr: ast.New) -> st.SType:
        if expr.class_name in BUILTIN_CLASSES:
            arg_types = [self.check_expr(arg) for arg in expr.args]
            if arg_types != [st.INT]:
                raise JavaTypeError(
                    f"new {expr.class_name}(capacity) expects one int argument",
                    expr,
                )
            return st.BuiltinClassT(expr.class_name)
        if expr.class_name not in self.info.classes:
            raise JavaTypeError(f"unknown class {expr.class_name!r}", expr)
        if expr.args:
            raise JavaTypeError(
                "user classes have no constructors; use field initializers", expr
            )
        return st.ClassT(expr.class_name)


def typecheck_program(info: ProgramInfo) -> None:
    """Normalize and type check every method in the program.

    Also checks standard field-initializer typing.  Mutates ``info`` with
    resolution results; raises :class:`JavaTypeError` on failure.
    """
    for cls in info.program.classes:
        for method in cls.methods:
            _Normalizer(info, cls.name, method).run()
    for cls in info.program.classes:
        for fld in cls.fields:
            if fld.init is not None:
                checker = _MethodChecker(
                    info, cls.name, ast.MethodDecl(name="<init>", is_static=False,
                                                   return_type=ast.PrimType(name="void"),
                                                   body=ast.Block())
                )
                declared = checker.semantic(fld.decl_type)
                init_type = checker.check_expr(fld.init)
                if not checker.assignable(declared, init_type):
                    raise JavaTypeError(
                        f"cannot initialize {declared} field {fld.name!r} "
                        f"with {init_type}",
                        fld,
                    )
        for method in cls.methods:
            _MethodChecker(info, cls.name, method).run()
