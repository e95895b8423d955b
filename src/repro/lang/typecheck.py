"""Conventional (Java-level) type checking for sjava programs.

SJava's location type checking is *independent* of standard Java typing
(Section 4.1); this module provides the standard half.  It walks each
method body once, and as it assigns a semantic type to every expression
it also:

- resolves bare identifiers, rewriting ``fieldName`` to
  ``this.fieldName`` (Java's implicit ``this``) in the tree;
- enforces the mini-language's no-shadowing rule and Java's placement
  rules: no declaration as the whole body of an ``if``, ``else`` or
  loop, and no ``break`` or ``continue`` outside a loop;
- resolves calls and field accesses and validates standard typing rules.

The first error in that walk is the one reported.  Results go into the
shared :class:`repro.lang.symtab.ProgramInfo`, including each method's
resolved user-method calls, from which
:func:`repro.lang.callgraph.build_call_graph` builds the call graph.
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


class _MethodChecker:
    """Types one method body, or one field initializer, in one walk.

    ``implicit_this`` says whether a bare name that is not a variable
    in scope may name a field of the class: true in method bodies;
    field initializers get no implicit ``this``.
    """

    def __init__(
        self,
        info: ProgramInfo,
        class_name: str,
        method: ast.MethodDecl,
        implicit_this: bool = True,
    ):
        self.info = info
        self.class_name = class_name
        self.method = method
        self.implicit_this = implicit_this
        self.builtin_classes = frozenset(BUILTIN_CLASSES)
        self.return_type = st.from_type_node(method.return_type, self.builtin_classes)
        #: The variables in scope.  Names are unique per method while in
        #: scope; leaving a block re-permits its names only for *later*
        #: declarations, so analyses may key variables by name.
        self.vars: dict[str, tuple[st.SType, ast.Node]] = {}
        #: The names each enclosing block declared, innermost last.
        self.scopes: list[list[str]] = [[]]
        #: How many loops enclose the statement being checked.
        self.loops = 0
        #: The user-method calls the body makes, in walk order.
        self.calls: list[MethodCall] = []

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
            self._declare(param.name, self.semantic(param.decl_type), param)
        self.check_stmt(self.method.body)

    def _declare(self, name: str, stype: st.SType, node: ast.Node) -> None:
        if name in self.vars:
            raise JavaTypeError(
                f"variable {name!r} is declared more than once in "
                f"method {self.method.name!r} (shadowing is not supported)",
                node,
            )
        self.vars[name] = (stype, node)
        self.scopes[-1].append(name)

    def _pop_scope(self) -> None:
        for name in self.scopes.pop():
            del self.vars[name]

    # -- statements ----------------------------------------------------

    def _check_body(self, stmt: ast.Stmt, loop: bool = False) -> None:
        """Check the body of an ``if``, ``else`` or loop.  As in Java,
        a declaration may not be the whole body: it would declare a name
        in the enclosing scope that a skipped body leaves unbound."""
        if isinstance(stmt, ast.VarDecl):
            raise JavaTypeError("variable declaration not allowed here", stmt)
        self.loops += loop
        self.check_stmt(stmt)
        self.loops -= loop

    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.scopes.append([])
            for child in stmt.stmts:
                self.check_stmt(child)
            self._pop_scope()
        elif isinstance(stmt, ast.VarDecl):
            declared = self.semantic(stmt.decl_type)
            if stmt.init is not None:
                stmt.init, init_type = self.check_expr(stmt.init)
            self._declare(stmt.name, declared, stmt)
            if stmt.init is not None and not self.assignable(declared, init_type):
                raise JavaTypeError(
                    f"cannot initialize {declared} variable "
                    f"{stmt.name!r} with {init_type}",
                    stmt,
                )
        elif isinstance(stmt, ast.Assign):
            stmt.target, target_type = self.check_expr(stmt.target)
            stmt.value, value_type = self.check_expr(stmt.value)
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
            stmt.cond = self._check_cond(stmt.cond)
            self._check_body(stmt.then_body)
            if stmt.else_body is not None:
                self._check_body(stmt.else_body)
        elif isinstance(stmt, ast.While):
            stmt.cond = self._check_cond(stmt.cond)
            self._check_body(stmt.body, loop=True)
        elif isinstance(stmt, ast.For):
            self.scopes.append([])
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self._check_cond(stmt.cond)
            if stmt.update is not None:
                self.check_stmt(stmt.update)
            self._check_body(stmt.body, loop=True)
            self._pop_scope()
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                if self.return_type != st.VOID:
                    raise JavaTypeError(
                        f"method {self.method.name!r} must return "
                        f"{self.return_type}",
                        stmt,
                    )
            else:
                stmt.value, value_type = self.check_expr(stmt.value)
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
            stmt.expr, _ = self.check_expr(stmt.expr)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not self.loops:
                # Java's rule; the engines then never carry a jump out
                # of the method it is written in.
                keyword = type(stmt).__name__.lower()
                raise JavaTypeError(f"{keyword!r} outside a loop", stmt)
        else:  # pragma: no cover - defensive
            raise JavaTypeError(f"unhandled statement {type(stmt).__name__}", stmt)

    def _check_cond(self, cond: ast.Expr) -> ast.Expr:
        cond, cond_type = self.check_expr(cond)
        if cond_type != st.BOOLEAN:
            raise JavaTypeError(f"condition must be boolean, found {cond_type}", cond)
        return cond

    # -- expressions -----------------------------------------------------

    def check_expr(self, expr: ast.Expr) -> tuple[ast.Expr, st.SType]:
        """Type ``expr``; return it, a bare field name rewritten to
        ``this.field``, with its type.  Callers store the expression
        back where they read it."""
        if (
            self.implicit_this
            and isinstance(expr, ast.VarRef)
            and expr.name not in self.vars
        ):
            if self.info.find_field(self.class_name, expr.name) is None:
                raise JavaTypeError(f"unknown identifier {expr.name!r}", expr)
            this = ast.ThisRef(line=expr.line, col=expr.col)
            expr = ast.FieldAccess(
                obj=this, field_name=expr.name, line=expr.line, col=expr.col
            )
        stype = self._infer(expr)
        self.info.expr_types[expr.uid] = stype
        return expr, stype

    def _check_args(self, expr: ast.Call | ast.New) -> list[st.SType]:
        """Type the arguments of ``expr``, rewriting them in place."""
        arg_types = []
        for index, arg in enumerate(expr.args):
            expr.args[index], arg_type = self.check_expr(arg)
            arg_types.append(arg_type)
        return arg_types

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
            expr.array, array_type = self.check_expr(expr.array)
            expr.index, index_type = self.check_expr(expr.index)
            if not isinstance(array_type, st.ArrayT):
                raise JavaTypeError(f"cannot index into {array_type}", expr)
            if index_type != st.INT:
                raise JavaTypeError(
                    f"array index must be int, found {index_type}", expr
                )
            return array_type.element
        if isinstance(expr, ast.ArrayLength):
            expr.array, array_type = self.check_expr(expr.array)
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
            expr.size, size_type = self.check_expr(expr.size)
            if size_type != st.INT:
                raise JavaTypeError(f"array size must be int, found {size_type}", expr)
            return st.ArrayT(self.semantic(expr.element))
        raise JavaTypeError(f"unhandled expression {type(expr).__name__}", expr)

    def _infer_field_access(self, expr: ast.FieldAccess) -> st.SType:
        expr.obj, obj_type = self.check_expr(expr.obj)
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
        expr.operand, operand = self.check_expr(expr.operand)
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
        expr.left, left = self.check_expr(expr.left)
        expr.right, right = self.check_expr(expr.right)
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
        # A receiver naming a namespace or a class is left as is.
        if isinstance(receiver, ast.VarRef) and receiver.name in NAMESPACES:
            sig = lookup_namespace_function(receiver.name, expr.method)
            if sig is None:
                raise JavaTypeError(
                    f"unknown builtin {receiver.name}.{expr.method}", expr
                )
            arg_types = self._check_args(expr)
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
            return self._user_call(expr, *found, receiver.name)

        # Instance call — explicit receiver or implicit this.
        if receiver is None:
            if self.method.is_static:
                raise JavaTypeError(
                    f"unqualified call to {expr.method!r} in a static method", expr
                )
            receiver_type: st.SType = st.ClassT(self.class_name)
        else:
            expr.receiver, receiver_type = self.check_expr(receiver)

        if isinstance(receiver_type, st.BuiltinClassT):
            sig = lookup_builtin_method(receiver_type.name, expr.method)
            if sig is None:
                raise JavaTypeError(
                    f"{receiver_type.name} has no method {expr.method!r}", expr
                )
            result = sig.check(self._check_args(expr))
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
        return self._user_call(expr, *found, receiver_type.name)

    def _user_call(
        self,
        expr: ast.Call,
        owner: str,
        decl: ast.MethodDecl,
        receiver_class: str,
    ) -> st.SType:
        if len(expr.args) != len(decl.params):
            raise JavaTypeError(
                f"method {decl.name!r} expects {len(decl.params)} argument(s), "
                f"got {len(expr.args)}",
                expr,
            )
        for index, param in enumerate(decl.params):
            arg, arg_type = self.check_expr(expr.args[index])
            expr.args[index] = arg
            param_type = st.from_type_node(param.decl_type, self.builtin_classes)
            if not self.assignable(param_type, arg_type):
                raise JavaTypeError(
                    f"argument for parameter {param.name!r} has type "
                    f"{arg_type}, expected {param_type}",
                    arg,
                )
        target = MethodCall(owner, decl, receiver_class)
        self.info.call_targets[expr.uid] = target
        self.calls.append(target)
        return self.semantic(decl.return_type)

    def _infer_new(self, expr: ast.New) -> st.SType:
        if expr.class_name in BUILTIN_CLASSES:
            if self._check_args(expr) != [st.INT]:
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
    """Type check every field initializer and method in the program,
    class by class, recording each method's user-method calls in
    ``info.method_calls``.

    Mutates ``info`` and the tree with resolution results; raises
    :class:`JavaTypeError` on the first error.
    """
    for cls in info.program.classes:
        for fld in cls.fields:
            if fld.init is not None:
                checker = _MethodChecker(
                    info, cls.name,
                    ast.MethodDecl(name="<init>", is_static=False,
                                   return_type=ast.PrimType(name="void"),
                                   body=ast.Block()),
                    implicit_this=False,
                )
                declared = checker.semantic(fld.decl_type)
                _, init_type = checker.check_expr(fld.init)
                if not checker.assignable(declared, init_type):
                    raise JavaTypeError(
                        f"cannot initialize {declared} field {fld.name!r} "
                        f"with {init_type}",
                        fld,
                    )
        for method in cls.methods:
            checker = _MethodChecker(info, cls.name, method)
            checker.run()
            info.method_calls[cls.name, method.name] = checker.calls
