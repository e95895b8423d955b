"""Pretty-printer: render an AST back to sjava source.

Used by the inference engine to emit inferred annotations (the paper's
Fig. 5.15 shows exactly this round trip) so the result can be re-parsed
and verified by the SJava type checker.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.tokens import BINARY_OPERATORS

_INDENT = "  "


def print_program(program: ast.Program) -> str:
    parts = [_print_class(cls) for cls in program.classes]
    return "\n\n".join(parts) + "\n"


def _ann(annotations: list[ast.Annotation], indent: str = "") -> str:
    lines = []
    for annotation in annotations:
        if annotation.value is None:
            lines.append(f"{indent}@{annotation.name}")
        elif isinstance(annotation.value, int):
            lines.append(f"{indent}@{annotation.name}({annotation.value})")
        else:
            lines.append(f'{indent}@{annotation.name}("{annotation.value}")')
    return "\n".join(lines) + ("\n" if lines else "")


def _inline_ann(annotations: list[ast.Annotation]) -> str:
    parts = []
    for annotation in annotations:
        if annotation.value is None:
            parts.append(f"@{annotation.name}")
        elif isinstance(annotation.value, int):
            parts.append(f"@{annotation.name}({annotation.value})")
        else:
            parts.append(f'@{annotation.name}("{annotation.value}")')
    return (" ".join(parts) + " ") if parts else ""


def _print_class(cls: ast.ClassDecl) -> str:
    header = _ann(cls.annotations)
    extends = f" extends {cls.superclass}" if cls.superclass else ""
    lines = [f"{header}class {cls.name}{extends} {{"]
    for fld in cls.fields:
        mods = ""
        if fld.is_static:
            mods += "static "
        if fld.is_final:
            mods += "final "
        init = f" = {print_expr(fld.init)}" if fld.init is not None else ""
        lines.append(
            f"{_INDENT}{_inline_ann(fld.annotations)}{mods}"
            f"{fld.decl_type} {fld.name}{init};"
        )
    for method in cls.methods:
        lines.append("")
        lines.append(_print_method(method))
    lines.append("}")
    return "\n".join(lines)


def _print_method(method: ast.MethodDecl) -> str:
    header = _ann(method.annotations, _INDENT)
    mods = "static " if method.is_static else ""
    params = ", ".join(
        f"{_inline_ann(p.annotations)}{p.decl_type} {p.name}"
        for p in method.params
    )
    body = _print_block(method.body, _INDENT)
    return (
        f"{header}{_INDENT}{mods}{method.return_type} "
        f"{method.name}({params}) {body}"
    )


def _print_block(block: ast.Block, indent: str) -> str:
    inner = indent + _INDENT
    lines = ["{"]
    for stmt in block.stmts:
        lines.append(print_stmt(stmt, inner))
    lines.append(indent + "}")
    return "\n".join(lines)


def print_stmt(stmt: ast.Stmt, indent: str = "") -> str:
    if isinstance(stmt, ast.Block):
        return indent + _print_block(stmt, indent)
    if isinstance(stmt, ast.VarDecl):
        init = f" = {print_expr(stmt.init)}" if stmt.init is not None else ""
        return (
            f"{indent}{_inline_ann(stmt.annotations)}"
            f"{stmt.decl_type} {stmt.name}{init};"
        )
    if isinstance(stmt, ast.Assign):
        if stmt.was_increment:
            op = "++" if stmt.op == "+=" else "--"
            return f"{indent}{print_expr(stmt.target)}{op};"
        return f"{indent}{print_expr(stmt.target)} {stmt.op} {print_expr(stmt.value)};"
    if isinstance(stmt, ast.If):
        text = f"{indent}if ({print_expr(stmt.cond)}) "
        text += _print_stmt_as_block(stmt.then_body, indent)
        if stmt.else_body is not None:
            text += " else " + _print_stmt_as_block(stmt.else_body, indent)
        return text
    if isinstance(stmt, ast.While):
        label = f"{stmt.label}:\n{indent}" if stmt.label else ""
        head = f"{indent}{_inline_ann(stmt.annotations)}"
        return (
            f"{head}{label}while ({print_expr(stmt.cond)}) "
            + _print_stmt_as_block(stmt.body, indent)
        )
    if isinstance(stmt, ast.For):
        label = f"{stmt.label}:\n{indent}" if stmt.label else ""
        init = _print_for_clause(stmt.init)
        cond = print_expr(stmt.cond) if stmt.cond is not None else ""
        update = _print_for_clause(stmt.update, trailing=False)
        head = f"{indent}{_inline_ann(stmt.annotations)}"
        return (
            f"{head}{label}for ({init}; {cond}; {update}) "
            + _print_stmt_as_block(stmt.body, indent)
        )
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            return f"{indent}return;"
        return f"{indent}return {print_expr(stmt.value)};"
    if isinstance(stmt, ast.Break):
        return f"{indent}break;"
    if isinstance(stmt, ast.Continue):
        return f"{indent}continue;"
    if isinstance(stmt, ast.ExprStmt):
        return f"{indent}{print_expr(stmt.expr)};"
    raise TypeError(f"unhandled statement {type(stmt).__name__}")


def _print_for_clause(stmt, trailing: bool = True) -> str:
    if stmt is None:
        return ""
    text = print_stmt(stmt, "")
    return text[:-1] if text.endswith(";") else text


def _print_stmt_as_block(stmt: ast.Stmt, indent: str) -> str:
    if isinstance(stmt, ast.Block):
        return _print_block(stmt, indent)
    inner = print_stmt(stmt, indent + _INDENT)
    return "{\n" + inner + "\n" + indent + "}"


_PRECEDENCE = dict(BINARY_OPERATORS.values())


def print_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.FloatLit):
        return repr(expr.value)
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.StringLit):
        escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    if isinstance(expr, ast.NullLit):
        return "null"
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.ThisRef):
        return "this"
    if isinstance(expr, ast.FieldAccess):
        return f"{print_expr(expr.obj, 99)}.{expr.field_name}"
    if isinstance(expr, ast.ArrayAccess):
        return f"{print_expr(expr.array, 99)}[{print_expr(expr.index)}]"
    if isinstance(expr, ast.ArrayLength):
        return f"{print_expr(expr.array, 99)}.length"
    if isinstance(expr, ast.Unary):
        if expr.op.startswith("cast:"):
            target = expr.op.split(":", 1)[1]
            return f"({target}) {print_expr(expr.operand, 98)}"
        return f"{expr.op}{print_expr(expr.operand, 98)}"
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE[expr.op]
        text = (
            f"{print_expr(expr.left, prec)} {expr.op} "
            f"{print_expr(expr.right, prec + 1)}"
        )
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.Call):
        receiver = f"{print_expr(expr.receiver, 99)}." if expr.receiver else ""
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{receiver}{expr.method}({args})"
    if isinstance(expr, ast.New):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"new {expr.class_name}({args})"
    if isinstance(expr, ast.NewArray):
        return f"new {expr.element}[{print_expr(expr.size)}]"
    raise TypeError(f"unhandled expression {type(expr).__name__}")
