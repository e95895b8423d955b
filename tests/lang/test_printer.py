"""Printer tests: parse→print→parse must be a fixpoint and preserve
semantics (checked via the conventional type checker and the runtime)."""

import pytest

from repro.apps import APP_NAMES, load_app
from repro.lang import ast, parse_program, resolve_program, typecheck_program
from repro.lang.printer import print_expr, print_program, print_stmt


def roundtrip(source: str) -> str:
    printed = print_program(parse_program(source))
    again = print_program(parse_program(printed))
    assert printed == again
    return printed


class TestRoundTrip:
    def test_minimal_class(self):
        out = roundtrip("class A { int x; }")
        assert "class A" in out and "int x;" in out

    def test_annotations_preserved(self):
        out = roundtrip('@LATTICE("A<B") class T { @LOC("A") int f; }')
        assert '@LATTICE("A<B")' in out
        assert '@LOC("A")' in out

    def test_marker_annotation(self):
        out = roundtrip("class T { void m(@DELEGATE T t) { } }")
        assert "@DELEGATE" in out

    def test_maxloop_int(self):
        out = roundtrip(
            "class T { void m() { @MAXLOOP(5) while (true) { break; } } }"
        )
        assert "@MAXLOOP(5)" in out

    def test_loop_labels(self):
        out = roundtrip(
            "class T { void m() { SSJAVA: while (true) { } } }"
        )
        assert "SSJAVA:" in out

    def test_else_branches(self):
        roundtrip(
            "class T { void m(int a) { if (a > 0) { a = 1; } else { a = 2; } } }"
        )

    def test_for_loop(self):
        out = roundtrip(
            "class T { void m() { for (int i = 0; i < 3; i++) { } } }"
        )
        assert "i++" in out

    def test_operator_precedence_preserved(self):
        source = "class T { void m(int a, int b, int c) { int x = (a + b) * c; } }"
        printed = roundtrip(source)
        assert "(a + b) * c" in printed

    def test_nested_precedence(self):
        source = "class T { void m(int a, int b) { int x = a - (b - 1); } }"
        printed = roundtrip(source)
        assert "a - (b - 1)" in printed

    def test_string_escapes(self):
        roundtrip('class T { void m() { String s = "a\\n\\"b\\""; } }')

    def test_casts(self):
        out = roundtrip("class T { void m(float f) { int i = (int) f; } }")
        assert "(int) f" in out

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_apps_roundtrip_and_typecheck(self, name):
        app = load_app(name)
        printed = print_program(app.program)
        program = parse_program(printed)
        info = resolve_program(program)
        typecheck_program(info)
        assert print_program(program) == printed


def literal_shape(expr: ast.Expr):
    """A signed literal without source positions."""
    if isinstance(expr, ast.Unary):
        return expr.op, literal_shape(expr.operand)
    return type(expr).__name__, expr.value


class TestOverflowingFloatLiteral:
    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    def test_round_trips_to_an_equal_ast(self, literal):
        """A literal that overflows to inf must print as one that lexes
        back to inf, not as ``inf``, an unknown identifier."""
        program = parse_program(
            f"class T {{ float f; void m() {{ f = {literal}; }} }}"
        )
        again = parse_program(print_program(program))
        typecheck_program(resolve_program(again))

        def value(tree):
            return tree.classes[0].methods[0].body.stmts[0].value

        assert literal_shape(value(again)) == literal_shape(value(program))


class TestFragments:
    def test_print_expr_smoke(self):
        program = parse_program("class T { void m(int a) { int x = a * 2 + 1; } }")
        decl = program.classes[0].methods[0].body.stmts[0]
        assert print_expr(decl.init) == "a * 2 + 1"

    def test_print_stmt_return(self):
        program = parse_program("class T { int m() { return 1; } }")
        stmt = program.classes[0].methods[0].body.stmts[0]
        assert print_stmt(stmt) == "return 1;"


# -- precedence ------------------------------------------------------------

BINARY_OPS = ("||", "&&", "==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "%")


def parse_expr(text: str) -> ast.Expr:
    program = parse_program(f"class T {{ void m() {{ x = {text}; }} }}")
    return program.classes[0].methods[0].body.stmts[0].value


def shape(expr: ast.Expr):
    """The tree without source positions."""
    if isinstance(expr, ast.Binary):
        return (expr.op, shape(expr.left), shape(expr.right))
    return expr.name


@pytest.mark.parametrize("op2", BINARY_OPS)
@pytest.mark.parametrize("op1", BINARY_OPS)
def test_parser_and_printer_agree_on_precedence(op1, op2):
    """``(a op1 b) op2 c`` and ``a op1 (b op2 c)`` print to text that
    parses back to the same tree: the printer parenthesizes exactly
    where the parser's precedence and left-associativity need it."""
    a, b, c = (ast.VarRef(name=name) for name in "abc")
    for tree in (
        ast.Binary(op=op2, left=ast.Binary(op=op1, left=a, right=b), right=c),
        ast.Binary(op=op1, left=a, right=ast.Binary(op=op2, left=b, right=c)),
    ):
        assert shape(parse_expr(print_expr(tree))) == shape(tree)
