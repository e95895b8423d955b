"""The shared statement and expression traversal in ``repro.lang.ast``.

The collecting passes (event loops, the call graph, variable specs,
termination, eviction, lifetimes, SInfer's emission and the Fig. 6.3
annotation count) see a method body only through :func:`ast.walk_stmts`
and :func:`ast.walk_exprs`.  Both are checked against a generic walk over
the dataclass fields, so a node field the traversal does not visit fails
here instead of being skipped by every pass.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.apps import all_app_names, app_source
from repro.lang import ast, parse_program
from tests.test_fuzz import programs

EVERY_STATEMENT_KIND = """
class T {
  int run(int n) {
    int total = 0;
    OUTER:
    for (int i = 0; i < n; i++) {
      if (i == 2) {
        continue;
      } else {
        total = total + f(i);
      }
      while (total > 10) {
        total -= 1;
        break;
      }
      f(total);
    }
    return total;
  }
  int f(int x) { return x; }
}
"""


def fields_walk(node: ast.Node) -> list[ast.Node]:
    """Every statement and expression below ``node``, in pre-order, found
    through the dataclass fields rather than the traversal under test."""
    found: list[ast.Node] = []

    def visit(value) -> None:
        if isinstance(value, list):
            for item in value:
                visit(item)
        elif isinstance(value, ast.Node):
            if isinstance(value, (ast.Stmt, ast.Expr)):
                found.append(value)
            for fld in dataclasses.fields(value):
                visit(getattr(value, fld.name))

    for fld in dataclasses.fields(node):
        visit(getattr(node, fld.name))
    return found


def uids(nodes) -> list[tuple[str, int]]:
    return [(type(node).__name__, node.uid) for node in nodes]


def assert_walks_complete(program: ast.Program) -> None:
    for cls in program.classes:
        for method in cls.methods:
            body = method.body
            below = fields_walk(body)
            stmts = list(ast.walk_stmts(body))
            assert uids(stmts) == uids(
                [body] + [n for n in below if isinstance(n, ast.Stmt)]
            )
            roots = [expr for stmt in stmts for expr in ast.iter_stmt_exprs(stmt)]
            for root in roots:
                assert uids(ast.walk_exprs(root)) == uids(
                    [root] + [n for n in fields_walk(root) if isinstance(n, ast.Expr)]
                )
            assert sorted(uids(ast.walk_exprs(*roots))) == sorted(
                uids(n for n in below if isinstance(n, ast.Expr))
            )


def test_every_statement_kind():
    program = parse_program(EVERY_STATEMENT_KIND)
    assert_walks_complete(program)
    kinds = {
        type(stmt)
        for method in program.classes[0].methods
        for stmt in ast.walk_stmts(method.body)
    }
    assert kinds == set(ast.Stmt.__subclasses__())


@pytest.mark.parametrize("name", all_app_names())
def test_bundled_apps(name):
    assert_walks_complete(parse_program(app_source(name)))


@given(programs(annotated=True))
@settings(max_examples=40, deadline=None)
def test_fuzzed_programs(source):
    assert_walks_complete(parse_program(source))
