"""Call graph construction tests."""

import pytest
from hypothesis import given, settings

from repro.lang import ast, parse_program, resolve_program, typecheck_program
from repro.lang.callgraph import CallGraph, build_call_graph
from repro.lang.symtab import MethodCall
from tests.lang.test_typecheck import SAMPLE_PROGRAMS
from tests.test_fuzz import programs


def graph_for(source: str):
    program = parse_program(source)
    info = resolve_program(program)
    typecheck_program(info)
    return info, build_call_graph(info)


class TestEdges:
    def test_simple_call_edge(self):
        _, graph = graph_for(
            "class A { void a() { b(); } void b() { } }"
        )
        assert ("A", "b") in graph.callees(("A", "a"))

    def test_builtin_calls_excluded(self):
        _, graph = graph_for(
            "class A { void a() { SJ.broadcast(1); } }"
        )
        assert graph.callees(("A", "a")) == set()

    def test_dynamic_dispatch_expansion(self):
        _, graph = graph_for(
            "class A { void f() { } } "
            "class B extends A { void f() { } } "
            "class T { A a; void m() { a.f(); } }"
        )
        callees = graph.callees(("T", "m"))
        assert ("A", "f") in callees and ("B", "f") in callees

    def test_static_call_edge(self):
        _, graph = graph_for(
            "class H { static void s() { } } class T { void m() { H.s(); } }"
        )
        assert ("H", "s") in graph.callees(("T", "m"))

    def test_calls_in_conditions_found(self):
        _, graph = graph_for(
            "class A { boolean p() { return true; } "
            "void m() { if (p()) { } while (p()) { break; } } }"
        )
        assert ("A", "p") in graph.callees(("A", "m"))


class TestReachability:
    def test_reachable_transitively(self):
        _, graph = graph_for(
            "class A { void a() { b(); } void b() { c(); } void c() { } "
            "void unrelated() { } }"
        )
        reach = graph.reachable_from(("A", "a"))
        assert ("A", "c") in reach
        assert ("A", "unrelated") not in reach

    def test_topological_order_callees_first(self):
        _, graph = graph_for(
            "class A { void a() { b(); } void b() { c(); } void c() { } }"
        )
        scope = {("A", "a"), ("A", "b"), ("A", "c")}
        order = graph.topological_order(scope)
        assert order.index(("A", "c")) < order.index(("A", "b"))
        assert order.index(("A", "b")) < order.index(("A", "a"))


class TestRecursion:
    def test_direct_recursion_found(self):
        _, graph = graph_for("class A { void a() { a(); } }")
        cycle = graph.find_recursive_cycle({("A", "a")})
        assert cycle is not None

    def test_mutual_recursion_found(self):
        _, graph = graph_for(
            "class A { void a() { b(); } void b() { a(); } }"
        )
        assert graph.find_recursive_cycle({("A", "a"), ("A", "b")}) is not None

    def test_acyclic_graph_clean(self):
        _, graph = graph_for(
            "class A { void a() { b(); b(); } void b() { } }"
        )
        assert graph.find_recursive_cycle({("A", "a"), ("A", "b")}) is None

    def test_cycle_outside_scope_ignored(self):
        _, graph = graph_for(
            "class A { void a() { } void r() { r(); } }"
        )
        assert graph.find_recursive_cycle({("A", "a")}) is None


def walk_call_graph(info) -> CallGraph:
    """The reference builder: walks every method body for the calls
    the type checker resolved, instead of reading the calls it recorded
    while typing."""
    graph = CallGraph()
    for cls in info.program.classes:
        for method in cls.methods:
            caller = (cls.name, method.name)
            graph.edges.setdefault(caller, set())
            calls = [
                expr
                for stmt in ast.walk_stmts(method.body)
                for expr in ast.walk_exprs(*ast.iter_stmt_exprs(stmt))
                if isinstance(expr, ast.Call)
            ]
            for call in calls:
                target = info.call_targets.get(call.uid)
                if not isinstance(target, MethodCall):
                    continue
                for owner, decl in info.overriding_decls(
                    target.receiver_class, target.decl.name
                ):
                    graph.edges[caller].add((owner, decl.name))
    return graph


def assert_same_as_walk(source: str) -> None:
    info, graph = graph_for(source)
    reference = walk_call_graph(info)
    assert list(graph.edges) == list(reference.edges)
    assert graph.edges == reference.edges


class TestAgainstWalk:
    @pytest.mark.parametrize("path", SAMPLE_PROGRAMS, ids=lambda p: p.name)
    def test_same_edges_on_sample_programs(self, path):
        assert_same_as_walk(path.read_text())

    @given(programs(annotated=False))
    @settings(max_examples=100, deadline=None)
    def test_same_edges_on_fuzzed_programs(self, source):
        assert_same_as_walk(source)

    def test_same_edges_with_dispatch_and_nested_calls(self):
        assert_same_as_walk(
            "class A { int f(int v) { return v; } } "
            "class B extends A { int f(int v) { return v + 1; } } "
            "class T { A a; int g() { return 1; } "
            "void m() { int x = a.f(g()); while (a.f(x) > 0) { x = x - 1; } "
            "for (int i = g(); i < 3; i++) { x = a.f(i); } } }"
        )
