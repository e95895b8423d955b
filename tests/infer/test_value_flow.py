"""Value flow graph construction tests (Section 5.2.1)."""

import pytest
from hypothesis import given, settings

from repro.apps import APP_NAMES, DIST_APP_NAMES, load_app
from repro.infer.value_flow import (
    PC_ROOT,
    RET_ROOT,
    THIS_ROOT,
    ValueFlowAnalysis,
)
from repro.obs import RingBufferSink, Tracer, installed_tracer
from tests.conftest import analyze
from tests.test_fuzz import programs


def graphs_for(source: str):
    info = analyze(source)
    analysis = ValueFlowAnalysis(info)
    analysis.run()
    return analysis


def loop_source(body: str, extra: str = "") -> str:
    return f'''
    class Main {{
      void run() {{
        SSJAVA:
        while (true) {{
          {body}
        }}
      }}
      {extra}
    }}
    '''


def edge_exists(graph, src_head, dst_head) -> bool:
    return any(a[0] == src_head and b[0] == dst_head for a, b in graph.edges)


class TestExplicitFlows:
    def test_variable_flow(self):
        analysis = graphs_for(loop_source(
            "int v = Device.readSensor(); int w = v; SJ.broadcast(w);"
        ))
        graph = analysis.graphs[("Main", "run")]
        assert (("v",), ("w",)) in graph.edges

    def test_literals_create_no_sources(self):
        analysis = graphs_for(loop_source("int v = 5; SJ.broadcast(v);"))
        graph = analysis.graphs[("Main", "run")]
        incoming = [(a, b) for a, b in graph.edges if b == ("v",) and a[0] != PC_ROOT]
        assert incoming == []

    def test_field_flows(self):
        analysis = graphs_for('''
        class Main {
          int f; int g;
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              f = v;
              g = f;
              SJ.broadcast(g);
            }
          }
        }
        ''')
        graph = analysis.graphs[("Main", "run")]
        assert (("v",), (THIS_ROOT, "f")) in graph.edges
        assert ((THIS_ROOT, "f"), (THIS_ROOT, "g")) in graph.edges

    def test_multi_source_creates_intermediate(self):
        analysis = graphs_for(loop_source(
            "int a = Device.readSensor(); int b = Device.readSensor();"
            "int c = a + b; SJ.broadcast(c);"
        ))
        graph = analysis.graphs[("Main", "run")]
        # a and b feed an IL node which feeds c
        iloc_edges = [
            (a, b) for a, b in graph.edges if b[0].startswith("IL") and a == ("a",)
        ]
        assert iloc_edges
        iloc = iloc_edges[0][1]
        assert (iloc, ("c",)) in graph.edges

    def test_compound_assignment_self_edge(self):
        analysis = graphs_for(loop_source(
            "int a = Device.readSensor(); a += 1; SJ.broadcast(a);"
        ))
        graph = analysis.graphs[("Main", "run")]
        assert (("a",), ("a",)) in graph.edges

    def test_return_node(self):
        analysis = graphs_for(loop_source(
            "int v = Device.readSensor(); int w = half(v); SJ.broadcast(w);",
            extra="int half(int x) { return x / 2; }",
        ))
        graph = analysis.graphs[("Main", "half")]
        assert (("x",), (RET_ROOT,)) in graph.edges


class TestImplicitFlows:
    def test_branch_condition_flows_into_assignments(self):
        analysis = graphs_for(loop_source(
            "int v = Device.readSensor(); int w = 0;"
            "if (v > 0) { w = 1; }"
            "SJ.broadcast(w);"
        ))
        graph = analysis.graphs[("Main", "run")]
        # v -> branch IL -> w
        branch = [b for a, b in graph.edges if a == ("v",) and b[0].startswith("IL")]
        assert branch
        assert any((node, ("w",)) in graph.edges for node in branch)

    def test_pc_node_dominates_destinations(self):
        analysis = graphs_for(loop_source(
            "int v = Device.readSensor(); SJ.broadcast(v);"
        ))
        graph = analysis.graphs[("Main", "run")]
        assert ((PC_ROOT,), ("v",)) in graph.edges

    def test_nested_branches_chain(self):
        analysis = graphs_for(loop_source(
            "int v = Device.readSensor(); int w = 0;"
            "if (v > 0) { if (v > 5) { w = 2; } }"
            "SJ.broadcast(w);"
        ))
        graph = analysis.graphs[("Main", "run")]
        ilocs = {n[0] for n in graph.nodes if n[0].startswith("IL")}
        assert len(ilocs) >= 2


class TestInterprocedural:
    SOURCE = '''
    class Main {
      int f; int g;
      void run() {
        SSJAVA:
        while (true) {
          int v = Device.readSensor();
          f = v;
          copy();
          SJ.broadcast(g);
        }
      }
      void copy() { g = f; }
    }
    '''

    def test_summary_writes(self):
        # this.f → this.g is internal to the receiver's field hierarchy
        # (ordered by the class lattice, not the call summary), but the
        # write into `this`-reachable memory must be recorded.
        analysis = graphs_for(self.SOURCE)
        summary = analysis.summary_for(("Main", "copy"))
        assert (THIS_ROOT, THIS_ROOT) not in summary.flows
        assert THIS_ROOT in summary.written

    def test_param_to_return_summary(self):
        analysis = graphs_for(loop_source(
            "int v = Device.readSensor(); int w = half(v); SJ.broadcast(w);",
            extra="int half(int x) { return x / 2; }",
        ))
        summary = analysis.summary_for(("Main", "half"))
        assert ("x", RET_ROOT) in summary.flows

    def test_call_result_feeds_destination(self):
        analysis = graphs_for(loop_source(
            "int v = Device.readSensor(); int w = half(v); SJ.broadcast(w);",
            extra="int half(int x) { return x / 2; }",
        ))
        graph = analysis.graphs[("Main", "run")]
        # v flows (possibly via the call) into w
        succ = {}
        for a, b in graph.edges:
            succ.setdefault(a, set()).add(b)
        seen, stack = set(), [("v",)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ.get(node, ()))
        assert ("w",) in seen

    def test_trusted_calls_are_fresh_inputs(self):
        analysis = graphs_for('''
        @TRUSTED
        class Src { int next() { return Device.readSensor(); } }
        class Main {
          Src src = new Src();
          void run() {
            SSJAVA:
            while (true) {
              int v = src.next();
              SJ.broadcast(v);
            }
          }
        }
        ''')
        graph = analysis.graphs[("Main", "run")]
        incoming = [
            (a, b) for a, b in graph.edges if b == ("v",) and a[0] != PC_ROOT
        ]
        assert incoming == []

    def test_scope_excludes_unreachable(self):
        analysis = graphs_for(loop_source(
            "SJ.broadcast(1);",
            extra="void unreachable() { int x = 0; }",
        ))
        assert ("Main", "unreachable") not in analysis.graphs


RECURSIVE = loop_source(
    "int v = Device.readSensor(); SJ.broadcast(down(v));",
    "int down(int n) { if (n > 0) { return down(n - 1); } return n; }",
)


def fixpoint_rounds(info) -> tuple[ValueFlowAnalysis, int]:
    ring = RingBufferSink(capacity=64)
    with installed_tracer(Tracer(sinks=[ring])):
        analysis = ValueFlowAnalysis(info)
        analysis.run()
    rounds = sum(
        span.name == "fixpoint_round"
        for root in ring.roots for span in root.walk()
    )
    return analysis, rounds


def assert_a_second_round_changes_nothing(info) -> int:
    """Run the analysis, then run it again over its own summaries: the
    second run must rebuild the same graphs and summaries.  Returns the
    first run's round count."""
    analysis, rounds = fixpoint_rounds(info)
    graphs, summaries = dict(analysis.graphs), dict(analysis.summaries)
    analysis.run()
    assert analysis.graphs == graphs
    assert analysis.summaries == summaries
    return rounds


class TestFixpointRounds:
    @pytest.mark.parametrize("annotated", [True, False])
    @pytest.mark.parametrize("name", APP_NAMES + DIST_APP_NAMES)
    def test_bundled_scopes_take_one_round(self, name, annotated):
        info = load_app(name, annotated=annotated).info
        assert assert_a_second_round_changes_nothing(info) == 1

    @given(programs(annotated=False))
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_scopes_take_one_round(self, source):
        assert assert_a_second_round_changes_nothing(analyze(source)) == 1

    def test_a_recursive_scope_takes_two(self):
        analysis, rounds = fixpoint_rounds(analyze(RECURSIVE))
        assert rounds == 2
        assert ("Main", "down") in analysis.graphs
