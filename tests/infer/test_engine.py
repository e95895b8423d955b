"""Inference engine end-to-end tests (Sections 5.2–5.3, 6.3)."""

import copy
from typing import Optional
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.apps import APP_NAMES, load_app
from repro.infer import cycles, infer_annotations
from repro.infer.cycles import avoid_superfluous_cycles
from repro.infer.value_flow import (
    PC_ROOT,
    RET_ROOT,
    FlowNode,
    MethodFlowGraph,
    RootInfo,
    ValueFlowAnalysis,
)
from tests.conftest import analyze


class TestCycleAvoidance:
    SOURCE = '''
    class Main {
      float curHum; float index;
      void run() {
        SSJAVA:
        while (true) {
          float h = Device.readHumidity();
          curHum = h;
          float f3 = curHum * curHum;
          index = f3 + 1.0;
          SJ.broadcast(index);
        }
      }
    }
    '''

    def test_local_between_fields_is_renamed(self):
        # the paper's Fig. 5.6 scenario: f3 takes from curHum and feeds
        # index, so it must move into this's field hierarchy
        info = analyze(self.SOURCE)
        analysis = ValueFlowAnalysis(info)
        graphs = analysis.run()
        graph = graphs[("Main", "run")]
        renamed = avoid_superfluous_cycles(graph)
        assert "f3" in renamed
        anchor, fresh = renamed["f3"]
        assert anchor == "this"
        assert fresh in graph.fresh_elements

    def test_unrelated_local_not_renamed(self):
        info = analyze(self.SOURCE)
        analysis = ValueFlowAnalysis(info)
        graph = analysis.run()[("Main", "run")]
        renamed = avoid_superfluous_cycles(graph)
        assert "h" not in renamed


def reference_find_candidate(
    graph: MethodFlowGraph,
) -> Optional[tuple[str, str]]:
    """The quadratic search that ``cycles._find_candidate`` replaced: one
    forward search per graph node for the roots that reach a candidate."""
    succ: dict[FlowNode, set[FlowNode]] = {}
    for a, b in graph.edges:
        succ.setdefault(a, set()).add(b)

    def reachable_roots(start: list[FlowNode]) -> set[str]:
        seen: set[FlowNode] = set()
        stack = list(start)
        roots: set[str] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            roots.add(node[0])
            stack.extend(succ.get(node, ()))
        return roots

    for root in sorted(graph.roots):
        info = graph.roots[root]
        if info.kind not in cycles._RENAMEABLE_KINDS:
            continue
        rooted = [n for n in graph.nodes if n[0] == root]
        if not rooted:
            continue
        forward = reachable_roots(rooted) - {root, PC_ROOT, RET_ROOT}
        if not forward:
            continue
        backward = {
            n[0]
            for n in graph.nodes
            if n[0] not in (root, PC_ROOT)
            and root in reachable_roots([n])
        }
        anchors = sorted(
            anchor
            for anchor in forward & backward
            if cycles._is_object_root(graph, anchor)
        )
        if anchors:
            return root, anchors[0]
    return None


#: Root name -> kind: every kind a flow graph holds.
ROOT_KINDS = {
    "this": "this", "p0": "param", "p1": "param",
    "v0": "var", "v1": "var", "v2": "var",
    "IL0": "iloc", "IL1": "iloc", PC_ROOT: "pc", RET_ROOT: "ret",
}


@st.composite
def flow_graphs(draw) -> MethodFlowGraph:
    graph = MethodFlowGraph(key=("C", "m"))
    for name in draw(st.lists(
        st.sampled_from(sorted(ROOT_KINDS)), min_size=2, unique=True,
    )):
        class_name = draw(st.sampled_from([None, "C", "D"]))
        graph.roots[name] = RootInfo(ROOT_KINDS[name], class_name)
    nodes = st.tuples(
        st.sampled_from(sorted(graph.roots)),
        st.sampled_from([(), ("f",), ("f", "g")]),
    ).map(lambda parts: (parts[0], *parts[1]))
    for node in draw(st.lists(nodes, max_size=4)):
        graph.add_node(node)
    for src, dst in draw(st.lists(st.tuples(nodes, nodes), min_size=4, max_size=40)):
        graph.add_edge(src, dst)
    return graph


@given(flow_graphs())
@settings(max_examples=300, deadline=None)
def test_cycle_search_matches_the_quadratic_reference(graph):
    reference = copy.deepcopy(graph)
    renamed = avoid_superfluous_cycles(graph)
    with mock.patch.object(cycles, "_find_candidate", reference_find_candidate):
        expected = avoid_superfluous_cycles(reference)
    assert renamed == expected
    assert graph.nodes == reference.nodes
    assert graph.edges == reference.edges
    assert graph.fresh_elements == reference.fresh_elements
    assert graph.fresh_value_class == reference.fresh_value_class
    assert graph.roots == reference.roots


class TestInferenceCorrectness:
    """Correctness properties of Section 5.1.1: the inferred annotations
    form lattices, are complete, and capture all flows — all established
    by re-running the full checker on the emitted program."""

    @pytest.mark.parametrize("name", APP_NAMES)
    @pytest.mark.parametrize("mode", ["naive", "sinfer"])
    def test_inferred_annotations_verify(self, name, mode):
        app = load_app(name, annotated=False)
        result = infer_annotations(app.info, mode=mode)
        assert result.verified, result.check_report.format()

    def test_cyclic_program_gets_shared_location(self):
        source = '''
        class Main {
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              int acc = v;
              acc = acc + 1;
              SJ.broadcast(acc);
            }
          }
        }
        '''
        result = infer_annotations(analyze(source), mode="sinfer")
        assert result.verified
        assert "acc*" in result.annotated_source

    def test_non_stabilizing_program_rejected_by_eviction(self):
        # inference may find typeable shared annotations, but the eviction
        # analysis must still reject the never-cleared accumulator
        # (Section 5.2.7)
        source = '''
        class Main {
          int total;
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              total = total + v;
              SJ.broadcast(total);
            }
          }
        }
        '''
        result = infer_annotations(analyze(source), mode="sinfer")
        assert not result.verified
        kinds = {d.check.value for d in result.check_report.errors}
        assert kinds & {"shared", "eviction"}


class TestSimplificationGoals:
    def test_sinfer_not_more_complex_than_naive(self):
        for name in APP_NAMES:
            naive = infer_annotations(
                load_app(name, annotated=False).info, mode="naive", verify=False
            )
            sinfer = infer_annotations(
                load_app(name, annotated=False).info, mode="sinfer", verify=False
            )
            assert (
                sinfer.summary.total_locations <= naive.summary.total_locations
            ), name
            assert sinfer.summary.total_paths <= naive.summary.total_paths, name

    def test_interface_members_keep_locations(self):
        # fields (interface members) must still have distinct orderings
        app = load_app("weather_index", annotated=False)
        result = infer_annotations(app.info, mode="sinfer", verify=False)
        source = result.annotated_source
        for field_name in ("prevTemp", "avgTemp", "curHum", "index"):
            assert f'@LOC("{field_name}")' in source

    def test_emission_includes_method_interface(self):
        app = load_app("weather_index", annotated=False)
        result = infer_annotations(app.info, mode="sinfer", verify=False)
        assert '@THISLOC("this")' in result.annotated_source
        assert "@PCLOC(" in result.annotated_source

    def test_deterministic(self):
        first = infer_annotations(
            load_app("wind_sensor", annotated=False).info, verify=False
        )
        second = infer_annotations(
            load_app("wind_sensor", annotated=False).info, verify=False
        )
        assert first.annotated_source == second.annotated_source


class TestMetricsIntegration:
    def test_metrics_populated(self):
        result = infer_annotations(
            load_app("mp3_decoder", annotated=False).info, verify=False
        )
        assert result.per_lattice
        assert result.summary.total_locations > 0
        assert result.elapsed_seconds > 0

    def test_unknown_mode_rejected(self):
        from repro.infer import InferenceEngine

        with pytest.raises(ValueError):
            InferenceEngine(load_app("wind_sensor").info, mode="magic")
