"""The inference engine: orchestration, annotation emission, verification
(Sections 5.2, 5.3, 6.3).

Two modes:

* ``naive`` — the maximally precise pipeline of Section 5.2: every
  variable, field and intermediate keeps its own location; the hierarchy
  graphs go straight into Dedekind–MacNeille completion.
* ``sinfer`` — the simplified pipeline of Section 5.3: redundant edges
  removed and equivalent nodes merged before completion, keeping
  interface members precise.

The engine rewrites the program's annotations with the inferred
locations, prints it back to sjava source, and (on request) verifies the
result with the full SJava checker — the paper's correctness criterion
("we used the SJava type checker to verify the correctness of the
generated annotations").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.checker import CheckReport, check_program, timed_front_end
from repro.core.lattice import Lattice
from repro.obs import get_tracer, timed_span
from repro.infer.cycles import avoid_superfluous_cycles
from repro.infer.dedekind import CompletedLattice, complete
from repro.infer.hierarchy import HierarchyGraph, HierarchySet, decompose
from repro.infer.metrics import (
    LatticeMetrics,
    MetricsSummary,
    lattice_metrics,
    summarize_metrics,
)
from repro.infer.simplify import simplify_hierarchy
from repro.infer.value_flow import (
    FlowNode,
    MethodFlowGraph,
    PC_ROOT,
    RET_ROOT,
    THIS_ROOT,
    ValueFlowAnalysis,
)
from repro.lang import ast
from repro.lang.callgraph import MethodKey
from repro.lang.printer import print_program
from repro.lang.symtab import ProgramInfo


@dataclass
class InferenceResult:
    mode: str
    annotated_source: str
    lattices: dict[str, Lattice]
    per_lattice: list[LatticeMetrics]
    summary: MetricsSummary
    elapsed_seconds: float
    #: flows the type system cannot represent (Section 5.2.7)
    dropped_flows: list
    check_report: Optional[CheckReport] = None
    #: Wall seconds per pipeline phase (value_flow, cycle_elimination,
    #: decompose, simplify, complete, emit, verify) — the span-derived
    #: timings the service reports.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.check_report is not None and self.check_report.self_stabilizing

    def summary_dict(self) -> dict:
        """Stable, JSON-serializable summary of an inference run.

        Lattices and per-method graphs stay in memory; what crosses the
        wire (``repro infer --json``, the daemon's ``infer`` op) is the
        verdict plus the Table 6.1 metrics.
        """
        payload = {
            "mode": self.mode,
            "summary": self.summary.to_dict(),
            "lattice_count": len(self.per_lattice),
            "dropped_flows": len(self.dropped_flows),
            "elapsed_seconds": self.elapsed_seconds,
            "verified": self.check_report is not None and self.verified,
            "checked": self.check_report is not None,
        }
        if self.check_report is not None:
            payload["check_report"] = self.check_report.to_dict()
        return payload


class InferenceEngine:
    def __init__(self, info: ProgramInfo, mode: str = "sinfer") -> None:
        if mode not in ("sinfer", "naive"):
            raise ValueError(f"unknown inference mode {mode!r}")
        self.info = info
        self.mode = mode

    def run(self, verify: bool = True) -> InferenceResult:
        phases: dict[str, float] = {}
        with get_tracer().span("infer", mode=self.mode):
            return self._run(verify, phases)

    def _run(self, verify: bool, phases: dict[str, float]) -> InferenceResult:
        start = time.perf_counter()
        with timed_span("value_flow", phases):
            analysis = ValueFlowAnalysis(self.info)
            graphs = analysis.run()
        with timed_span("cycle_elimination", phases) as span:
            renamed: dict[MethodKey, dict[str, FlowNode]] = {}
            for key, graph in graphs.items():
                renamed[key] = avoid_superfluous_cycles(graph)
            span.count("renamed_vars", sum(len(r) for r in renamed.values()))

        with timed_span("decompose", phases):
            hierarchies = decompose(self.info, graphs)

        if self.mode == "sinfer":
            with timed_span("simplify", phases):
                self._simplify(graphs, hierarchies)

        completed: dict[str, CompletedLattice] = {}
        lattices: dict[str, Lattice] = {}
        metrics: list[LatticeMetrics] = []
        with timed_span("complete", phases) as span:
            for key in sorted(hierarchies.method):
                name = f"method {key[0]}.{key[1]}"
                done = complete(hierarchies.method[key], name)
                completed[name] = done
                lattices[name] = done.lattice
                metrics.append(lattice_metrics(name, done.lattice))
            for class_name in sorted(hierarchies.fields):
                name = f"class {class_name}"
                done = complete(hierarchies.fields[class_name], name)
                completed[name] = done
                lattices[name] = done.lattice
                metrics.append(lattice_metrics(name, done.lattice))
            span.count("lattices", len(lattices))

        with timed_span("emit", phases):
            source = self._emit(graphs, hierarchies, completed, renamed)
        elapsed = time.perf_counter() - start

        if verify:
            with timed_span("verify", phases):
                report = check_program(source)
        else:
            report = None
        return InferenceResult(
            mode=self.mode,
            annotated_source=source,
            lattices=lattices,
            per_lattice=metrics,
            summary=summarize_metrics(metrics),
            elapsed_seconds=elapsed,
            dropped_flows=list(hierarchies.dropped),
            check_report=report,
            phase_seconds=phases,
        )

    # -- simplification --------------------------------------------------

    def _simplify(
        self,
        graphs: dict[MethodKey, MethodFlowGraph],
        hierarchies: HierarchySet,
    ) -> None:
        for key, hierarchy in hierarchies.method.items():
            graph = graphs[key]
            interface = {THIS_ROOT, PC_ROOT, RET_ROOT} | set(graph.params)
            simplify_hierarchy(hierarchy, interface)
        for class_name, hierarchy in hierarchies.fields.items():
            interface = {
                fld.name
                for owner in self.info.ancestry(class_name)
                for fld in self.info.classes[owner].fields
            }
            simplify_hierarchy(hierarchy, interface)

    # -- emission -----------------------------------------------------------

    def _emit(
        self,
        graphs: dict[MethodKey, MethodFlowGraph],
        hierarchies: HierarchySet,
        completed: dict[str, CompletedLattice],
        renamed: dict[MethodKey, dict[str, FlowNode]],
    ) -> str:
        program = self.info.program
        for cls in program.classes:
            hierarchy = hierarchies.fields.get(cls.name)
            self._strip(cls.annotations)
            if hierarchy is not None:
                payload = self._lattice_payload(
                    completed[f"class {cls.name}"].lattice
                )
                cls.annotations.append(
                    ast.Annotation(name="LATTICE", value=payload)
                )
                for fld in cls.fields:
                    self._strip(fld.annotations)
                    if fld.name in hierarchy._parent:
                        fld.annotations.append(
                            ast.Annotation(
                                name="LOC", value=hierarchy.canonical(fld.name)
                            )
                        )
            for method in cls.methods:
                key: MethodKey = (cls.name, method.name)
                if key in graphs:
                    self._emit_method(
                        method,
                        graphs[key],
                        hierarchies,
                        completed[f"method {cls.name}.{method.name}"],
                        renamed.get(key, {}),
                        hierarchies.method[key],
                    )
        return print_program(program)

    @staticmethod
    def _strip(annotations: list[ast.Annotation]) -> None:
        annotations[:] = [
            a for a in annotations if a.name not in ast.LOCATION_ANNOTATIONS
        ]

    def _emit_method(
        self,
        method: ast.MethodDecl,
        graph: MethodFlowGraph,
        hierarchies: HierarchySet,
        done: CompletedLattice,
        renames: dict[str, FlowNode],
        hierarchy: HierarchyGraph,
    ) -> None:
        self._strip(method.annotations)
        method.annotations.append(
            ast.Annotation(name="LATTICE", value=self._lattice_payload(done.lattice))
        )
        if graph.has_this:
            method.annotations.append(
                ast.Annotation(
                    name="THISLOC", value=hierarchy.canonical(THIS_ROOT)
                )
            )
        if RET_ROOT in {n[0] for n in graph.nodes}:
            method.annotations.append(
                ast.Annotation(
                    name="RETURNLOC", value=hierarchy.canonical(RET_ROOT)
                )
            )
        if PC_ROOT in {n[0] for n in graph.nodes}:
            method.annotations.append(
                ast.Annotation(name="PCLOC", value=hierarchy.canonical(PC_ROOT))
            )
        for param in method.params:
            self._strip(param.annotations)
            param.annotations.append(
                ast.Annotation(
                    name="LOC", value=hierarchy.canonical(param.name)
                )
            )
        for stmt in ast.walk_stmts(method.body):
            if isinstance(stmt, ast.VarDecl):
                self._strip(stmt.annotations)
                loc = self._var_location(
                    stmt.name, graph, hierarchies, hierarchy, renames
                )
                if loc is not None:
                    stmt.annotations.append(ast.Annotation(name="LOC", value=loc))

    def _var_location(
        self,
        name: str,
        graph: MethodFlowGraph,
        hierarchies: HierarchySet,
        method_hierarchy: HierarchyGraph,
        renames: dict[str, FlowNode],
    ) -> Optional[str]:
        if name in renames:
            anchor, fresh = renames[name]
            owner = graph.fresh_elements.get(fresh)
            elements = [method_hierarchy.canonical(anchor)]
            if owner is not None and owner in hierarchies.fields:
                elements.append(hierarchies.fields[owner].canonical(fresh))
            else:
                elements.append(fresh)
            return ",".join(elements)
        if name in graph.roots:
            return method_hierarchy.canonical(name)
        return None

    # -- payloads --------------------------------------------------------------

    @staticmethod
    def _lattice_payload(lattice: Lattice) -> str:
        entries: list[str] = []
        mentioned: set[str] = set()
        for low, high in sorted(lattice.direct_edges()):
            entries.append(f"{low}<{high}")
            mentioned.add(low)
            mentioned.add(high)
        for element in sorted(lattice.shared_elements):
            entries.append(f"{element}*")
            mentioned.add(element)
        for element in sorted(lattice.user_elements() - mentioned):
            entries.append(element)
        return ",".join(entries)


def infer_annotations(
    info: ProgramInfo, mode: str = "sinfer", verify: bool = True
) -> InferenceResult:
    """Infer location annotations for a (typically stripped) program."""
    return InferenceEngine(info, mode=mode).run(verify=verify)


def timed_infer(
    source: str, mode: str = "sinfer", verify: bool = True
) -> tuple[InferenceResult, dict]:
    """:func:`infer_annotations` on source text, also returning its wall
    times: the front end's ``parse``/``resolve``/``typecheck`` (through
    :func:`repro.core.checker.timed_front_end`, spans included), the
    engine's ``phase_seconds`` and a ``total`` around the whole run."""
    start = time.perf_counter()
    timings: dict[str, float] = {}
    info = timed_front_end(source, timings)
    result = infer_annotations(info, mode=mode, verify=verify)
    timings.update(result.phase_seconds)
    timings["total"] = time.perf_counter() - start
    return result, timings
