"""The SJava checker driver.

Runs, in order: the conventional Java-level front end, location
environment construction, the flow-down type checker, the linear type
checker, the inheritance checks, the termination analysis, the
definitely-written (eviction) analysis, and the shared-location
extension.  The result is a :class:`CheckReport`: a program
*self-stabilizes* (Theorem 4.5.3) when the report is error-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.obs import get_tracer, section, timed_span

from repro.core.environment import LocationWorld
from repro.core.errors import Check, Diagnostic, DiagnosticSink, Severity
from repro.core.eviction import EvictionAnalysis, LoopFacts, MethodSummary
from repro.core.flow_checker import FlowChecker
from repro.core.inheritance import InheritanceChecker
from repro.core.linear import LinearTypeChecker
from repro.core.shared import SharedLocationAnalysis
from repro.core.termination import TerminationAnalysis
from repro.lang import ast
from repro.lang.callgraph import CallGraph, MethodKey, build_call_graph
from repro.lang.parser import parse_program
from repro.lang.symtab import ProgramInfo, resolve_program
from repro.lang.typecheck import typecheck_program


@dataclass
class CheckReport:
    """Outcome of checking one program."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    checked_scope: set[MethodKey] = field(default_factory=set)
    loop_facts: Optional[LoopFacts] = None
    summaries: dict[MethodKey, MethodSummary] = field(default_factory=dict)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def self_stabilizing(self) -> bool:
        """True when every check passed: the program provably returns to
        the correct state within a bounded number of loop iterations."""
        return not self.errors

    def errors_of(self, check: Check) -> list[Diagnostic]:
        return [d for d in self.errors if d.check is check]

    def sorted_diagnostics(self) -> list[Diagnostic]:
        """Diagnostics in source order — by (line, col, check) rather than
        by analysis pass, so output is stable across checker refactors."""
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def format(self) -> str:
        if not self.diagnostics:
            return "self-stabilizing: all checks passed"
        return "\n".join(str(d) for d in self.sorted_diagnostics())

    def to_dict(self) -> dict:
        """JSON-serializable form.  Only the verdict-bearing parts survive
        (diagnostics + checked scope); the analysis artifacts
        (``loop_facts``, ``summaries``) hold AST references and are not
        serialized."""
        return {
            "self_stabilizing": self.self_stabilizing,
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
            "checked_scope": sorted(
                [cls, meth] for cls, meth in self.checked_scope
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckReport":
        diagnostics = [
            Diagnostic.from_dict(entry)
            for entry in data.get("diagnostics", [])
        ]
        scope = {
            (str(c), str(m)) for c, m in data.get("checked_scope", [])
        }
        return cls(diagnostics=diagnostics, checked_scope=scope)


class SJavaChecker:
    """Checks whether a resolved program self-stabilizes."""

    def __init__(self, info: ProgramInfo) -> None:
        self.info = info
        self.sink = DiagnosticSink()
        with get_tracer().span("lattice_build"):
            self.world = LocationWorld(info, self.sink)
            self.call_graph: CallGraph = build_call_graph(info)

    def run(self) -> CheckReport:
        tracer = get_tracer()
        with section("checker.check"):
            with tracer.span("check") as span:
                report = self._run(tracer)
                span.count("diagnostics", len(report.diagnostics))
                span.set_attr("self_stabilizing", report.self_stabilizing)
        return report

    def _run(self, tracer) -> CheckReport:
        report = CheckReport()
        loop = self._require_event_loop()
        if loop is None:
            report.diagnostics = self.sink.diagnostics
            return report

        with tracer.span("flow_check") as span:
            flow = FlowChecker(
                self.info, self.world, self.sink, self.call_graph
            )
            scope = flow.check()
            span.count("methods", len(scope))
        report.checked_scope = scope

        with tracer.span("linear"):
            LinearTypeChecker(self.info, self.world, scope, self.sink).run()
        with tracer.span("inheritance"):
            InheritanceChecker(self.info, self.world, self.sink).run()
        with tracer.span("termination"):
            TerminationAnalysis(
                self.info, self.call_graph, scope, self.sink
            ).run()

        trusted = {
            key
            for key in self.call_graph.reachable_from(
                (loop.class_name, loop.method.name)
            )
            if (env := self.world.env_of(*key)) is not None and env.trusted
        }
        with tracer.span("eviction"):
            eviction = EvictionAnalysis(
                self.info,
                self.call_graph,
                scope | trusted,
                flow.facts.via_shared_stmts,
                self.sink,
                trusted=trusted,
            )
            facts = eviction.run()
        report.loop_facts = facts
        report.summaries = eviction.summaries
        if facts is not None:
            with tracer.span("shared"):
                SharedLocationAnalysis(
                    self.info, self.world, facts, self.sink
                ).run()

        report.diagnostics = self.sink.diagnostics
        return report

    def _require_event_loop(self):
        loops = self.info.event_loops
        if not loops:
            self.sink.report(
                Check.STRUCTURE,
                "no main event loop found: label the loop with SSJAVA:",
            )
            return None
        if len(loops) > 1:
            names = ", ".join(f"{l.class_name}.{l.method.name}" for l in loops)
            self.sink.report(
                Check.STRUCTURE,
                f"multiple SSJAVA event loops found ({names}); exactly one "
                "is required",
            )
            return None
        return loops[0]


def check_program(source: str) -> CheckReport:
    """Parse, resolve and check an sjava program for self-stabilization.

    Front-end failures (syntax errors, conventional type errors) raise;
    SJava check failures are reported in the returned
    :class:`CheckReport`.
    """
    return timed_check(source)[0]


def timed_check(source: str) -> tuple[CheckReport, dict]:
    """:func:`check_program`, also returning each pass's wall time.

    The timings cover ``parse``/``resolve``/``typecheck``/``check`` in
    seconds.  Each pass also opens a span on the installed tracer
    (:mod:`repro.obs`), so ``--trace``/``--profile`` see the same phases
    the timings dict reports.
    """
    timings: dict[str, float] = {}
    info = timed_front_end(source, timings)
    start = time.perf_counter()
    # SJavaChecker opens its own "lattice_build" and "check" spans.
    report = SJavaChecker(info).run()
    timings["check"] = time.perf_counter() - start
    return report, timings


def timed_front_end(source: str, timings: dict) -> ProgramInfo:
    """Parse, resolve and typecheck ``source``, recording each pass's
    wall time in ``timings`` under a span of the same name.  The one
    front end :func:`timed_check` and
    :func:`repro.infer.engine.timed_infer` share."""
    with timed_span("parse", timings):
        program = parse_program(source)
    return _resolve_timed(program, timings)


def check_parsed(program: ast.Program) -> CheckReport:
    return SJavaChecker(_resolve_timed(program, {})).run()


def _resolve_timed(program: ast.Program, timings: dict) -> ProgramInfo:
    with timed_span("resolve", timings):
        info = resolve_program(program)
    with timed_span("typecheck", timings):
        typecheck_program(info)
    return info
