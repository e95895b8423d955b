"""Value flow graph construction (Section 5.2.1, Figs. 5.2–5.4).

A node is a tuple of names: a *root* (``'this'``, a parameter or local
variable name, ``'PC'``, ``'RET'``, or a generated intermediate ``IL#``)
followed by a field path.  An edge ``a → b`` records an explicit or
implicit information flow from ``a`` to ``b``, and therefore the
constraint *loc(a) strictly above loc(b)* (except for genuine cycles,
which later merge into shared locations).

Intermediate nodes (``IL#``) are generated wherever the type checker will
compute a GLB — multi-operand expressions feeding a destination, branch
conditions, and call results — so that the eventual lattice has a
location *strictly between* the operands' meet and the destination
(without them the destination itself could be the meet and the strict
flow-down comparison would fail).

Interprocedural flows use per-callee summaries: which interface members
(``this``/parameters) flow into which members' reachable memory or into
the return value, and which members' memory is written at all (for
implicit-flow edges at call sites under branches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lang import ast
from repro.lang.callgraph import CallGraph, MethodKey, build_call_graph
from repro.obs import get_tracer, section
from repro.lang.symtab import BuiltinCall, MethodCall, ProgramInfo

FlowNode = tuple[str, ...]

PC_ROOT = "PC"
RET_ROOT = "RET"
THIS_ROOT = "this"


@dataclass
class RootInfo:
    kind: str  # 'this' | 'param' | 'var' | 'iloc' | 'pc' | 'ret'
    class_name: Optional[str] = None  # static class for reference roots


@dataclass
class MethodFlowGraph:
    key: MethodKey
    nodes: set[FlowNode] = field(default_factory=set)
    edges: set[tuple[FlowNode, FlowNode]] = field(default_factory=set)
    roots: dict[str, RootInfo] = field(default_factory=dict)
    #: fresh field elements created by cycle avoidance / intermediates:
    #: element name -> owning class (whose field hierarchy declares it)
    fresh_elements: dict[str, str] = field(default_factory=dict)
    #: fresh element name -> class of the *value* stored there (for
    #: resolving deeper field positions after a cycle-avoidance rename)
    fresh_value_class: dict[str, str] = field(default_factory=dict)
    params: list[str] = field(default_factory=list)
    has_this: bool = False

    def add_node(self, node: FlowNode) -> FlowNode:
        self.nodes.add(node)
        return node

    def add_edge(self, src: FlowNode, dst: FlowNode) -> None:
        if src == dst:
            # a self flow is a genuine cycle: keep it, the hierarchy stage
            # will merge it into a shared location
            pass
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges.add((src, dst))

    def rename_root(self, root: str, prefix: FlowNode) -> None:
        """Rewrite every node rooted at ``root`` to start with ``prefix``
        (cycle avoidance, Section 5.2.2)."""

        def rewrite(node: FlowNode) -> FlowNode:
            if node and node[0] == root:
                return prefix + node[1:]
            return node

        self.edges = {(rewrite(a), rewrite(b)) for (a, b) in self.edges}
        self.nodes = {rewrite(n) for n in self.nodes}


@dataclass(frozen=True)
class MethodFlowSummary:
    """Interface effects of a method, in terms of 'this'/param names."""

    flows: frozenset[tuple[str, str]] = frozenset()  # (src, dst|'RET')
    written: frozenset[str] = frozenset()


EMPTY_SUMMARY = MethodFlowSummary()


class ValueFlowAnalysis:
    """Builds flow graphs for every method reachable from the event loop."""

    def __init__(
        self, info: ProgramInfo, call_graph: Optional[CallGraph] = None
    ) -> None:
        self.info = info
        self.call_graph = call_graph or build_call_graph(info)
        self.graphs: dict[MethodKey, MethodFlowGraph] = {}
        self.summaries: dict[MethodKey, MethodFlowSummary] = {}
        self.trusted: set[MethodKey] = self._trusted_methods()
        self._unbuilt: set[MethodKey] = set()
        self._read_unbuilt = False

    def _trusted_methods(self) -> set[MethodKey]:
        trusted = set()
        for cls in self.info.program.classes:
            class_trusted = (
                ast.annotation_named(cls.annotations, "TRUSTED") is not None
            )
            for method in cls.methods:
                if class_trusted or (
                    ast.annotation_named(method.annotations, "TRUSTED") is not None
                ):
                    trusted.add((cls.name, method.name))
        return trusted

    def scope(self) -> set[MethodKey]:
        loop = self.info.event_loop
        if loop is None:
            return set()
        reachable = self.call_graph.reachable_from(
            (loop.class_name, loop.method.name)
        )
        return {key for key in reachable if key not in self.trusted}

    def run(self) -> dict[MethodKey, MethodFlowGraph]:
        scope = self.scope()
        order = self.call_graph.topological_order(scope)
        tracer = get_tracer()
        with section("infer.fixpoint"):
            self._run_rounds(order, tracer)
        return self.graphs

    def _run_rounds(self, order, tracer) -> None:
        """Build every graph, callees first.  In a recursion-free scope
        each summary a method reads is then final, and one round is the
        fixed point.  A recursive scope reads some summary before its
        method is built (as empty), so a second round rebuilds every
        graph with the first round's summaries."""
        self._unbuilt = set(order)
        self._read_unbuilt = False
        for round_index in range(2):
            with tracer.span("fixpoint_round", round=round_index) as span:
                for key in order:
                    cls = self.info.classes[key[0]]
                    method = cls.method_named(key[1])
                    assert method is not None
                    builder = _GraphBuilder(self, key[0], method)
                    graph = builder.build()
                    summary = _summarize(graph)
                    if self.summaries.get(key) != summary:
                        span.count("summaries_changed")
                    self.graphs[key] = graph
                    self.summaries[key] = summary
                    self._unbuilt.discard(key)
                span.count("methods", len(order))
            if not self._read_unbuilt:
                break

    def summary_for(self, key: MethodKey) -> MethodFlowSummary:
        if key in self._unbuilt:
            self._read_unbuilt = True
        return self.summaries.get(key, EMPTY_SUMMARY)


def _summarize(graph: MethodFlowGraph) -> MethodFlowSummary:
    members = [THIS_ROOT] if graph.has_this else []
    members += graph.params
    # reachability over the graph
    succ: dict[FlowNode, set[FlowNode]] = {}
    for a, b in graph.edges:
        succ.setdefault(a, set()).add(b)

    def reachable(start_nodes: list[FlowNode]) -> set[FlowNode]:
        seen: set[FlowNode] = set()
        stack = list(start_nodes)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ.get(node, ()))
        return seen

    flows: set[tuple[str, str]] = set()
    for src in members:
        rooted = [n for n in graph.nodes if n[0] == src]
        reach = reachable(rooted)
        for node in reach:
            if node == (RET_ROOT,):
                flows.add((src, RET_ROOT))
            elif node[0] in members and node[0] != src and len(node) > 1:
                flows.add((src, node[0]))

    dests = {b for (_, b) in graph.edges}
    written = frozenset(
        m for m in members if any(d[0] == m and len(d) > 1 for d in dests)
    )
    return MethodFlowSummary(flows=frozenset(flows), written=written)


class _GraphBuilder:
    def __init__(
        self, analysis: ValueFlowAnalysis, class_name: str, method: ast.MethodDecl
    ) -> None:
        self.analysis = analysis
        self.info = analysis.info
        self.class_name = class_name
        self.method = method
        self.graph = MethodFlowGraph(key=(class_name, method.name))
        self.pc_stack: list[FlowNode] = []
        self._iloc_counter = 0
        self._pc_node: Optional[FlowNode] = None

    # -- setup -----------------------------------------------------------

    def build(self) -> MethodFlowGraph:
        graph = self.graph
        if not self.method.is_static:
            graph.has_this = True
            graph.roots[THIS_ROOT] = RootInfo("this", self.class_name)
            graph.add_node((THIS_ROOT,))
        for param in self.method.params:
            graph.params.append(param.name)
            graph.roots[param.name] = RootInfo(
                "param", self._class_of_type(param.decl_type)
            )
            graph.add_node((param.name,))
        self.visit_stmt(self.method.body)
        return graph

    def _class_of_type(self, node: ast.TypeNode) -> Optional[str]:
        if isinstance(node, ast.ClassType) and node.name in self.info.classes:
            return node.name
        return None

    def _fresh_iloc(self, prefix: FlowNode) -> FlowNode:
        self._iloc_counter += 1
        name = f"IL{self._iloc_counter}_{self.method.name}"
        if prefix:
            # the fresh element lives in the field hierarchy of the class
            # reached by the prefix path
            owner = self._class_of_path(prefix)
            if owner is not None:
                self.graph.fresh_elements[name] = owner
                return self.graph.add_node(prefix + (name,))
        self.graph.roots[name] = RootInfo("iloc")
        return self.graph.add_node((name,))

    def _class_of_path(self, path: FlowNode) -> Optional[str]:
        root = self.graph.roots.get(path[0])
        current = root.class_name if root else None
        for field_name in path[1:]:
            if current is None:
                return None
            found = self.info.find_field(current, field_name)
            if found is None:
                return None
            decl_type = found[1].decl_type
            current = (
                decl_type.name
                if isinstance(decl_type, ast.ClassType)
                and decl_type.name in self.info.classes
                else None
            )
        return current

    def pc_node(self) -> FlowNode:
        if self._pc_node is None:
            self.graph.roots[PC_ROOT] = RootInfo("pc")
            self._pc_node = self.graph.add_node((PC_ROOT,))
        return self._pc_node

    # -- destinations ---------------------------------------------------------

    def _flow_into(self, sources: set[FlowNode], dests: set[FlowNode]) -> None:
        """Record flows sources → dests, with an intermediate node when
        several sources combine, plus the implicit pc flows."""
        if not dests:
            return
        explicit: set[FlowNode] = set()
        if len(sources) > 1:
            prefix = self._common_prefix(sources, dests)
            iloc = self._fresh_iloc(prefix)
            for src in sources:
                self.graph.add_edge(src, iloc)
            explicit = {iloc}
        else:
            explicit = set(sources)
        for dst in dests:
            for src in explicit:
                if src != dst:
                    self.graph.add_edge(src, dst)
                else:
                    self.graph.add_edge(src, dst)  # genuine cycle
            for pc in self.pc_stack:
                if pc != dst:
                    self.graph.add_edge(pc, dst)
            self.graph.add_edge(self.pc_node(), dst)

    @staticmethod
    def _common_prefix(sources: set[FlowNode], dests: set[FlowNode]) -> FlowNode:
        firsts = {s[0] for s in sources}
        if len(firsts) == 1:
            root = next(iter(firsts))
            if all(len(s) > 1 for s in sources) and all(
                d[0] == root for d in dests
            ):
                return (root,)
        return ()

    # -- statements ---------------------------------------------------------------

    def visit_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self.visit_stmt(child)
        elif isinstance(stmt, ast.VarDecl):
            self._declare_var(stmt)
            if stmt.init is not None:
                sources = self.collect(stmt.init)
                self._flow_into(sources, {(stmt.name,)})
        elif isinstance(stmt, ast.Assign):
            self._visit_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._with_condition(stmt.cond, [stmt.then_body, stmt.else_body])
        elif isinstance(stmt, ast.While):
            self._with_condition(stmt.cond, [stmt.body])
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.visit_stmt(stmt.init)
            bodies = [stmt.body] + ([stmt.update] if stmt.update else [])
            if stmt.cond is not None:
                self._with_condition(stmt.cond, bodies)
            else:
                for body in bodies:
                    self.visit_stmt(body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                sources = self.collect(stmt.value)
                self._flow_into(sources, {(RET_ROOT,)})
                self.graph.roots.setdefault(RET_ROOT, RootInfo("ret"))
        elif isinstance(stmt, ast.ExprStmt):
            self.collect(stmt.expr)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass

    def _declare_var(self, stmt: ast.VarDecl) -> None:
        self.graph.roots[stmt.name] = RootInfo(
            "var", self._class_of_type(stmt.decl_type)
        )
        self.graph.add_node((stmt.name,))

    def _with_condition(self, cond: ast.Expr, bodies: list) -> None:
        sources = self.collect(cond)
        pushed = False
        if sources:
            # Always materialize a branch node strictly below the
            # condition sources, the initial PC, and any enclosing branch
            # nodes: the type checker computes GLB(pc, loc(cond)) at the
            # branch, and this node guarantees that meet sits strictly
            # above every destination written in the branch.
            node = self._fresh_iloc(self._common_prefix(sources, set()))
            for src in sources:
                self.graph.add_edge(src, node)
            for outer in self.pc_stack:
                self.graph.add_edge(outer, node)
            self.graph.add_edge(self.pc_node(), node)
            self.pc_stack.append(node)
            pushed = True
        for body in bodies:
            if body is not None:
                self.visit_stmt(body)
        if pushed:
            self.pc_stack.pop()

    def _visit_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        sources = self.collect(stmt.value)
        if isinstance(target, ast.VarRef):
            dests = {(target.name,)}
            if stmt.op != "=":
                sources = sources | dests
        elif isinstance(target, ast.FieldAccess):
            base = self.collect(target.obj)
            dests = {p + (target.field_name,) for p in base}
            if stmt.op != "=":
                sources = sources | dests
        elif isinstance(target, ast.ArrayAccess):
            dests = self.collect(target.array)
            # the index value influences where in the array data lands
            sources = sources | self.collect(target.index)
            if stmt.op != "=":
                sources = sources | dests
        else:  # pragma: no cover
            return
        self._flow_into(sources, dests)

    # -- expressions -------------------------------------------------------------

    def collect(self, expr: ast.Expr) -> set[FlowNode]:
        """Sources contributing to the value of ``expr``."""
        if isinstance(
            expr,
            (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.StringLit, ast.NullLit,
             ast.New, ast.NewArray, ast.ArrayLength),
        ):
            if isinstance(expr, (ast.New, ast.NewArray)):
                for child in ast.iter_child_exprs(expr):
                    self.collect(child)
            return set()
        if isinstance(expr, ast.VarRef):
            return {self.graph.add_node((expr.name,))}
        if isinstance(expr, ast.ThisRef):
            return {self.graph.add_node((THIS_ROOT,))}
        if isinstance(expr, ast.FieldAccess):
            resolved = self.info.field_refs.get(expr.uid)
            if resolved is not None and resolved[1].is_static:
                return set()  # constants
            return {
                self.graph.add_node(p + (expr.field_name,))
                for p in self.collect(expr.obj)
            }
        if isinstance(expr, ast.ArrayAccess):
            return self.collect(expr.array) | self.collect(expr.index)
        if isinstance(expr, ast.Unary):
            return self.collect(expr.operand)
        if isinstance(expr, ast.Binary):
            return self.collect(expr.left) | self.collect(expr.right)
        if isinstance(expr, ast.Call):
            return self._collect_call(expr)
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def _collect_call(self, call: ast.Call) -> set[FlowNode]:
        target = self.info.call_targets.get(call.uid)
        if isinstance(target, BuiltinCall):
            return self._collect_builtin(call, target)
        if isinstance(target, MethodCall):
            return self._collect_user_call(call, target)
        return set()

    def _collect_builtin(self, call: ast.Call, target: BuiltinCall) -> set[FlowNode]:
        kind = target.sig.kind
        arg_sources = [self.collect(arg) for arg in call.args]
        if kind == "input":
            return set()
        if kind == "output":
            return set()
        if kind == "fill":
            self._flow_into(arg_sources[1], arg_sources[0])
            return set()
        if kind == "buffer-insert":
            receiver = self.collect(call.receiver)
            self._flow_into(arg_sources[0], receiver)
            return set()
        if kind in ("buffer-get", "buffer-size"):
            receiver = self.collect(call.receiver)
            return receiver | set().union(*arg_sources) if arg_sources else receiver
        # pure
        return set().union(*arg_sources) if arg_sources else set()

    def _collect_user_call(self, call: ast.Call, target: MethodCall) -> set[FlowNode]:
        key: MethodKey = (target.owner, target.decl.name)
        summary = self.analysis.summary_for(key)
        if key in self.analysis.trusted:
            for arg in call.args:
                self.collect(arg)
            return set()  # trusted results are treated as fresh input

        member_sources: dict[str, set[FlowNode]] = {}
        if not target.decl.is_static:
            if call.receiver is None or (
                isinstance(call.receiver, ast.VarRef)
                and call.receiver.name in self.info.classes
            ):
                member_sources[THIS_ROOT] = {(THIS_ROOT,)}
            else:
                member_sources[THIS_ROOT] = self.collect(call.receiver)
        for param, arg in zip(target.decl.params, call.args):
            member_sources[param.name] = self.collect(arg)

        ret_sources: set[FlowNode] = set()
        for src, dst in sorted(summary.flows):
            if dst == RET_ROOT:
                ret_sources |= member_sources.get(src, set())
            else:
                self._flow_into(
                    member_sources.get(src, set()),
                    member_sources.get(dst, set()),
                )
        # implicit flows: calling under a branch writes into `written`
        for member in sorted(summary.written):
            dests = member_sources.get(member, set())
            if dests:
                self._flow_into(set(), dests)

        if not ret_sources:
            return set()
        if len(ret_sources) == 1:
            return ret_sources
        iloc = self._fresh_iloc(self._common_prefix(ret_sources, set()))
        for src in ret_sources:
            self.graph.add_edge(src, iloc)
        return {iloc}
