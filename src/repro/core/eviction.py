"""The definitely-written (eviction) analysis (Section 4.2, Figs 4.4-4.5).

The flow-down rule alone lets a corrupt value sit in one location forever;
this analysis guarantees every value read inside the event loop is either

1. loop invariant (its heap path is never written in the loop),
2. overwritten earlier in the *current* iteration, or
3. overwritten in *every* iteration (so the stale value survives at most
   one iteration).

Memory locations are abstracted as **heap paths**: tuples of names rooted
at ``this`` or a method parameter (``('this', 'bin', 'dir0')``), with the
pseudo-element ``'[]'`` for array/buffer contents and ``'%x'`` heads for
the event-loop method's own local variables (which, unlike callee locals,
live across iterations).

Per-method summaries hold the paper's three sets — the read set ``R``,
the may-write set ``OW`` and the must-write set ``WT`` (plus ``WT_h``,
must-writes whose source was strictly higher, feeding the shared-location
extension of Section 4.2.2).  Methods are analyzed callees-first (the
checked scope is recursion-free) and summaries are bound into callers by
substituting argument heap paths for parameter heads (the ⊙ operator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import Check, DiagnosticSink
from repro.lang import ast
from repro.lang import types as stypes
from repro.lang.callgraph import CallGraph, MethodKey
from repro.lang.symtab import BuiltinCall, EventLoop, MethodCall, ProgramInfo

Path = tuple[str, ...]

ELEMENT = "[]"
VAR_PREFIX = "%"
NEW_PREFIX = "<new"
PRE_PREFIX = "<pre"


def covered(path: Path, writes: set[Path]) -> bool:
    """True if ``writes`` contains ``path`` or one of its prefixes
    (the paper's ``∃p' ∈ WT. Pre(p, p')``)."""
    return any(path[: len(q)] == q for q in writes)


@dataclass(frozen=True)
class MethodSummary:
    """The interprocedural effect of one method (heads: 'this', params)."""

    reads: frozenset[Path] = frozenset()
    may_writes: frozenset[Path] = frozenset()
    must_writes: frozenset[Path] = frozenset()
    must_writes_higher: frozenset[Path] = frozenset()


EMPTY_SUMMARY = MethodSummary()


@dataclass(frozen=True)
class ReadRecord:
    path: Path
    node: ast.Node
    covered_at_read: bool
    context: str


@dataclass
class LoopFacts:
    """Results of analyzing the main event loop body."""

    reads: list[ReadRecord] = field(default_factory=list)
    may_writes: set[Path] = field(default_factory=set)
    must_writes_end: set[Path] = field(default_factory=set)
    must_writes_higher_end: set[Path] = field(default_factory=set)


class _State:
    """Per-program-point dataflow state."""

    __slots__ = ("wt", "wt_h", "hp")

    def __init__(
        self,
        wt: Optional[set[Path]] = None,
        wt_h: Optional[set[Path]] = None,
        hp: Optional[dict[str, frozenset[Path]]] = None,
    ) -> None:
        self.wt: set[Path] = set() if wt is None else wt
        self.wt_h: set[Path] = set() if wt_h is None else wt_h
        self.hp: dict[str, frozenset[Path]] = {} if hp is None else hp

    def copy(self) -> "_State":
        return _State(set(self.wt), set(self.wt_h), dict(self.hp))

    def meet(self, other: "_State") -> "_State":
        """Control-flow join: must-writes intersect, alias maps union."""
        hp = dict(self.hp)
        for name, paths in other.hp.items():
            hp[name] = hp.get(name, frozenset()) | paths
        return _State(self.wt & other.wt, self.wt_h & other.wt_h, hp)


class EvictionAnalysis:
    """Runs the definitely-written analysis over the checked scope."""

    def __init__(
        self,
        info: ProgramInfo,
        call_graph: CallGraph,
        scope: set[MethodKey],
        via_shared_stmts: set[int],
        sink: DiagnosticSink,
        trusted: Optional[set[MethodKey]] = None,
    ) -> None:
        self.info = info
        self.call_graph = call_graph
        self.scope = scope
        self.via_shared_stmts = via_shared_stmts
        self.sink = sink
        self.trusted = trusted or set()
        self.summaries: dict[MethodKey, MethodSummary] = {}
        self.loop_facts: Optional[LoopFacts] = None

    def run(self) -> Optional[LoopFacts]:
        loop = self.info.event_loop
        if loop is None:
            return None
        for key in self.call_graph.topological_order(self.scope):
            if key in self.trusted:
                self.summaries[key] = EMPTY_SUMMARY
                continue
            cls = self.info.classes.get(key[0])
            method = cls.method_named(key[1]) if cls else None
            if method is None:
                self.summaries[key] = EMPTY_SUMMARY
                continue
            analyzer = _MethodAnalyzer(self, key[0], method, loop)
            self.summaries[key] = analyzer.summarize()
            if analyzer.loop_facts is not None:
                self.loop_facts = analyzer.loop_facts
        if self.loop_facts is not None:
            self._check_loop(self.loop_facts)
        return self.loop_facts

    def summary_for(self, key: MethodKey) -> MethodSummary:
        return self.summaries.get(key, EMPTY_SUMMARY)

    def _check_loop(self, facts: LoopFacts) -> None:
        reported: set[Path] = set()
        for record in facts.reads:
            path = record.path
            if path[0].startswith(NEW_PREFIX):
                continue  # freshly allocated this iteration
            if not covered(path, facts.may_writes):
                continue  # (1) loop invariant
            if record.covered_at_read:
                continue  # (2) overwritten before the read, this iteration
            if covered(path, facts.must_writes_end):
                continue  # (3) overwritten in every iteration
            if path in reported:
                continue
            reported.add(path)
            self.sink.report(
                Check.EVICTION,
                f"memory location {_format_path(path)} may hold a stale value "
                "across event-loop iterations: it is written somewhere in the "
                "loop but is neither overwritten before this read nor "
                "overwritten on every iteration",
                node=record.node,
                context=record.context,
            )


def _format_path(path: Path) -> str:
    pretty = [p[1:] if p.startswith(VAR_PREFIX) else p for p in path]
    return ".".join(pretty).replace(".[]", "[]")


class _MethodAnalyzer:
    """Abstract interpretation of one method body."""

    def __init__(
        self,
        parent: EvictionAnalysis,
        class_name: str,
        method: ast.MethodDecl,
        loop: EventLoop,
    ) -> None:
        self.parent = parent
        self.info = parent.info
        self.class_name = class_name
        self.method = method
        self.loop = loop
        self.context = f"{class_name}.{method.name}"
        self.is_loop_method = (
            class_name == loop.class_name and method.name == loop.method.name
        )
        self.loop_facts: Optional[LoopFacts] = None

        self.reads: set[Path] = set()
        self.may_writes: set[Path] = set()
        self.exit_states: list[_State] = []

        #: active when analyzing the event-loop body
        self._loop_mode = False
        self._recording = True
        self._loop_local_vars: set[str] = set()

    def _fresh_head(self, node: ast.Node) -> str:
        """Root name for an allocation: in-loop allocations are always
        fresh this iteration (reads never stale); pre-loop allocations in
        the event-loop method persist across iterations and are tracked."""
        if self._loop_mode:
            return f"{NEW_PREFIX}{node.uid}>"
        return f"{PRE_PREFIX}{node.uid}>"

    # -- entry ---------------------------------------------------------------

    def summarize(self) -> MethodSummary:
        state = _State()
        for param in self.method.params:
            if self._is_tracked_type(param.decl_type):
                state.hp[param.name] = frozenset({(param.name,)})
        final = self.analyze_stmt(self.method.body, state)
        for exit_state in self.exit_states:
            final = final.meet(exit_state)
        return MethodSummary(
            reads=frozenset(self._summary_paths(self.reads)),
            may_writes=frozenset(self._summary_paths(self.may_writes)),
            must_writes=frozenset(self._summary_paths(final.wt)),
            must_writes_higher=frozenset(self._summary_paths(final.wt_h)),
        )

    @staticmethod
    def _summary_paths(paths: set[Path]) -> set[Path]:
        """Drop local-variable and fresh-allocation paths: they die with
        the method activation (Section 4.2.1)."""
        return {
            p
            for p in paths
            if not p[0].startswith((VAR_PREFIX, NEW_PREFIX, PRE_PREFIX))
        }

    @staticmethod
    def _is_tracked_type(node: ast.TypeNode) -> bool:
        """Types whose values name heap storage: objects, arrays, buffers."""
        return isinstance(node, (ast.ClassType, ast.ArrayType))

    def _expr_is_tracked_ref(self, expr: ast.Expr) -> bool:
        stype = self.info.expr_types.get(expr.uid)
        return isinstance(
            stype, (stypes.ClassT, stypes.ArrayT, stypes.BuiltinClassT)
        )

    # -- recording -----------------------------------------------------------

    def _record_read(self, path: Path, node: ast.Node, state: _State) -> None:
        if path[0].startswith(NEW_PREFIX):
            return  # allocated in the current loop iteration: always fresh
        is_covered = covered(path, state.wt)
        if not is_covered:
            self.reads.add(path)
        if self._loop_mode and self._recording and self.loop_facts is not None:
            if path[0].startswith(VAR_PREFIX):
                name = path[0][len(VAR_PREFIX):]
                if name in self._loop_local_vars:
                    return  # declared inside the loop body: fresh each iteration
            self.loop_facts.reads.append(
                ReadRecord(path, node, is_covered, self.context)
            )

    def _record_write(
        self,
        paths: frozenset[Path],
        node: ast.Node,
        state: _State,
        *,
        definite: bool,
    ) -> None:
        from_higher = node.uid not in self.parent.via_shared_stmts
        for path in paths:
            self.may_writes.add(path)
            if self._loop_mode and self.loop_facts is not None:
                self.loop_facts.may_writes.add(path)
        if definite and len(paths) == 1:
            path = next(iter(paths))
            state.wt.add(path)
            if from_higher:
                state.wt_h.add(path)

    # -- statements ------------------------------------------------------------

    def analyze_stmt(self, stmt: ast.Stmt, state: _State) -> _State:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                state = self.analyze_stmt(child, state)
            return state
        if isinstance(stmt, ast.VarDecl):
            return self._analyze_var_write(
                stmt.name, stmt.init, stmt, state, compound=False
            )
        if isinstance(stmt, ast.Assign):
            return self._analyze_assign(stmt, state)
        if isinstance(stmt, ast.If):
            self.eval_expr(stmt.cond, state)
            then_state = self.analyze_stmt(stmt.then_body, state.copy())
            if stmt.else_body is not None:
                else_state = self.analyze_stmt(stmt.else_body, state.copy())
            else:
                else_state = state
            return then_state.meet(else_state)
        if isinstance(stmt, ast.While):
            if (
                self.is_loop_method
                and stmt.label in ("SSJAVA", "SJAVA")
                and stmt is self.loop.loop
            ):
                return self._analyze_event_loop(stmt, state)
            return self._analyze_inner_loop(stmt, state)
        if isinstance(stmt, ast.For):
            return self._analyze_inner_loop(stmt, state)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value, state)
            self.exit_states.append(state.copy())
            return state
        if isinstance(stmt, ast.ExprStmt):
            self.eval_expr(stmt.expr, state)
            return state
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return state
        raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _analyze_var_write(
        self,
        name: str,
        value: Optional[ast.Expr],
        node: ast.Stmt,
        state: _State,
        *,
        compound: bool,
    ) -> _State:
        var_path: Path = (VAR_PREFIX + name,)
        if compound:
            self._record_read(var_path, node, state)
        value_paths: frozenset[Path] = frozenset()
        if value is not None:
            value_paths = self.eval_expr(value, state)
        is_ref = False
        if isinstance(node, ast.VarDecl):
            is_ref = self._is_tracked_type(node.decl_type)
        elif isinstance(node, ast.Assign) and isinstance(node.target, ast.VarRef):
            is_ref = self._expr_is_tracked_ref(node.target)
        if is_ref and value is not None:
            state.hp[name] = value_paths or frozenset({(self._fresh_head(node),)})
        self._record_write(frozenset({var_path}), node, state, definite=True)
        return state

    def _analyze_assign(self, stmt: ast.Assign, state: _State) -> _State:
        target = stmt.target
        compound = stmt.op != "="
        if isinstance(target, ast.VarRef):
            return self._analyze_var_write(
                target.name, stmt.value, stmt, state, compound=compound
            )
        if isinstance(target, ast.FieldAccess):
            base_paths = self.eval_expr(target.obj, state)
            write_paths = frozenset(p + (target.field_name,) for p in base_paths)
            if compound:
                for path in write_paths:
                    self._record_read(path, stmt, state)
            self.eval_expr(stmt.value, state)
            self._record_write(write_paths, stmt, state, definite=True)
            return state
        if isinstance(target, ast.ArrayAccess):
            base_paths = self.eval_expr(target.array, state)
            self.eval_expr(target.index, state)
            element_paths = frozenset(p + (ELEMENT,) for p in base_paths)
            if compound:
                for path in element_paths:
                    self._record_read(path, stmt, state)
            self.eval_expr(stmt.value, state)
            # A single-element store is never a definite overwrite of the
            # whole array; fill loops and SJ.fill are (see below).
            self._record_write(element_paths, stmt, state, definite=False)
            return state
        raise AssertionError("invalid assignment target")

    # -- loops ------------------------------------------------------------------

    def _analyze_event_loop(self, stmt: ast.While, state: _State) -> _State:
        self.loop_facts = LoopFacts()
        self._loop_local_vars = {
            node.name
            for node in ast.walk_stmts(stmt.body)
            if isinstance(node, ast.VarDecl)
        }
        # Fixed point on the alias map across iterations (reads are not
        # recorded until the final pass so records reflect stable aliases).
        self._loop_mode = True
        self._recording = False
        hp_entry = dict(state.hp)
        for _ in range(8):
            trial = _State(set(), set(), dict(hp_entry))
            out = self.analyze_stmt(stmt.body, trial)
            merged = dict(hp_entry)
            changed = False
            for name, paths in out.hp.items():
                combined = merged.get(name, frozenset()) | paths
                if combined != merged.get(name):
                    merged[name] = combined
                    changed = True
            hp_entry = merged
            if not changed:
                break
        self._recording = True
        final = self.analyze_stmt(
            stmt.body, _State(set(), set(), dict(hp_entry))
        )
        self.loop_facts.must_writes_end = set(final.wt)
        self.loop_facts.must_writes_higher_end = set(final.wt_h)
        self._loop_mode = False
        # The event loop never exits normally; following code is dead.
        return state

    def _analyze_inner_loop(self, stmt, state: _State) -> _State:
        entry = state
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                entry = self.analyze_stmt(stmt.init, entry)
            if stmt.cond is not None:
                self.eval_expr(stmt.cond, entry)
            body_state = self.analyze_stmt(stmt.body, entry.copy())
            if stmt.update is not None:
                body_state = self.analyze_stmt(stmt.update, body_state)
            result = entry.meet(body_state)
            fill = self._detect_fill_loop(stmt, entry)
            if fill is not None:
                path, from_higher = fill
                result.wt.add(path)
                if from_higher:
                    result.wt_h.add(path)
                self.may_writes.add(path)
                if self._loop_mode and self.loop_facts is not None:
                    self.loop_facts.may_writes.add(path)
            return result
        # while
        self.eval_expr(stmt.cond, entry)
        body_state = self.analyze_stmt(stmt.body, entry.copy())
        return entry.meet(body_state)

    def _detect_fill_loop(
        self, stmt: ast.For, entry: _State
    ) -> Optional[tuple[Path, bool]]:
        """Recognize ``for (i = 0; i < a.length; i++) a[i] = v;`` as a
        definite overwrite of the entire array (the paper's simultaneous
        clearing of a shared-location array, Section 4.1.8)."""
        if stmt.cond is None or stmt.update is None or stmt.init is None:
            return None
        # induction variable from init
        if isinstance(stmt.init, ast.VarDecl):
            index_name = stmt.init.name
            start = stmt.init.init
        elif isinstance(stmt.init, ast.Assign) and isinstance(
            stmt.init.target, ast.VarRef
        ):
            index_name = stmt.init.target.name
            start = stmt.init.value
        else:
            return None
        if not (isinstance(start, ast.IntLit) and start.value == 0):
            return None
        cond = stmt.cond
        if not (
            isinstance(cond, ast.Binary)
            and cond.op == "<"
            and isinstance(cond.left, ast.VarRef)
            and cond.left.name == index_name
            and isinstance(cond.right, ast.ArrayLength)
        ):
            return None
        if not (
            isinstance(stmt.update, ast.Assign)
            and isinstance(stmt.update.target, ast.VarRef)
            and stmt.update.target.name == index_name
            and stmt.update.op == "+="
            and isinstance(stmt.update.value, ast.IntLit)
            and stmt.update.value.value == 1
        ):
            return None
        bound_paths = self.eval_expr(cond.right.array, entry.copy())
        if len(bound_paths) != 1:
            return None
        array_path = next(iter(bound_paths))

        # The body (possibly a block) must contain an unconditional
        # top-level write a[i] = ... to the same array.
        body_stmts = (
            stmt.body.stmts if isinstance(stmt.body, ast.Block) else [stmt.body]
        )
        for child in body_stmts:
            if not (
                isinstance(child, ast.Assign)
                and child.op == "="
                and isinstance(child.target, ast.ArrayAccess)
                and isinstance(child.target.index, ast.VarRef)
                and child.target.index.name == index_name
            ):
                continue
            target_paths = self.eval_expr(child.target.array, entry.copy())
            if target_paths == bound_paths:
                from_higher = child.uid not in self.parent.via_shared_stmts
                return array_path + (ELEMENT,), from_higher
        return None

    # -- expressions ---------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr, state: _State) -> frozenset[Path]:
        """Record the reads performed by ``expr`` and return the heap
        paths the expression's value may name (empty for primitives)."""
        if isinstance(
            expr,
            (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.StringLit, ast.NullLit),
        ):
            return frozenset()
        if isinstance(expr, ast.VarRef):
            if self._expr_is_tracked_ref(expr):
                # Parameters root their own heap paths; locals resolve
                # through the alias map.
                return state.hp.get(expr.name, frozenset({(expr.name,)}))
            self._record_read((VAR_PREFIX + expr.name,), expr, state)
            return frozenset()
        if isinstance(expr, ast.ThisRef):
            return frozenset({("this",)})
        if isinstance(expr, ast.FieldAccess):
            resolved = self.info.field_refs.get(expr.uid)
            if resolved is not None and resolved[1].is_static:
                return frozenset()  # statics are constants
            base_paths = self.eval_expr(expr.obj, state)
            paths = frozenset(p + (expr.field_name,) for p in base_paths)
            for path in paths:
                self._record_read(path, expr, state)
            if self._expr_is_tracked_ref(expr):
                return paths
            return frozenset()
        if isinstance(expr, ast.ArrayAccess):
            base_paths = self.eval_expr(expr.array, state)
            self.eval_expr(expr.index, state)
            for path in base_paths:
                self._record_read(path + (ELEMENT,), expr, state)
            return frozenset()
        if isinstance(expr, ast.ArrayLength):
            self.eval_expr(expr.array, state)
            return frozenset()
        if isinstance(expr, ast.Unary):
            return self.eval_expr(expr.operand, state)
        if isinstance(expr, ast.Binary):
            self.eval_expr(expr.left, state)
            self.eval_expr(expr.right, state)
            return frozenset()
        if isinstance(expr, ast.New):
            for arg in expr.args:
                self.eval_expr(arg, state)
            return frozenset({(self._fresh_head(expr),)})
        if isinstance(expr, ast.NewArray):
            self.eval_expr(expr.size, state)
            return frozenset({(self._fresh_head(expr),)})
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def _eval_call(self, call: ast.Call, state: _State) -> frozenset[Path]:
        target = self.info.call_targets.get(call.uid)
        if isinstance(target, BuiltinCall):
            return self._eval_builtin_call(call, target, state)
        if isinstance(target, MethodCall):
            return self._eval_user_call(call, target, state)
        return frozenset()

    def _eval_builtin_call(
        self, call: ast.Call, target: BuiltinCall, state: _State
    ) -> frozenset[Path]:
        kind = target.sig.kind
        if kind == "fill":
            array_paths = self.eval_expr(call.args[0], state)
            self.eval_expr(call.args[1], state)
            element_paths = frozenset(p + (ELEMENT,) for p in array_paths)
            self._record_write(element_paths, call, state, definite=True)
            return frozenset()
        if kind == "buffer-insert":
            receiver_paths = self.eval_expr(call.receiver, state)
            self.eval_expr(call.args[0], state)
            element_paths = frozenset(p + (ELEMENT,) for p in receiver_paths)
            # insert() shifts every element down and writes the head: the
            # type system models it as moving all values one step, so one
            # insert per iteration evicts the whole buffer.
            self._record_write(element_paths, call, state, definite=True)
            return frozenset()
        if kind == "buffer-get":
            receiver_paths = self.eval_expr(call.receiver, state)
            for arg in call.args:
                self.eval_expr(arg, state)
            for path in receiver_paths:
                self._record_read(path + (ELEMENT,), call, state)
            return frozenset()
        if call.receiver is not None and not isinstance(call.receiver, ast.VarRef):
            self.eval_expr(call.receiver, state)
        for arg in call.args:
            self.eval_expr(arg, state)
        return frozenset()

    def _eval_user_call(
        self, call: ast.Call, target: MethodCall, state: _State
    ) -> frozenset[Path]:
        # Receiver paths.
        if target.decl.is_static:
            receiver_paths: frozenset[Path] = frozenset()
        elif call.receiver is None or (
            isinstance(call.receiver, ast.VarRef)
            and call.receiver.name in self.info.classes
        ):
            receiver_paths = frozenset({("this",)})
        else:
            receiver_paths = self.eval_expr(call.receiver, state)

        binding: dict[str, frozenset[Path]] = {"this": receiver_paths}
        for param, arg in zip(target.decl.params, call.args):
            binding[param.name] = self.eval_expr(arg, state)

        callees = self.info.overriding_decls(target.receiver_class, target.decl.name)
        if not callees:
            return frozenset()

        def bind(paths: frozenset[Path]) -> set[Path]:
            bound: set[Path] = set()
            for path in paths:
                for head_path in binding.get(path[0], frozenset()):
                    bound.add(head_path + path[1:])
            return bound

        # Must-writes transfer only when the parameter's binding is a
        # single caller path: an ambiguous alias set makes the write
        # indefinite (it hits one of several possible locations).
        unique_heads = {head for head, paths in binding.items() if len(paths) == 1}

        def bind_definite(paths: frozenset[Path]) -> set[Path]:
            return bind(frozenset(p for p in paths if p[0] in unique_heads))

        reads_bound: set[Path] = set()
        must: Optional[set[Path]] = None
        must_h: Optional[set[Path]] = None
        for owner, decl in callees:
            summary = self.parent.summary_for((owner, decl.name))
            reads_bound |= bind(summary.reads)
            for path in bind(summary.may_writes):
                self.may_writes.add(path)
                if self._loop_mode and self.loop_facts is not None:
                    self.loop_facts.may_writes.add(path)
            wt = bind_definite(summary.must_writes)
            wt_h = bind_definite(summary.must_writes_higher)
            must = wt if must is None else must & wt
            must_h = wt_h if must_h is None else must_h & wt_h
        for path in sorted(reads_bound):
            self._record_read(path, call, state)
        state.wt |= must or set()
        state.wt_h |= must_h or set()
        return frozenset()
