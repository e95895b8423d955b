"""Termination of event-loop iterations (Section 4.3).

Self-stabilization requires every iteration of the main event loop to
terminate, so corrupt values actually leave.  The analysis:

* prohibits recursive call chains in the checked scope;
* verifies each inner loop against the common terminating pattern — an
  induction variable incremented (or decremented) by a constant on every
  iteration, guarded by an inequality against a loop-invariant bound;
* accepts two escape hatches (Section 4.3.2): ``@MAXLOOP(n)`` (the
  runtime enforces the bound — see
  :class:`repro.runtime.interpreter.Interpreter`) and ``TERMINATE_*:``
  loop labels (the developer manually verified termination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.core.errors import Check, DiagnosticSink, Severity
from repro.lang import ast
from repro.lang.callgraph import CallGraph, MethodKey
from repro.lang.symtab import (
    EVENT_LOOP_LABELS,
    ProgramInfo,
    TERMINATE_LABEL_PREFIX,
)

Loop = Union[ast.While, ast.For]


@dataclass
class LoopVerdict:
    loop: Loop
    ok: bool
    how: str  # 'induction', 'maxloop', 'trusted-label', 'event-loop', 'failed'
    detail: str = ""


class TerminationAnalysis:
    def __init__(
        self,
        info: ProgramInfo,
        call_graph: CallGraph,
        scope: set[MethodKey],
        sink: DiagnosticSink,
    ) -> None:
        self.info = info
        self.call_graph = call_graph
        self.scope = scope
        self.sink = sink
        self.verdicts: list[LoopVerdict] = []

    def run(self) -> None:
        self._check_recursion()
        for key in sorted(self.scope):
            cls = self.info.classes.get(key[0])
            method = cls.method_named(key[1]) if cls else None
            if method is None:
                continue
            for stmt in ast.walk_stmts(method.body):
                if isinstance(stmt, (ast.While, ast.For)):
                    self._check_loop(stmt, context=f"{key[0]}.{key[1]}")

    def _check_recursion(self) -> None:
        cycle = self.call_graph.find_recursive_cycle(self.scope)
        if cycle is not None:
            chain = " → ".join(f"{c}.{m}" for c, m in cycle)
            self.sink.report(
                Check.TERMINATION,
                f"recursive call chain {chain}: the termination analysis "
                "prohibits recursion inside the event loop",
            )

    def _check_loop(self, loop: Loop, context: str) -> None:
        if loop.label in EVENT_LOOP_LABELS:
            self.verdicts.append(LoopVerdict(loop, True, "event-loop"))
            return
        if loop.label is not None and loop.label.startswith(TERMINATE_LABEL_PREFIX):
            self.verdicts.append(LoopVerdict(loop, True, "trusted-label"))
            self.sink.report(
                Check.TERMINATION,
                f"loop {loop.label!r} trusted to terminate (developer "
                "verified)",
                node=loop,
                context=context,
                severity=Severity.INFO,
            )
            return
        maxloop = ast.annotation_named(loop.annotations, "MAXLOOP")
        if maxloop is not None:
            if isinstance(maxloop.value, int) and maxloop.value > 0:
                self.verdicts.append(LoopVerdict(loop, True, "maxloop"))
            else:
                self.sink.report(
                    Check.TERMINATION,
                    "@MAXLOOP requires a positive integer bound",
                    node=loop,
                    context=context,
                )
            return
        verdict = self._check_induction(loop)
        self.verdicts.append(verdict)
        if not verdict.ok:
            self.sink.report(
                Check.TERMINATION,
                f"cannot prove that this loop terminates ({verdict.detail}); "
                "annotate it with @MAXLOOP(n) or a TERMINATE_ label",
                node=loop,
                context=context,
            )

    # -- induction-variable pattern ---------------------------------------

    def _check_induction(self, loop: Loop) -> LoopVerdict:
        cond = loop.cond
        if cond is None:
            return LoopVerdict(loop, False, "failed", "loop has no condition")
        body_stmts: list[ast.Stmt] = [loop.body]
        if isinstance(loop, ast.For) and loop.update is not None:
            body_stmts.append(loop.update)

        nested = list(ast.walk_stmts(*body_stmts))
        targets = [stmt.target for stmt in nested if isinstance(stmt, ast.Assign)]
        assigned = {stmt.name for stmt in nested if isinstance(stmt, ast.VarDecl)}
        assigned |= {expr.name for expr in targets if isinstance(expr, ast.VarRef)}
        assigned_fields = {
            expr.field_name for expr in targets if isinstance(expr, ast.FieldAccess)
        }
        directions = _induction_directions(body_stmts)
        if not directions:
            return LoopVerdict(
                loop, False, "failed",
                "no variable is updated by a constant step on every path",
            )

        for conjunct in _conjuncts(cond):
            check = self._conjunct_guards(
                conjunct, directions, assigned, assigned_fields
            )
            if check is not None:
                return LoopVerdict(loop, True, "induction", check)
        return LoopVerdict(
            loop, False, "failed",
            "no loop-exit inequality relates an induction variable to a "
            "loop-invariant bound",
        )

    def _conjunct_guards(
        self,
        expr: ast.Expr,
        directions: dict[str, int],
        assigned: set[str],
        assigned_fields: set[str],
    ) -> Optional[str]:
        if not isinstance(expr, ast.Binary) or expr.op not in ("<", "<=", ">", ">="):
            return None
        for var_side, bound_side, op in (
            (expr.left, expr.right, expr.op),
            (expr.right, expr.left, _flip(expr.op)),
        ):
            if not isinstance(var_side, ast.VarRef):
                continue
            direction = directions.get(var_side.name)
            if direction is None:
                continue
            if not _is_invariant(bound_side, assigned, assigned_fields):
                continue
            if direction > 0 and op in ("<", "<="):
                return f"{var_side.name} increases toward an upper bound"
            if direction < 0 and op in (">", ">="):
                return f"{var_side.name} decreases toward a lower bound"
        return None


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _conjuncts(expr: ast.Expr) -> Iterator[ast.Expr]:
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _induction_directions(stmts: list[ast.Stmt]) -> dict[str, int]:
    """Variables whose only assignments in the loop are constant steps of
    a consistent sign, and that are stepped on every iteration (i.e. not
    under a conditional)."""
    # Updates under a branch or inside a nested loop are not "every
    # iteration" of *this* loop in a usable way: only statements reached
    # through blocks alone count as unconditional.
    every_iteration = list(stmts)
    for stmt in every_iteration:
        if isinstance(stmt, ast.Block):
            every_iteration.extend(stmt.stmts)
    unconditional = {stmt.uid for stmt in every_iteration}
    steps: dict[str, list[int]] = {}
    conditional: set[str] = set()

    def step_of(stmt: ast.Assign) -> Optional[int]:
        if not isinstance(stmt.target, ast.VarRef):
            return None
        name = stmt.target.name
        if stmt.op in ("+=", "-="):
            if isinstance(stmt.value, ast.IntLit) and stmt.value.value > 0:
                return stmt.value.value if stmt.op == "+=" else -stmt.value.value
            return None
        if stmt.op == "=":
            # i = i + c / i = i - c
            value = stmt.value
            if (
                isinstance(value, ast.Binary)
                and value.op in ("+", "-")
                and isinstance(value.left, ast.VarRef)
                and value.left.name == name
                and isinstance(value.right, ast.IntLit)
                and value.right.value > 0
            ):
                return value.right.value if value.op == "+" else -value.right.value
        return None

    for stmt in ast.walk_stmts(*stmts):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.VarRef):
            step = step_of(stmt)
            name = stmt.target.name
            if step is None:
                conditional.add(name)  # irregular update disqualifies
            else:
                if stmt.uid not in unconditional:
                    conditional.add(name)
                steps.setdefault(name, []).append(step)
        elif isinstance(stmt, ast.VarDecl):
            conditional.add(stmt.name)

    directions: dict[str, int] = {}
    for name, deltas in steps.items():
        if name in conditional:
            continue
        if all(d > 0 for d in deltas):
            directions[name] = 1
        elif all(d < 0 for d in deltas):
            directions[name] = -1
    return directions


def _is_invariant(
    expr: ast.Expr, assigned: set[str], assigned_fields: set[str]
) -> bool:
    """Conservatively loop-invariant: built from literals, unassigned
    variables, lengths of arrays whose references are stable, and static
    finals."""
    if isinstance(expr, (ast.IntLit, ast.FloatLit)):
        return True
    if isinstance(expr, ast.VarRef):
        return expr.name not in assigned
    if isinstance(expr, ast.ArrayLength):
        # Array lengths are fixed at allocation; the bound can only move
        # if the array *reference* itself is replaced inside the loop, so
        # require the reference expression to be stable.
        return _ref_stable(expr.array, assigned, assigned_fields)
    if isinstance(expr, ast.FieldAccess):
        # A heap write anywhere in the loop could change a field-based
        # bound, so plain field reads are conservatively non-invariant.
        return False
    if isinstance(expr, ast.Binary):
        return _is_invariant(expr.left, assigned, assigned_fields) and _is_invariant(
            expr.right, assigned, assigned_fields
        )
    if isinstance(expr, ast.Unary):
        return _is_invariant(expr.operand, assigned, assigned_fields)
    return False


def _ref_stable(
    expr: ast.Expr, assigned: set[str], assigned_fields: set[str]
) -> bool:
    """The reference produced by ``expr`` cannot change across the loop's
    iterations (no assignment to the variable or any field on the path
    inside this loop body; reassignments through callees are out of scope
    for the simple analysis — the paper's escape hatches cover them)."""
    if isinstance(expr, ast.VarRef):
        return expr.name not in assigned
    if isinstance(expr, ast.ThisRef):
        return True
    if isinstance(expr, ast.FieldAccess):
        return expr.field_name not in assigned_fields and _ref_stable(
            expr.obj, assigned, assigned_fields
        )
    return False
