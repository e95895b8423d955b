"""AST interpreter for sjava programs, with crash-avoidance semantics.

Chapter 4.4 of the paper: checking self-stabilization only helps if the
program keeps running long enough to stabilize, so the SJava compiler can
generate code that logs and *ignores* uncaught errors, giving error cases
defined behavior (a null dereference yields a default value, a call on a
null receiver executes the statically chosen target, ...).  This
interpreter implements both modes:

* strict mode (``ignore_errors=False``) raises
  :class:`SJavaRuntimeError` like an uncaught Java exception would crash;
* crash-avoidance mode (``ignore_errors=True``) logs the error and
  substitutes defined behavior, and bounds possibly-runaway inner loops
  (the generated ``@MAXLOOP`` enforcement).

The interpreter also hosts the fault-injection hook used by the
Section 6.2 experiments: an injector sees every value produced by a
memory or arithmetic operation and may replace it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from repro.lang import ast
from repro.obs.events import get_event_log
from repro.obs.profile import section
from repro.lang.symtab import BuiltinCall, MethodCall, ProgramInfo
from repro.runtime.devices import DeviceBus, InputExhausted, OutputSink
from repro.runtime.values import (
    REFERENCE_TYPES,
    ArrayVal,
    BufferVal,
    ObjectVal,
    default_value,
    java_int_div,
    java_int_rem,
)


def state_digest(values: Sequence[object]) -> str:
    """Compact, stable digest of one iteration's observable state (the
    output samples it emitted) — 8 hex chars of CRC-32 over the
    canonical repr.  Two runs diverge exactly when their digests do,
    which is what the convergence telemetry compares per iteration."""
    return f"{zlib.crc32(repr(list(values)).encode('utf-8')) & 0xFFFFFFFF:08x}"


class SJavaRuntimeError(Exception):
    """An uncaught runtime error (strict mode)."""

    def __init__(self, message: str, node: Optional[ast.Node] = None) -> None:
        where = f" at {node.line}:{node.col}" if node is not None else ""
        super().__init__(message + where)


class StepBudgetExceeded(Exception):
    """The run used more execution steps than ``RuntimeOptions.step_budget``.

    This is a *harness watchdog*, not program semantics: it fires in both
    strict and crash-avoidance mode, because its job is to keep a
    corrupted run (e.g. an injected fault that rewrites a loop bound)
    from hanging the process that hosts it.  Fault-injection campaigns
    record a trial that trips it as ``timeout``.
    """


@dataclass
class RuntimeOptions:
    #: Crash-avoidance mode (Section 4.4).
    ignore_errors: bool = False
    #: Cap on main event-loop iterations (a harness bound, not semantics).
    max_iterations: int = 10_000
    #: Bound applied to inner loops: enforced silently in crash-avoidance
    #: mode (generated @MAXLOOP code), raised on in strict mode so runaway
    #: loops surface instead of hanging the host.
    inner_loop_bound: int = 1_000_000
    #: Watchdog: total executed steps (memory/arithmetic operations plus
    #: loop iterations) allowed for the whole run; ``None`` disables it.
    #: Exceeding the budget raises :class:`StepBudgetExceeded` in *every*
    #: mode — see that class for why.
    step_budget: Optional[int] = None


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: object) -> None:
        self.value = value


class Interpreter:
    #: Called at every event-loop boundary (see :meth:`_event_loop`):
    #: reference traces record through it, and resumed trials skip
    #: ahead and stop through it.  None, the default, costs one
    #: attribute read per loop and one test per iteration.
    boundary_hook: Optional[Callable] = None

    def __init__(
        self,
        info: ProgramInfo,
        device: DeviceBus,
        options: Optional[RuntimeOptions] = None,
        injector: Optional[object] = None,
    ) -> None:
        self.info = info
        self.device = device
        self.options = options or RuntimeOptions()
        self.injector = injector
        self.sink = OutputSink()
        #: One message per crash-avoidance error.
        self.error_log: list[str] = []
        self.iteration = 0
        #: Executed steps (the watchdog meter): injection sites, each
        #: charged by :meth:`_inject`, and loop charges (:meth:`_charge`).
        self.steps = 0
        #: The steps that are not sites, so ``steps - charges`` counts
        #: the sites (:attr:`sites`): loop charges, and a site that
        #: trips the budget, which no injector sees.
        self.charges = 0
        #: sink length at the end of each completed event-loop iteration
        self.iteration_marks: list[int] = []
        self._statics: dict[tuple[str, str], object] = {}
        self._statics_ready: set[str] = set()

    # -- public API ----------------------------------------------------------

    def run(
        self,
        class_name: Optional[str] = None,
        method_name: Optional[str] = None,
        args: Optional[list[object]] = None,
    ) -> list[object]:
        """Instantiate ``class_name`` and invoke ``method_name`` (defaults:
        the class/method containing the SSJAVA event loop).  Returns the
        outputs emitted through SJ.broadcast/print/emit."""
        loop = self.info.event_loop
        if class_name is None or method_name is None:
            if loop is None:
                raise SJavaRuntimeError("program has no SSJAVA event loop")
            class_name = class_name or loop.class_name
            method_name = method_name or loop.method.name
        instance = self.instantiate(class_name)
        self.call_method(instance, class_name, method_name, args or [])
        return self.sink.values

    def outputs_by_iteration(self) -> list[list[object]]:
        """Outputs grouped by the event-loop iteration that emitted them."""
        groups: list[list[object]] = []
        start = 0
        for mark in self.iteration_marks:
            groups.append(self.sink.values[start:mark])
            start = mark
        return groups

    def iteration_digests(self) -> list[str]:
        """Per-iteration :func:`state_digest` of the observable state —
        the convergence-telemetry series the stabilization experiments
        compare between a reference and a faulty run."""
        return [state_digest(group) for group in self.outputs_by_iteration()]

    def _iteration_event(self) -> None:
        """Emit a per-iteration ``runtime.iteration`` debug event.

        Called once per completed event-loop iteration by both
        execution backends.  The digest is only computed when a debug-
        level event log is installed, so the disabled path costs one
        global read and a method call.
        """
        events = get_event_log()
        if not events.enabled or not events.enabled_for("debug"):
            return
        mark = self.iteration_marks[-1]
        start = self.iteration_marks[-2] if len(self.iteration_marks) > 1 else 0
        events.emit(
            "runtime.iteration",
            level="debug",
            iteration=self.iteration - 1,
            outputs=mark - start,
            digest=state_digest(self.sink.values[start:mark]),
        )

    # -- objects ----------------------------------------------------------------

    def instantiate(self, class_name: str) -> ObjectVal:
        obj = ObjectVal(class_name)
        chain = list(self.info.ancestry(class_name))
        for owner in reversed(chain):
            for fld in self.info.classes[owner].fields:
                if fld.is_static:
                    continue
                if fld.init is not None:
                    frame = _Frame(obj, self)
                    obj.fields[fld.name] = self.eval(fld.init, frame)
                else:
                    obj.fields[fld.name] = default_value(fld.decl_type)
        return obj

    def _static_value(self, owner: str, field_name: str) -> object:
        if owner not in self._statics_ready:
            self._statics_ready.add(owner)
            for fld in self.info.classes[owner].fields:
                if not fld.is_static:
                    continue
                if fld.init is not None:
                    self._statics[(owner, fld.name)] = self.eval(
                        fld.init, _Frame(None, self)
                    )
                else:
                    self._statics[(owner, fld.name)] = default_value(fld.decl_type)
        return self._statics[(owner, field_name)]

    def _store_static(self, owner: str, field_name: str, value: object) -> None:
        """As in Java (JLS 12.4.1), a store initializes ``owner`` first,
        so its initializers never overwrite the stored value later."""
        self._static_value(owner, field_name)
        self._statics[(owner, field_name)] = value

    # -- calls -----------------------------------------------------------------

    def call_method(
        self,
        receiver: Optional[ObjectVal],
        static_class: str,
        method_name: str,
        args: list[object],
    ) -> object:
        dispatch_class = (
            receiver.class_name if isinstance(receiver, ObjectVal) else static_class
        )
        owner, decl = self._find_target(dispatch_class, static_class, method_name)
        frame = _Frame(receiver, self)
        for param, arg in zip(decl.params, args):
            frame.vars[param.name] = arg
        try:
            return self._exec_body(owner, decl, frame)
        except _ReturnSignal as signal:
            return signal.value

    def _find_target(
        self, dispatch_class: str, static_class: str, method_name: str
    ) -> tuple[str, ast.MethodDecl]:
        """The declaring class and declaration a call dispatches to."""
        found = self.info.find_method(dispatch_class, method_name)
        if found is None:
            found = self.info.find_method(static_class, method_name)
        if found is None:
            raise SJavaRuntimeError(
                f"no method {method_name!r} on class {dispatch_class!r}"
            )
        return found

    def _exec_body(self, owner: str, decl: ast.MethodDecl, frame: "_Frame") -> object:
        """Run a method body; returns its value, or raises
        :class:`_ReturnSignal` with it."""
        self.exec_stmt(decl.body, frame)
        return None

    # -- statements ----------------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt, frame: "_Frame") -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self.exec_stmt(child, frame)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                value = self._inject(self.eval(stmt.init, frame), stmt)
            else:
                value = default_value(stmt.decl_type)
            frame.vars[stmt.name] = value
        elif isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, frame)
        elif isinstance(stmt, ast.If):
            if self._truthy(self.eval(stmt.cond, frame)):
                self.exec_stmt(stmt.then_body, frame)
            elif stmt.else_body is not None:
                self.exec_stmt(stmt.else_body, frame)
        elif isinstance(stmt, ast.While):
            if stmt.label in ("SSJAVA", "SJAVA"):
                self._event_loop(
                    partial(self.eval, stmt.cond),
                    partial(self.exec_stmt, stmt.body),
                    frame,
                )
            else:
                self._exec_inner_loop(stmt, frame)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, frame)
        elif isinstance(stmt, ast.Return):
            value = None if stmt.value is None else self.eval(stmt.value, frame)
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, frame)
        else:  # pragma: no cover - defensive
            raise SJavaRuntimeError(f"unhandled statement {type(stmt).__name__}", stmt)

    def _event_loop(self, cond: Callable, body: Callable, frame: "_Frame") -> None:
        """Run the SSJAVA event loop whose condition and body evaluate as
        ``cond(frame)`` and ``body(frame)``.  Both engines run their event
        loops through this one method, inside the ``interpreter.step``
        profiler and memory anchor.

        A loop *boundary* is the top of an iteration, before its step is
        charged and its condition evaluated.  With a ``boundary_hook``
        set, the loop calls ``boundary_hook(frame)`` at every boundary;
        the hook may change the engine's state, or raise to end the
        run."""
        with section("interpreter.step"):
            begin_device_iteration = getattr(self.device, "begin_iteration", None)
            at_boundary = self.boundary_hook
            while self.iteration < self.options.max_iterations:
                if at_boundary is not None:
                    at_boundary(frame)
                self._charge()
                if not cond(frame):
                    break
                if begin_device_iteration is not None:
                    begin_device_iteration(self.iteration)
                if self.injector is not None:
                    self.injector.begin_iteration(self.iteration)
                try:
                    body(frame)
                except InputExhausted:
                    break
                except _BreakSignal:
                    self.iteration += 1
                    self.iteration_marks.append(len(self.sink.values))
                    self._iteration_event()
                    break
                except _ContinueSignal:
                    pass
                self.iteration += 1
                self.iteration_marks.append(len(self.sink.values))
                self._iteration_event()

    def _loop_bound(self, annotations: list[ast.Annotation]) -> int:
        maxloop = ast.annotation_named(annotations, "MAXLOOP")
        if maxloop is not None and isinstance(maxloop.value, int):
            return maxloop.value
        return self.options.inner_loop_bound

    def _exceed_bound(self, node: ast.Node) -> None:
        if self.options.ignore_errors:
            self.error_log.append(
                f"loop bound exceeded at {node.line}:{node.col}; bounded"
            )
        else:
            raise SJavaRuntimeError("inner loop exceeded its iteration bound", node)

    def _exec_inner_loop(self, stmt: ast.While, frame: "_Frame") -> None:
        bound = self._loop_bound(stmt.annotations)
        count = 0
        while self._truthy(self.eval(stmt.cond, frame)):
            self._charge()
            if count >= bound:
                self._exceed_bound(stmt)
                break
            count += 1
            try:
                self.exec_stmt(stmt.body, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _exec_for(self, stmt: ast.For, frame: "_Frame") -> None:
        bound = self._loop_bound(stmt.annotations)
        if stmt.init is not None:
            self.exec_stmt(stmt.init, frame)
        count = 0
        while stmt.cond is None or self._truthy(self.eval(stmt.cond, frame)):
            self._charge()
            if count >= bound:
                self._exceed_bound(stmt)
                break
            count += 1
            try:
                self.exec_stmt(stmt.body, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if stmt.update is not None:
                self.exec_stmt(stmt.update, frame)

    def _exec_assign(self, stmt: ast.Assign, frame: "_Frame") -> None:
        value = self.eval(stmt.value, frame)
        if stmt.op != "=":
            current = self.eval(stmt.target, frame)
            value = self._binary_op(stmt.op[0], current, value, stmt)
        value = self._inject(value, stmt)
        target = stmt.target
        if isinstance(target, ast.VarRef):
            frame.vars[target.name] = value
        elif isinstance(target, ast.FieldAccess):
            resolved = self.info.field_refs.get(target.uid)
            if resolved is not None and resolved[1].is_static:
                self._store_static(resolved[0], target.field_name, value)
                return
            obj = self.eval(target.obj, frame)
            if obj is None:
                self._null_error("field store on null reference", target)
                return
            obj.fields[target.field_name] = value
        elif isinstance(target, ast.ArrayAccess):
            array = self.eval(target.array, frame)
            index = self.eval(target.index, frame)
            if array is None:
                self._null_error("array store on null reference", target)
                return
            if not 0 <= index < len(array.items):
                self._bounds_error(index, len(array.items), target)
                return
            array.items[index] = value
        else:  # pragma: no cover - parser prevents
            raise SJavaRuntimeError("invalid assignment target", stmt)

    # -- expressions ------------------------------------------------------------------

    def eval(self, expr: ast.Expr, frame: "_Frame") -> object:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.NullLit):
            return None
        if isinstance(expr, ast.VarRef):
            if expr.name in frame.vars:
                return frame.vars[expr.name]
            raise SJavaRuntimeError(f"unbound variable {expr.name!r}", expr)
        if isinstance(expr, ast.ThisRef):
            return frame.this
        if isinstance(expr, ast.FieldAccess):
            return self._eval_field_access(expr, frame)
        if isinstance(expr, ast.ArrayAccess):
            array = self.eval(expr.array, frame)
            index = self.eval(expr.index, frame)
            if array is None:
                self._null_error("array read on null reference", expr)
                return 0
            if not 0 <= index < len(array.items):
                self._bounds_error(index, len(array.items), expr)
                return array.default
            return array.items[index]
        if isinstance(expr, ast.ArrayLength):
            array = self.eval(expr.array, frame)
            if array is None:
                self._null_error("length of null array", expr)
                return 0
            return len(array.items)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, frame)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, frame)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, frame)
        if isinstance(expr, ast.New):
            if expr.class_name in ("OrderedBuffer", "OrderedIntBuffer"):
                capacity = self.eval(expr.args[0], frame)
                default = 0.0 if expr.class_name == "OrderedBuffer" else 0
                return BufferVal(max(0, capacity), default)
            return self.instantiate(expr.class_name)
        if isinstance(expr, ast.NewArray):
            size = self.eval(expr.size, frame)
            default = default_value(expr.element)
            return ArrayVal(max(0, size), default)
        raise SJavaRuntimeError(f"unhandled expression {type(expr).__name__}", expr)

    def _eval_field_access(self, expr: ast.FieldAccess, frame: "_Frame") -> object:
        resolved = self.info.field_refs.get(expr.uid)
        if resolved is not None and resolved[1].is_static:
            return self._static_value(resolved[0], expr.field_name)
        obj = self.eval(expr.obj, frame)
        if obj is None:
            self._null_error("field read on null reference", expr)
            if resolved is not None:
                return default_value(resolved[1].decl_type)
            return None
        return obj.fields[expr.field_name]

    def _eval_unary(self, expr: ast.Unary, frame: "_Frame") -> object:
        value = self.eval(expr.operand, frame)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return not value
        if expr.op.startswith("cast:"):
            target = expr.op.split(":", 1)[1]
            if target == "int":
                return int(value)
            if target == "float":
                return float(value)
        raise SJavaRuntimeError(f"unknown unary operator {expr.op!r}", expr)

    def _eval_binary(self, expr: ast.Binary, frame: "_Frame") -> object:
        op = expr.op
        if op == "&&":
            return self._truthy(self.eval(expr.left, frame)) and self._truthy(
                self.eval(expr.right, frame)
            )
        if op == "||":
            return self._truthy(self.eval(expr.left, frame)) or self._truthy(
                self.eval(expr.right, frame)
            )
        left = self.eval(expr.left, frame)
        right = self.eval(expr.right, frame)
        if op in ("+", "-", "*", "/", "%"):
            result = self._binary_op(op, left, right, expr)
            return self._inject(result, expr)
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "==":
            return left is right if _both_refs(left, right) else left == right
        if op == "!=":
            return left is not right if _both_refs(left, right) else left != right
        raise SJavaRuntimeError(f"unknown binary operator {op!r}", expr)

    def _binary_op(self, op: str, left: object, right: object, node: ast.Node):
        if op == "+" and (isinstance(left, str) or isinstance(right, str)):
            return _to_display(left) + _to_display(right)
        if op == "/":
            if right == 0:
                self._arith_error("division by zero", node)
                return 0 if isinstance(left, int) and isinstance(right, int) else 0.0
            if isinstance(left, int) and isinstance(right, int):
                return java_int_div(left, right)
            return left / right
        if op == "%":
            if right == 0:
                self._arith_error("remainder by zero", node)
                return 0 if isinstance(left, int) and isinstance(right, int) else 0.0
            if isinstance(left, int) and isinstance(right, int):
                return java_int_rem(left, right)
            return math.fmod(left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        raise SJavaRuntimeError(f"unknown arithmetic operator {op!r}", node)

    # -- calls --------------------------------------------------------------------------

    def _eval_call(self, call: ast.Call, frame: "_Frame") -> object:
        target = self.info.call_targets.get(call.uid)
        if isinstance(target, BuiltinCall):
            return self._eval_builtin(call, target, frame)
        if isinstance(target, MethodCall):
            if target.decl.is_static:
                receiver: Optional[ObjectVal] = None
            elif call.receiver is None or (
                isinstance(call.receiver, ast.VarRef)
                and call.receiver.name in self.info.classes
            ):
                receiver = frame.this
            else:
                receiver = self.eval(call.receiver, frame)
                if receiver is None:
                    self._null_error(
                        f"call of {call.method!r} on null receiver", call
                    )
                    if not self.options.ignore_errors:
                        return None
                    # Crash avoidance: execute the statically chosen target
                    # with a fresh default receiver so stabilizing side
                    # effects inside the callee still run.
                    receiver = self.instantiate(target.receiver_class)
            args = [self.eval(arg, frame) for arg in call.args]
            return self.call_method(
                receiver, target.receiver_class, target.decl.name, args
            )
        raise SJavaRuntimeError(f"unresolved call {call.method!r}", call)

    def _eval_builtin(
        self, call: ast.Call, target: BuiltinCall, frame: "_Frame"
    ) -> object:
        namespace = target.namespace
        name = target.sig.name
        if namespace == "Device":
            return self.device.read(name)
        if namespace == "SJ":
            if target.sig.kind == "output":
                self.sink.emit(self.eval(call.args[0], frame))
                return None
            if name == "toStr":
                return _to_display(self.eval(call.args[0], frame))
            if name == "fill":
                array = self.eval(call.args[0], frame)
                value = self.eval(call.args[1], frame)
                if array is None:
                    self._null_error("SJ.fill on null array", call)
                    return None
                array.items[:] = [value] * len(array.items)
                return None
        if namespace == "Math":
            args = [self.eval(arg, frame) for arg in call.args]
            return self._eval_math(name, args, call)
        if namespace in ("OrderedBuffer", "OrderedIntBuffer"):
            # Java's order: the receiver, the arguments, then the null
            # test (JLS 15.12.4).
            receiver = self.eval(call.receiver, frame)
            args = [self.eval(arg, frame) for arg in call.args]
            if receiver is None:
                self._null_error(f"{name} on null buffer", call)
                return 0 if name in ("get", "size") else None
            if name == "insert":
                receiver.insert(args[0])
                return None
            if name == "get":
                index = args[0]
                if not 0 <= index < receiver.size():
                    self._bounds_error(index, receiver.size(), call)
                    return receiver.default
                return receiver.get(index)
            if name == "size":
                return receiver.size()
        raise SJavaRuntimeError(f"unhandled builtin {namespace}.{name}", call)

    def _eval_math(self, name: str, args: list, node: ast.Node) -> object:
        try:
            if name == "abs":
                return abs(args[0])
            if name == "min":
                return min(args)
            if name == "max":
                return max(args)
            if name == "sqrt":
                if args[0] < 0:
                    self._arith_error("sqrt of negative value", node)
                    return 0.0
                return math.sqrt(args[0])
            if name == "sin":
                return math.sin(args[0])
            if name == "cos":
                return math.cos(args[0])
            if name == "exp":
                return math.exp(args[0])
            if name == "pow":
                return math.pow(args[0], args[1])
            if name == "floor":
                return math.floor(args[0])
            if name == "round":
                return int(round(args[0]))
        except (OverflowError, ValueError) as exc:
            self._arith_error(str(exc), node)
            return 0.0
        raise SJavaRuntimeError(f"unknown Math function {name!r}", node)

    # -- error handling (crash avoidance) ---------------------------------------------

    def _null_error(self, message: str, node: ast.Node) -> None:
        if self.options.ignore_errors:
            self.error_log.append(
                f"{message} at {node.line}:{node.col}; ignored"
            )
        else:
            raise SJavaRuntimeError(message, node)

    def _bounds_error(self, index: int, length: int, node: ast.Node) -> None:
        if self.options.ignore_errors:
            self.error_log.append(
                f"index {index} out of bounds for length {length} "
                f"at {node.line}:{node.col}; ignored"
            )
        else:
            raise SJavaRuntimeError(
                f"index {index} out of bounds for length {length}", node
            )

    def _arith_error(self, message: str, node: ast.Node) -> None:
        if self.options.ignore_errors:
            self.error_log.append(
                f"{message} at {node.line}:{node.col}; defined result"
            )
        else:
            raise SJavaRuntimeError(message, node)

    # -- watchdog -------------------------------------------------------------------------

    @property
    def sites(self) -> int:
        """The injection sites executed so far."""
        return self.steps - self.charges

    def _charge(self) -> None:
        """Meter one loop charge, a step that is not a site, against the
        optional step budget."""
        self.steps += 1
        self.charges += 1
        budget = self.options.step_budget
        if budget is not None and self.steps > budget:
            raise StepBudgetExceeded(
                f"step budget of {budget} execution steps exhausted"
            )

    # -- injection ------------------------------------------------------------------------

    def _inject(self, value: object, node: ast.Node) -> object:
        """An injection site: meter one step against the budget, then
        let the injector see, and perhaps replace, ``value``.  This
        engine calls the injector at every site, so the injector numbers
        the sites itself."""
        self.steps += 1
        budget = self.options.step_budget
        if budget is not None and self.steps > budget:
            # The injector never sees the site that trips the budget,
            # so :attr:`sites` does not count it either.
            self.charges += 1
            raise StepBudgetExceeded(
                f"step budget of {budget} execution steps exhausted"
            )
        injector = self.injector
        if injector is None:
            return value
        return injector.site(value, node)

    @staticmethod
    def _truthy(value: object) -> bool:
        return bool(value)


def _both_refs(left: object, right: object) -> bool:
    return isinstance(left, REFERENCE_TYPES) and isinstance(
        right, REFERENCE_TYPES
    )


def _to_display(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Frame:
    """A method activation; ``engine`` is the runtime context compiled
    code reads."""

    __slots__ = ("this", "vars", "engine")

    def __init__(self, this: Optional[ObjectVal], engine: "Interpreter") -> None:
        self.this = this
        self.vars: dict[str, object] = {}
        self.engine = engine

