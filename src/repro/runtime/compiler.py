"""Code-generating execution backend (the code-generation half of
Section 4.4).

The paper's artifact is a compiler: crash avoidance, loop bounds and
fault injection are *generated into the code*.  This backend does the
same.  On its first call, each method body becomes Python source for
one function, which is ``compile()``-d once per program and kept on the
``ProgramInfo``; every engine on the program runs it, reading the
running engine from ``frame.engine``.

The generated code keeps the tree-walking
:class:`~repro.runtime.interpreter.Interpreter`'s semantics exactly; the
test suite runs both engines differentially.  What it relies on:

* variables live in ``frame.vars`` (bound to ``V``), so every generated
  function needs only the frame, and a resumed run can swap the frame's
  state at a loop boundary;
* every expression is evaluated into temporaries in the tree-walker's
  order, so the injection sites are numbered identically.  A site is
  an inline counter test, ``E.steps += 1`` and then ``if E.steps >=
  E.trip: t = E._site(t, node)``, and an inner loop charges each
  iteration the same way; generated code calls out only at the step
  :meth:`CompiledRunner._arm` sets, so a run pays for injection only
  where its fault lands;
* operators, ``Math.min``/``max``/``abs``, and null and bounds checks
  are inline; their error paths call helpers that log the tree-walker's
  messages;
* ``break``, ``continue`` and ``return`` are native inside one function.
  The event loop's condition and body are two functions that
  :meth:`Interpreter._event_loop` runs, and a jump out of a function
  raises the tree-walker's signal.  The front end rejects a ``break`` or
  ``continue`` outside a loop, so no jump leaves its method and native
  loops need not catch signals;
* a variable is read only after its declaration ran (the front end
  rejects a declaration as the whole body of an ``if``, ``else`` or
  loop), so ``V[name]`` reads it unchecked;
* an sjava name or literal enters the source only through ``repr()`` or
  as a bound constant, and deep expressions and statements are moved
  into functions of their own, so any program the tree-walker runs
  compiles.

Generated functions are named after their method: profiles and
tracebacks read ``sjava.Mp3Decoder.decodeGranule``.

Measured on a shared 2-vCPU Intel Xeon VM (CPython 3.11.7, medians of
7, generated code warm): a 30-iteration run of a bundled app is
6.6–14.2× faster than on the tree-walker (mp3_decoder 8.6 ms vs 123 ms;
11.7 ms when every site was a call), and generating a program's code
and running it once takes 1–6 ms.  A fabric activation, one fresh
engine running one iteration, takes 14–26 µs vs 31–117 µs.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.lang import ast
from repro.lang import types as st
from repro.lang.symtab import BuiltinCall, MethodCall, ProgramInfo
from repro.runtime.interpreter import (
    Interpreter,
    SJavaRuntimeError,
    StepBudgetExceeded,
    _BreakSignal,
    _ContinueSignal,
    _Frame,
    _ReturnSignal,
    _to_display,
)
from repro.runtime.values import ArrayVal, BufferVal, ObjectVal, default_value

Body = Callable[[_Frame], object]

#: Where generated code moves a statement into a function of its own:
#: CPython allows 100 indentation levels and 20 nested loop/try blocks.
MAX_INDENT = 24
MAX_BLOCKS = 10
#: Pure subexpressions nest at most this deep before they are stored in
#: a temporary (CPython allows 200 nested parentheses).
MAX_NESTING = 16

#: How far ahead ``trip`` lies when neither the budget nor the injector
#: sets it.  CPython compares ints below 2**30 on a fast path.
_FAR = 1 << 29


class CompiledRunner(Interpreter):
    """Drop-in replacement for :class:`Interpreter` that runs method
    bodies as the program's shared :class:`CompiledProgram`.

    Generated code meters every step inline and calls out only when
    ``steps`` reaches :attr:`trip`: :meth:`_site` at a site,
    :meth:`_charged` at a loop charge.  :meth:`_arm` keeps ``trip`` at
    the earlier of the budget's trip step (budget + 1) and the earliest
    step at which the injector's next target site can come, the site
    count being ``steps - charges``.  A run with no budget and no
    target left to its injector never calls out."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.program = CompiledProgram.of(self.info)
        #: The step at which generated code next calls out; :meth:`run`
        #: arms it, and until then the first step calls out.
        self.trip = 0

    def run(self, *args, **kwargs) -> list[object]:
        injector = self.injector
        if injector is not None:
            # Continue the injector's site count: a fabric node's
            # injector counts its sites across activations, each run
            # by a fresh engine.
            self.charges = self.steps - injector.step
        self._arm()
        try:
            return super().run(*args, **kwargs)
        finally:
            if injector is not None:
                injector.step = self.sites

    def _arm(self) -> None:
        """Set :attr:`trip`.  The injector's next target is the
        ``target - sites + 1``-th site from now: it comes at that many
        steps from now if no loop charge comes first, and later if one
        does, in which case the call-out at the trip re-arms."""
        budget = self.options.step_budget
        trip = self.steps + _FAR if budget is None else budget + 1
        injector = self.injector
        if injector is not None:
            target = injector.next_site(self.sites)
            if target is not None:
                trip = min(trip, self.charges + target + 1)
        self.trip = trip

    def _over_budget(self) -> bool:
        budget = self.options.step_budget
        return budget is not None and self.steps > budget

    def _site(self, value: object, node: ast.Node) -> object:
        """Generated code's call-out at a site at step :attr:`trip`."""
        if self._over_budget():
            # As on the tree-walker, the site that trips the budget
            # counts as no site.
            self.charges += 1
            self._exhausted()
        injector = self.injector
        if injector is not None:
            index = self.sites - 1
            if injector.next_site(index) == index:
                injector.step = index
                value = injector.site(value, node)
        self._arm()
        return value

    def _charged(self) -> None:
        """Generated code's call-out at a loop charge at step
        :attr:`trip`."""
        if self._over_budget():
            self._exhausted()
        self._arm()

    def _exhausted(self) -> None:
        raise StepBudgetExceeded(
            f"step budget of {self.options.step_budget} execution steps "
            "exhausted"
        )

    # The event loop's charge, and the tree-walker's paths this engine
    # still runs (field initializers, and an activation with too few
    # arguments), meter their steps as generated code does.

    def _inject(self, value: object, node: ast.Node) -> object:
        self.steps += 1
        if self.steps >= self.trip:
            return self._site(value, node)
        return value

    def _charge(self) -> None:
        self.steps += 1
        self.charges += 1
        if self.steps >= self.trip:
            self._charged()

    def _find_target(
        self, dispatch_class: str, static_class: str, method_name: str
    ) -> tuple[str, ast.MethodDecl]:
        key = (dispatch_class, static_class, method_name)
        targets = self.program.targets
        target = targets.get(key)
        if target is None:
            target = targets[key] = super()._find_target(*key)
        return target

    def _exec_body(self, owner: str, decl: ast.MethodDecl, frame: _Frame) -> object:
        if len(frame.vars) < len(decl.params):
            # A parameter without an argument (an entry method run with
            # too few) is the one unbound read the front end cannot rule
            # out: generated code reads variables unchecked, so the
            # tree-walker runs this activation and reports the read.
            return super()._exec_body(owner, decl, frame)
        return self.program.body(owner, decl)(frame)


class CompiledProgram:
    """One program's method bodies compiled to Python functions, shared
    by every :class:`CompiledRunner` on that program."""

    def __init__(self, info: ProgramInfo) -> None:
        # The resolution tables generation reads, not ``info`` itself:
        # ``info`` holds this object, and a back-reference would make a
        # reference cycle that only the cyclic collector frees.
        self.classes = info.classes
        self.call_targets = info.call_targets
        self.field_refs = info.field_refs
        self.expr_types = info.expr_types
        self.bodies: dict[tuple[str, str], Body] = {}
        #: The generated source of each body, by the same key.
        self.sources: dict[tuple[str, str], str] = {}
        #: ``(dispatch class, static class, method) -> (owner, decl)``.
        self.targets: dict[tuple[str, str, str], tuple[str, ast.MethodDecl]] = {}

    @classmethod
    def of(cls, info: ProgramInfo) -> "CompiledProgram":
        """The compiled program of ``info``, made on first use and kept
        on ``info``, so it is freed with it."""
        if info.compiled is None:
            info.compiled = cls(info)
        return info.compiled

    def body(self, owner: str, decl: ast.MethodDecl) -> Body:
        """The compiled body of method ``decl`` of class ``owner``,
        compiled on its first call."""
        key = (owner, decl.name)
        compiled = self.bodies.get(key)
        if compiled is None:
            compiled = self.bodies[key] = self.generate(owner, decl)
        return compiled

    def generate(self, owner: str, decl: ast.MethodDecl) -> Body:
        """Generate, compile and load the function of one method."""
        generator = _Generator(self, owner, decl)
        source = generator.module()
        self.sources[(owner, decl.name)] = source
        namespace = generator.namespace
        exec(compile(source, f"<sjava {owner}.{decl.name}>", "exec"), namespace)
        for unit in generator.units:
            function = namespace[unit.name]
            function.__code__ = function.__code__.replace(co_name=unit.label)
            function.__qualname__ = unit.label
        return namespace[generator.units[0].name]


# -- runtime helpers: the slow paths of inline checks ---------------------


def _null(engine: Interpreter, message: str, node: ast.Node, default: object):
    engine._null_error(message, node)
    return default


def _read_element(engine: Interpreter, array, index, node: ast.Node) -> object:
    if array is None:
        engine._null_error("array read on null reference", node)
        return 0
    engine._bounds_error(index, len(array.items), node)
    return array.default


def _store_element(engine: Interpreter, array, index, node: ast.Node) -> None:
    if array is None:
        engine._null_error("array store on null reference", node)
    else:
        engine._bounds_error(index, len(array.items), node)


def _buffer_get(engine: Interpreter, buffer, index, node: ast.Node) -> object:
    if buffer is None:
        engine._null_error("get on null buffer", node)
        return 0
    engine._bounds_error(index, buffer.size(), node)
    return buffer.default


def _fill(engine: Interpreter, array, value, node: ast.Node) -> None:
    if array is None:
        engine._null_error("SJ.fill on null array", node)
    else:
        array.items[:] = [value] * len(array.items)


def _null_receiver(
    engine: Interpreter, message: str, node: ast.Node, class_name: str
) -> ObjectVal:
    # Crash avoidance: the statically chosen target runs on a fresh
    # default receiver (strict mode raised in _null_error).
    engine._null_error(message, node)
    return engine.instantiate(class_name)


#: What every generated module sees besides its own constants.
_HELPERS = {
    "_null": _null,
    "_read_element": _read_element,
    "_store_element": _store_element,
    "_buffer_get": _buffer_get,
    "_fill": _fill,
    "_null_receiver": _null_receiver,
    "_to_display": _to_display,
    "_ArrayVal": ArrayVal,
    "_BufferVal": BufferVal,
    "_Break": _BreakSignal,
    "_Continue": _ContinueSignal,
    "_Return": _ReturnSignal,
    "_cos": math.cos,
    "_sin": math.sin,
}

#: The prologue a generated function binds, for the names its body uses.
_PROLOGUE = (
    ("E", "E = frame.engine"),
    ("V", "V = frame.vars"),
    ("T", "T = frame.this"),
)

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
_NUMBER = re.compile(r"\d[\w.+]*\Z")
_TEMPORARY = re.compile(r"_t\d+\Z")

#: Operators whose result is a bool whatever the operands.
_BOOLEAN_OPS = frozenset({"<", ">", "<=", ">=", "==", "!=", "&&", "||"})


class _Unit:
    """One generated function."""

    def __init__(self, name: str, label: str, kind: str) -> None:
        self.name = name
        #: The function's ``co_name``: what profiles and tracebacks show.
        self.label = label
        #: "method", "cond" or "body" of the event loop, or "part": a
        #: statement or expression moved out of a deeper function.
        self.kind = kind
        self.lines: list[str] = []
        self.indent = 1
        self.blocks = 0
        #: The native loops enclosing the code being generated, each as
        #: its update (a ``for``'s, which a ``continue`` runs first).
        self.loops: list[Optional[ast.Stmt]] = []


class _Generator:
    """Generates the Python module of one method."""

    def __init__(
        self, program: CompiledProgram, owner: str, decl: ast.MethodDecl
    ) -> None:
        self.program = program
        self.decl = decl
        self.namespace: dict = dict(_HELPERS, __name__=f"sjava.{owner}")
        self.units: list[_Unit] = []
        self.constants: dict[int, str] = {}
        self.counter = 0
        self.unit = self.new_unit(decl.name, "method")

    # -- assembly ------------------------------------------------------------

    def module(self) -> str:
        """The source of the module: the method's function first."""
        self.block(self.decl.body)
        lines: list[str] = []
        for unit in self.units:
            text = "\n".join(unit.lines)
            lines.append(f"def {unit.name}(frame):")
            lines.extend(
                f"    {line}" for name, line in _PROLOGUE
                if re.search(rf"\b{name}\b", text)
            )
            lines.extend(unit.lines or ["    pass"])
        return "\n".join(lines) + "\n"

    def new_unit(self, label: str, kind: str) -> _Unit:
        unit = _Unit(self.fresh("_f"), label, kind)
        self.units.append(unit)
        return unit

    @contextmanager
    def into(self, unit: _Unit) -> Iterator[None]:
        saved, self.unit = self.unit, unit
        try:
            yield
        finally:
            self.unit = saved

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def emit(self, line: str) -> None:
        self.unit.lines.append("    " * self.unit.indent + line)

    @contextmanager
    def nested(self, blocks: int = 0) -> Iterator[None]:
        """Emit one level deeper, inside ``blocks`` more loop or ``try``
        blocks."""
        unit = self.unit
        unit.indent += 1
        unit.blocks += blocks
        try:
            yield
        finally:
            unit.indent -= 1
            unit.blocks -= blocks

    @contextmanager
    def captured(self) -> Iterator[list[str]]:
        """Emit one level deeper into a separate list, for code whose
        header is known only afterwards."""
        unit = self.unit
        saved, unit.lines = unit.lines, []
        captured = unit.lines
        unit.indent += 1
        try:
            yield captured
        finally:
            unit.indent -= 1
            unit.lines = saved

    def suite(self, stmt: Optional[ast.Stmt], blocks: int = 0) -> None:
        with self.nested(blocks):
            mark = len(self.unit.lines)
            if stmt is not None:
                self.stmt(stmt)
            if len(self.unit.lines) == mark:
                self.emit("pass")

    # -- constants -------------------------------------------------------------

    def const(self, value: object) -> str:
        """A global of the generated module bound to ``value``."""
        name = self.constants.get(id(value))
        if name is None:
            name = self.constants[id(value)] = self.fresh("_k")
            self.namespace[name] = value
        return name

    def literal(self, value: object) -> str:
        kind = type(value)
        if value is None or kind is bool or (
            kind is int and abs(value) < 2**53
        ) or (kind is float and math.isfinite(value)) or kind is str:
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        return self.const(value)

    def temp(self, code: str) -> str:
        name = self.fresh("_t")
        self.emit(f"{name} = {code}")
        return name

    def name(self, code: str) -> str:
        """``code`` as a name or number, safe to read more than once."""
        if _IDENTIFIER.match(code):
            return code
        if _NUMBER.match(code):
            return f"({code})"
        return self.temp(code)

    def site(self, code: str, node: str) -> str:
        """An injection site for the value of ``code`` at AST node
        constant ``node``: a temporary holding the value, charged one
        step inline, which the call-out at the step ``E.trip`` may
        replace."""
        value = code if _TEMPORARY.match(code) else self.temp(code)
        self.emit("E.steps += 1")
        self.emit(f"if E.steps >= E.trip: {value} = E._site({value}, {node})")
        return value

    # -- statements ------------------------------------------------------------

    def block(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self.stmt(child)
        else:
            self.stmt(stmt)

    def stmt(self, stmt: ast.Stmt) -> None:
        unit = self.unit
        if isinstance(stmt, (ast.If, ast.While, ast.For)) and (
            unit.indent >= MAX_INDENT or unit.blocks >= MAX_BLOCKS
        ) and not (isinstance(stmt, ast.While) and stmt.label in ("SSJAVA", "SJAVA")):
            self.outline(stmt)
        elif isinstance(stmt, ast.Block):
            self.block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is None:
                value = self.literal(default_value(stmt.decl_type))
            else:
                value = self.site(self.expr(stmt.init)[0], self.const(stmt))
            self.emit(f"V[{stmt.name!r}] = {value}")
        elif isinstance(stmt, ast.Assign):
            self.assign(stmt)
        elif isinstance(stmt, ast.If):
            self.if_stmt(stmt)
        elif isinstance(stmt, ast.While):
            if stmt.label in ("SSJAVA", "SJAVA"):
                self.event_loop(stmt)
            else:
                self.loop(stmt, stmt.cond, stmt.body, None)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.stmt(stmt.init)
            self.loop(stmt, stmt.cond, stmt.body, stmt.update)
        elif isinstance(stmt, ast.Return):
            value = "None" if stmt.value is None else self.expr(stmt.value)[0]
            if unit.kind == "method":
                self.emit(f"return {value}")
            else:
                self.emit(f"raise _Return({value})")
        elif isinstance(stmt, ast.Break):
            self.emit("break" if unit.loops else "raise _Break()")
        elif isinstance(stmt, ast.Continue):
            self.continue_()
        elif isinstance(stmt, ast.ExprStmt):
            self.expr(stmt.expr, value=False)
        else:
            raise SJavaRuntimeError(
                f"unhandled statement {type(stmt).__name__}", stmt
            )

    def continue_(self) -> None:
        unit = self.unit
        if not unit.loops:
            # The event loop's body ends an iteration by returning.
            self.emit("return" if unit.kind == "body" else "raise _Continue()")
            return
        update = unit.loops[-1]
        if update is not None:
            self.stmt(update)
        self.emit("continue")

    def outline(self, stmt: ast.Stmt) -> None:
        """Move ``stmt`` into a function of its own, called here; jumps
        out of it arrive as signals."""
        part = self.new_unit(f"{self.decl.name}.part", "part")
        with self.into(part):
            self.stmt(stmt)
        if not self.unit.loops:
            self.emit(f"{part.name}(frame)")
            return
        self.emit("try:")
        with self.nested(1):
            self.emit(f"{part.name}(frame)")
        self.emit("except _Break:")
        with self.nested():
            self.emit("break")
        self.emit("except _Continue:")
        with self.nested():
            self.continue_()

    def if_stmt(self, stmt: ast.If) -> None:
        self.emit(f"if {self.expr(stmt.cond)[0]}:")
        self.suite(stmt.then_body)
        if stmt.else_body is not None:
            self.emit("else:")
            self.suite(stmt.else_body)

    def event_loop(self, stmt: ast.While) -> None:
        cond = self.new_unit(f"{self.decl.name}.cond", "cond")
        with self.into(cond):
            self.emit(f"return {self.expr(stmt.cond)[0]}")
        body = self.new_unit(f"{self.decl.name}.loop", "body")
        with self.into(body):
            self.block(stmt.body)
        self.emit(f"E._event_loop({cond.name}, {body.name}, frame)")
        # A resumed run replaces the loop frame's variables and receiver.
        self.emit("V = frame.vars")
        self.emit("T = frame.this")

    def loop(
        self,
        stmt: ast.Stmt,
        cond: Optional[ast.Expr],
        body: ast.Stmt,
        update: Optional[ast.Stmt],
    ) -> None:
        """An inner ``while`` or ``for``: charged per iteration and
        bounded by ``@MAXLOOP`` or the engine's ``inner_loop_bound``."""
        maxloop = ast.annotation_named(stmt.annotations, "MAXLOOP")
        if maxloop is not None and isinstance(maxloop.value, int):
            bound = self.literal(maxloop.value)
        else:
            bound = self.temp("E.options.inner_loop_bound")
        count = self.fresh("_c")
        self.emit(f"{count} = 0")
        prelude: list[str] = []
        test = "True"
        if cond is not None:
            with self.captured() as prelude:
                test = self.expr(cond)[0]
        self.emit("while True:" if prelude else f"while {test}:")
        unit = self.unit
        with self.nested(1):
            if prelude:
                unit.lines.extend(prelude)
                self.emit(f"if not {test}: break")
            self.emit("E.steps += 1")
            self.emit("E.charges += 1")
            self.emit("if E.steps >= E.trip: E._charged()")
            self.emit(f"if {count} >= {bound}: E._exceed_bound({self.const(stmt)}); break")
            self.emit(f"{count} += 1")
            unit.loops.append(update)
            self.block(body)
            unit.loops.pop()
            if update is not None:
                self.stmt(update)

    def assign(self, stmt: ast.Assign) -> None:
        node = self.const(stmt)
        value = self.expr(stmt.value)[0]
        target = stmt.target
        if stmt.op != "=":
            # The operand before the target's current value, as the
            # tree-walker evaluates them.
            current = self.expr(target)[0]
            numeric = self.numeric(target, stmt.value)
            value = self.arith(stmt.op[0], current, value, node, numeric)
        result = self.site(value, node)
        if isinstance(target, ast.VarRef):
            self.emit(f"V[{target.name!r}] = {result}")
            return
        resolved = self.program.field_refs.get(target.uid)
        if resolved is not None and resolved[1].is_static:
            self.emit(f"E._store_static({resolved[0]!r}, {target.field_name!r}, {result})")
            return
        where = self.const(target)
        if isinstance(target, ast.FieldAccess):
            obj = self.name(self.expr(target.obj)[0])
            self.emit(f"if {obj} is not None: {obj}.fields[{target.field_name!r}] = {result}")
            self.emit(f"else: _null(E, 'field store on null reference', {where}, None)")
        elif isinstance(target, ast.ArrayAccess):
            array = self.name(self.expr(target.array)[0])
            index = self.name(self.expr(target.index)[0])
            self.emit(
                f"if {array} is not None and 0 <= {index} < len({array}.items): "
                f"{array}.items[{index}] = {result}"
            )
            self.emit(f"else: _store_element(E, {array}, {index}, {where})")
        else:
            raise SJavaRuntimeError("invalid assignment target", stmt)

    # -- expressions -------------------------------------------------------------

    def expr(self, expr: ast.Expr, value: bool = True) -> tuple[str, int]:
        """Emit the work of ``expr`` and return code for its value, with
        the code's nesting depth.  The code has no effect and reads only
        literals, temporaries and variables (which no expression
        changes), so it may be read after later operands' work."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.StringLit)):
            return self.literal(expr.value), 0
        if isinstance(expr, ast.NullLit):
            return "None", 0
        if isinstance(expr, ast.VarRef):
            return f"V[{expr.name!r}]", 0
        if isinstance(expr, ast.ThisRef):
            return "T", 0
        unit = self.unit
        if unit.indent >= MAX_INDENT and isinstance(expr, (ast.Binary, ast.Unary)):
            part = self.new_unit(f"{self.decl.name}.part", "part")
            with self.into(part):
                self.emit(f"return {self.expr(expr)[0]}")
            return self.temp(f"{part.name}(frame)"), 0
        if isinstance(expr, ast.FieldAccess):
            return self.field_read(expr), 0
        if isinstance(expr, ast.ArrayAccess):
            array = self.name(self.expr(expr.array)[0])
            index = self.name(self.expr(expr.index)[0])
            return self.temp(
                f"{array}.items[{index}] if {array} is not None and "
                f"0 <= {index} < len({array}.items) else "
                f"_read_element(E, {array}, {index}, {self.const(expr)})"
            ), 0
        if isinstance(expr, ast.ArrayLength):
            array = self.name(self.expr(expr.array)[0])
            return self.temp(
                f"len({array}.items) if {array} is not None else "
                f"_null(E, 'length of null array', {self.const(expr)}, 0)"
            ), 0
        if isinstance(expr, ast.Unary):
            return self.unary(expr)
        if isinstance(expr, ast.Binary):
            return self.binary(expr)
        if isinstance(expr, ast.Call):
            return self.call(expr, value), 0
        if isinstance(expr, ast.New):
            if expr.class_name in ("OrderedBuffer", "OrderedIntBuffer"):
                capacity = self.expr(expr.args[0])[0]
                default = "0.0" if expr.class_name == "OrderedBuffer" else "0"
                return self.temp(f"_BufferVal(max(0, {capacity}), {default})"), 0
            return self.temp(f"E.instantiate({expr.class_name!r})"), 0
        if isinstance(expr, ast.NewArray):
            size = self.expr(expr.size)[0]
            default = self.literal(default_value(expr.element))
            return self.temp(f"_ArrayVal(max(0, {size}), {default})"), 0
        raise SJavaRuntimeError(f"unhandled expression {type(expr).__name__}", expr)

    def pure(self, code: str, depth: int) -> tuple[str, int]:
        if depth > MAX_NESTING:
            return self.temp(code), 0
        return code, depth

    def field_read(self, expr: ast.FieldAccess) -> str:
        resolved = self.program.field_refs.get(expr.uid)
        if resolved is not None and resolved[1].is_static:
            return self.temp(
                f"E._static_value({resolved[0]!r}, {expr.field_name!r})"
            )
        obj = self.name(self.expr(expr.obj)[0])
        default = self.literal(
            default_value(resolved[1].decl_type) if resolved is not None else None
        )
        return self.temp(
            f"{obj}.fields[{expr.field_name!r}] if {obj} is not None else "
            f"_null(E, 'field read on null reference', {self.const(expr)}, {default})"
        )

    def unary(self, expr: ast.Unary) -> tuple[str, int]:
        operand, depth = self.expr(expr.operand)
        if expr.op == "-":
            return self.pure(f"(-{operand})", depth + 1)
        if expr.op == "!":
            return self.pure(f"(not {operand})", depth + 1)
        if expr.op == "cast:int":
            return self.temp(f"int({operand})"), 0
        if expr.op == "cast:float":
            return self.temp(f"float({operand})"), 0
        raise SJavaRuntimeError(f"unknown unary operator {expr.op!r}", expr)

    def binary(self, expr: ast.Binary) -> tuple[str, int]:
        op = expr.op
        if op in ("&&", "||"):
            return self.logical(expr)
        left, left_depth = self.expr(expr.left)
        right, right_depth = self.expr(expr.right)
        if op in ("+", "-", "*", "/", "%"):
            node = self.const(expr)
            numeric = self.numeric(expr.left, expr.right)
            return self.site(self.arith(op, left, right, node, numeric), node), 0
        if op in ("<", ">", "<=", ">=", "==", "!="):
            # ``==`` on two references is identity, as the tree-walker's
            # ``is``: runtime objects define no equality of their own.
            return self.pure(
                f"({left} {op} {right})", max(left_depth, right_depth) + 1
            )
        raise SJavaRuntimeError(f"unknown binary operator {op!r}", expr)

    def numeric(self, left: ast.Expr, right: ast.Expr) -> bool:
        types = self.program.expr_types
        return st.is_numeric(types.get(left.uid)) and st.is_numeric(
            types.get(right.uid)
        )

    def arith(self, op: str, left: str, right: str, node: str, numeric: bool) -> str:
        """Code for the tree-walker's ``_binary_op(op, left, right)``;
        ``numeric`` when neither operand can be a string."""
        if op in "-*" or (op == "+" and numeric):
            return f"{left} {op} {right}"
        if op == "+":
            return f"E._binary_op('+', {left}, {right}, {node})"
        left, right = self.name(left), self.name(right)
        fast = f"{left} // {right}" if op == "/" else f"{left} % {right}"
        code = (
            f"{fast} if {left}.__class__ is int and {right}.__class__ is int "
            f"and {left} >= 0 and {right} > 0 else "
        )
        if op == "/":
            code += (
                f"{left} / {right} if {right} and ({left}.__class__ is float "
                f"or {right}.__class__ is float) else "
            )
        return f"({code}E._binary_op({op!r}, {left}, {right}, {node}))"

    def truth(self, expr: ast.Expr, code: str) -> str:
        """``code`` as the bool the tree-walker's ``_truthy`` makes."""
        if isinstance(expr, ast.BoolLit) or (
            isinstance(expr, ast.Binary) and expr.op in _BOOLEAN_OPS
        ) or (isinstance(expr, ast.Unary) and expr.op == "!"):
            return code
        return f"bool({code})"

    def logical(self, expr: ast.Binary) -> tuple[str, int]:
        left, left_depth = self.expr(expr.left)
        left = self.truth(expr.left, left)
        with self.captured() as prelude:
            right, right_depth = self.expr(expr.right)
            right = self.truth(expr.right, right)
        keyword = "and" if expr.op == "&&" else "or"
        if not prelude:
            return self.pure(
                f"({left} {keyword} {right})",
                max(left_depth, right_depth) + 1,
            )
        result = self.temp(left)
        self.emit(f"if {result}:" if keyword == "and" else f"if not {result}:")
        self.unit.lines.extend(prelude)
        with self.nested():
            self.emit(f"{result} = {right}")
        return result, 0

    def call(self, call: ast.Call, value: bool) -> str:
        target = self.program.call_targets.get(call.uid)
        node = self.const(call)
        if isinstance(target, MethodCall):
            return self.user_call(call, target, node, value)
        if not isinstance(target, BuiltinCall):
            raise SJavaRuntimeError(f"unresolved call {call.method!r}", call)
        namespace, name = target.namespace, target.sig.name
        if namespace == "Device":
            return self.result(f"E.device.read({name!r})", value)
        if namespace == "SJ":
            if target.sig.kind == "output":
                self.emit(f"E.sink.emit({self.expr(call.args[0])[0]})")
                return "None"
            if name == "toStr":
                return self.temp(f"_to_display({self.expr(call.args[0])[0]})")
            if name == "fill":
                array = self.expr(call.args[0])[0]
                filler = self.expr(call.args[1])[0]
                self.emit(f"_fill(E, {array}, {filler}, {node})")
                return "None"
        if namespace == "Math":
            args = [self.expr(arg)[0] for arg in call.args]
            if name == "abs" and len(args) == 1:
                return self.temp(f"abs({args[0]})")
            if name in ("min", "max") and len(args) == 2:
                return self.temp(f"{name}({args[0]}, {args[1]})")
            if name in ("cos", "sin") and len(args) == 1:
                # Python raises for an infinite or huge argument; the
                # engine's _eval_math turns that into an arithmetic error.
                arg = self.name(args[0])
                return self.temp(
                    f"_{name}({arg}) if -1e308 < {arg} < 1e308 else "
                    f"E._eval_math({name!r}, [{arg}], {node})"
                )
            return self.temp(f"E._eval_math({name!r}, [{', '.join(args)}], {node})")
        if namespace in ("OrderedBuffer", "OrderedIntBuffer"):
            # Java's order: the receiver, the arguments, then the null
            # test (JLS 15.12.4).
            buffer = self.name(self.expr(call.receiver)[0])
            args = [self.expr(arg)[0] for arg in call.args]
            if name == "insert":
                self.emit(
                    f"{buffer}.insert({args[0]}) if {buffer} is not None else "
                    f"_null(E, 'insert on null buffer', {node}, None)"
                )
                return "None"
            if name == "get":
                index = self.name(args[0])
                return self.temp(
                    f"{buffer}.items[{index}] if {buffer} is not None and "
                    f"0 <= {index} < len({buffer}.items) else "
                    f"_buffer_get(E, {buffer}, {index}, {node})"
                )
            if name == "size":
                return self.temp(
                    f"len({buffer}.items) if {buffer} is not None else "
                    f"_null(E, 'size on null buffer', {node}, 0)"
                )
        raise SJavaRuntimeError(f"unhandled builtin {namespace}.{name}", call)

    def user_call(
        self, call: ast.Call, target: MethodCall, node: str, value: bool
    ) -> str:
        if target.decl.is_static:
            receiver = "None"
        elif call.receiver is None or (
            isinstance(call.receiver, ast.VarRef)
            and call.receiver.name in self.program.classes
        ):
            receiver = "T"
        else:
            code = self.expr(call.receiver)[0]
            receiver = code if code.startswith("_t") else self.temp(code)
            message = f"call of {call.method!r} on null receiver"
            self.emit(
                f"if {receiver} is None: {receiver} = _null_receiver("
                f"E, {message!r}, {node}, {target.receiver_class!r})"
            )
        args = ", ".join(self.expr(arg)[0] for arg in call.args)
        return self.result(
            f"E.call_method({receiver}, {target.receiver_class!r}, "
            f"{target.decl.name!r}, [{args}])",
            value,
        )

    def result(self, code: str, value: bool) -> str:
        if value:
            return self.temp(code)
        self.emit(code)
        return "None"
