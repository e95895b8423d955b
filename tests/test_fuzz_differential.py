"""Differential fuzzing of the two execution backends.

Random well-formed programs must produce byte-identical outputs,
iteration marks and error logs on the tree-walking interpreter and the
code-generating runner — in strict mode, in crash-avoidance mode, and
under fault injection (site numbering must agree for injections to land
identically).  Two generators feed them: ``test_fuzz.programs`` (int
state, stores and compound assignments) and :func:`rich_programs`
below, which draws the constructs the code generator treats specially.
Injection trials on the production path, which resume from the
reference run's loop boundaries, must record exactly what the
tree-walker's full runs do.
"""

from __future__ import annotations

from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.apps import DIST_APP_NAMES
from repro.runtime import (
    ErrorInjector,
    Interpreter,
    RuntimeOptions,
    SJavaRuntimeError,
    StepBudgetExceeded,
)
from repro.runtime.campaign import trial_record
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice
from repro.runtime.stabilization import StabilizationExperiment
from tests.conftest import analyze
from tests.test_fuzz import programs

INTS = ["i0", "i1", "i2"]
FLOATS = ["g0", "g1"]
INT_FIELDS = ["n0", "n1"]
FLOAT_FIELDS = ["x0"]


@st.composite
def rich_programs(draw):
    """A random event-loop program over int, float, string and buffer
    state: ``/`` and ``%`` with zero and negative operands, ``&&`` and
    ``||`` whose right operand holds injection sites, inner loops with
    ``break``, ``continue`` and ``@MAXLOOP`` overruns, a ``return`` from
    inside a loop, ``SJ.toStr`` concatenation, ``Math`` calls, and
    buffers of which some stay null."""
    loop_vars = iter(range(100))

    def pick(options):
        return draw(st.sampled_from(options))

    def int_expr(depth: int = 0) -> str:
        kind = pick(["var", "field", "lit", "neg"] + (
            ["arith", "arith", "math", "get", "helper"] if depth < 2 else []
        ))
        if kind == "var":
            return pick(INTS + ["inv"])
        if kind == "field":
            return pick(INT_FIELDS)
        if kind == "lit":
            return str(draw(st.integers(0, 9)))
        if kind == "neg":
            return f"(-{draw(st.integers(0, 4))})"
        if kind == "arith":
            op = pick(["+", "-", "*", "/", "%", "/", "%"])
            return f"({int_expr(depth + 1)} {op} {int_expr(depth + 1)})"
        if kind == "math":
            name = pick(["abs", "min", "max", "round", "floor"])
            if name == "abs":
                return f"Math.abs({int_expr(depth + 1)})"
            if name in ("min", "max"):
                return f"Math.{name}({int_expr(depth + 1)}, {int_expr(depth + 1)})"
            return f"Math.{name}({float_expr(depth + 1)})"
        if kind == "get":
            return f"ib.get(Math.abs({int_expr(depth + 1)}) % 3)"
        return f"{pick(['firstAbove', 'countdown'])}({int_expr(depth + 1)})"

    def float_expr(depth: int = 0) -> str:
        kind = pick(["var", "field", "lit", "int"] + (
            ["arith", "arith", "math", "get"] if depth < 2 else []
        ))
        if kind == "var":
            return pick(FLOATS + ["fin"])
        if kind == "field":
            return pick(FLOAT_FIELDS)
        if kind == "lit":
            return pick(["0.0", "0.5", "2.25", "1000.0"])
        if kind == "int":
            return int_expr(depth + 1)
        if kind == "arith":
            op = pick(["+", "-", "*", "/", "%"])
            return f"({float_expr(depth + 1)} {op} {float_expr(depth + 1)})"
        if kind == "math":
            name = pick(["cos", "sin", "sqrt", "abs", "exp", "pow"])
            if name == "pow":
                return f"Math.pow({float_expr(depth + 1)}, 0.5)"
            return f"Math.{name}({float_expr(depth + 1)})"
        return f"fb.get(Math.abs({int_expr(depth + 1)}) % 2)"

    def cond(depth: int = 0) -> str:
        kind = pick(["int", "float"] + (["and", "or", "not"] if depth < 2 else []))
        if kind == "int":
            return f"{int_expr(1)} {pick(['<', '>', '==', '!=', '<=', '>='])} {int_expr(1)}"
        if kind == "float":
            return f"{float_expr(1)} {pick(['<', '>', '>='])} {float_expr(1)}"
        if kind == "not":
            return f"!({cond(depth + 1)})"
        op = "&&" if kind == "and" else "||"
        # The right operand's arithmetic holds injection sites that run
        # only when the left does not decide.
        return f"({cond(depth + 1)} {op} {int_expr()} + 1 > {int_expr(1)})"

    def statement(depth: int, loop: bool) -> str:
        kinds = ["int", "float", "field", "compound", "emit", "string",
                 "insert", "if"]
        if depth < 2:
            kinds += ["for", "while"]
        if loop:
            kinds += ["break", "continue"]
        kind = pick(kinds)
        if kind == "int":
            # ints stay small, so nothing grows without bound
            return f"{pick(INTS)} = ({int_expr()}) % 1000;"
        if kind == "float":
            return f"{pick(FLOATS)} = {float_expr()};"
        if kind == "field":
            if draw(st.booleans()):
                return f"{pick(INT_FIELDS)} = ({int_expr()}) % 1000;"
            return f"{pick(FLOAT_FIELDS)} = {float_expr()};"
        if kind == "compound":
            op = pick(["+=", "-=", "*=", "/="])
            if draw(st.booleans()):
                return f"{pick(FLOATS)} {op} {float_expr()};"
            return f"{pick(INTS)} {op} {int_expr(1)};"
        if kind == "emit":
            return f"SJ.emit({pick([int_expr, float_expr])()});"
        if kind == "string":
            return f'SJ.emit("v=" + SJ.toStr({int_expr()}) + "," + {float_expr(1)});'
        if kind == "insert":
            if draw(st.booleans()):
                return f"fb.insert({float_expr()});"
            return f"ib.insert({int_expr()});"
        if kind == "if":
            then = body(depth + 1, loop)
            other = f" else {{ {body(depth + 1, loop)} }}" if draw(st.booleans()) else ""
            return f"if ({cond()}) {{ {then} }}{other}"
        if kind == "break":
            return f"if ({cond(1)}) {{ break; }}"
        if kind == "continue":
            return f"if ({cond(1)}) {{ continue; }}"
        bound = f"@MAXLOOP({draw(st.integers(1, 4))}) " if draw(st.booleans()) else ""
        var = f"j{next(loop_vars)}"
        if kind == "for":
            return (
                f"{bound}for (int {var} = 0; {var} < {int_expr(1)}; {var}++) "
                f"{{ {body(depth + 1, True)} }}"
            )
        return (
            f"int {var} = {int_expr(1)}; "
            f"{bound}while ({var} > 0) {{ {var} = {var} - 1; {body(depth + 1, True)} }}"
        )

    def body(depth: int, loop: bool) -> str:
        count = draw(st.integers(1, 3 if depth else 6))
        return " ".join(statement(depth, loop) for _ in range(count))

    int_buffer = "new OrderedIntBuffer(3)" if draw(st.booleans()) else "null"
    float_buffer = "new OrderedBuffer(2)" if draw(st.booleans()) else "null"
    statements = body(0, False)
    return f"""
    class Rich {{
      int n0; int n1 = 3; float x0 = 0.5;
      OrderedIntBuffer ib = {int_buffer};
      OrderedBuffer fb = {float_buffer};
      void run() {{
        SSJAVA:
        while (true) {{
          int inv = Device.readSensor();
          float fin = Device.readFloat();
          int i0 = inv; int i1 = inv - 4; int i2 = 0;
          float g0 = fin; float g1 = 1.5;
          {statements}
          SJ.emit(n0 + n1);
        }}
      }}
      int firstAbove(int n) {{
        for (int q = 0; q < 6; q++) {{
          if (q == 2) {{ continue; }}
          if (q * n > 7) {{ return q; }}
        }}
        return -1;
      }}
      int countdown(int n) {{
        int k = n % 5;
        while (true) {{
          k = k - 1;
          if (k < 0) {{ return n; }}
          if (k == 1) {{ break; }}
        }}
        return k;
      }}
    }}
    """


def device():
    return IterationKeyedDevice(lambda n, i, k: (i * 13 + k) % 17, iterations=6)


def observe(backend, info, injector=None):
    engine = backend(
        info,
        device(),
        options=RuntimeOptions(ignore_errors=True),
        injector=injector,
    )
    engine.run()
    return engine.sink.values, engine.iteration_marks, engine.error_log


class TestBackendEquivalence:
    @given(programs(annotated=False))
    @settings(max_examples=80, deadline=None)
    def test_clean_outputs_identical(self, source):
        info = analyze(source)
        assert observe(Interpreter, info) == observe(CompiledRunner, info)

    @given(programs(annotated=False))
    @settings(max_examples=50, deadline=None)
    def test_injected_outputs_identical(self, source):
        info = analyze(source)
        results = []
        injectors = []
        for backend in (Interpreter, CompiledRunner):
            injector = ErrorInjector(target_step=11, seed=3, burst=2)
            injectors.append(injector)
            results.append(observe(backend, info, injector))
        assert results[0] == results[1]
        # the injectable-site numbering agrees exactly
        assert injectors[0].step == injectors[1].step
        assert injectors[0].injected_at == injectors[1].injected_at


class TestInjectedTrials:
    @given(programs(annotated=False))
    @settings(max_examples=40, deadline=None)
    def test_trial_records_identical(self, source):
        production = StabilizationExperiment(
            analyze(source), device, step_budget_factor=64
        )
        oracle = replace(production, engine=Interpreter)
        total = production.total_steps()
        for site in range(0, total, max(1, total // 4)):
            for burst in (1, 3):
                assert trial_record(
                    "fuzzed", production.trial_at(site, seed=site, burst=burst)
                ) == trial_record(
                    "fuzzed", oracle.trial_at(site, seed=site, burst=burst)
                ), (site, burst)


class TestDistributedBackendEquivalence:
    """The fabric runs each node activation on an unchanged single-node
    backend; a whole multi-node simulation must therefore be
    backend-independent down to the per-node state digests."""

    @pytest.mark.parametrize("app", DIST_APP_NAMES)
    def test_clean_fabric_digests_identical(self, app):
        from repro.dist import dist_app_experiment

        results = []
        for engine in (Interpreter, CompiledRunner):
            experiment = dist_app_experiment(app, engine=engine)
            sim = experiment.reference()
            results.append((
                sim.trajectory,
                [sim.node_digest(i) for i in range(experiment.nodes)],
            ))
        assert results[0] == results[1]

    @pytest.mark.parametrize("app", DIST_APP_NAMES)
    def test_injected_fabric_trials_identical(self, app):
        from repro.dist import dist_app_experiment
        from repro.runtime.campaign import trial_record

        records = []
        for engine in (Interpreter, CompiledRunner):
            experiment = dist_app_experiment(app, engine=engine)
            site = experiment.total_steps() // 2
            records.append(
                trial_record(app, experiment.trial_at(site, seed=2))
            )
        assert records[0] == records[1]


def rich_device():
    def generator(name, iteration, index):
        if name == "readFloat":
            return (iteration * 7 + index) % 11 - 5.5
        return (iteration * 13 + index) % 17 - 8

    return IterationKeyedDevice(generator, iterations=6)


def observe_rich(backend, info, options, injector=None):
    """Everything a run shows, the error that ended it included, as
    text: a NaN output equals itself only by ``repr``."""
    engine = backend(info, rich_device(), options=options, injector=injector)
    try:
        engine.run()
        error = None
    except (SJavaRuntimeError, StepBudgetExceeded, ArithmeticError,
            TypeError) as exc:
        error = (type(exc).__name__, str(exc))
    return repr((
        engine.sink.values, engine.iteration_marks, engine.error_log,
        engine.steps, error,
    ))


#: Crash avoidance with a small inner-loop bound, so loops overrun.
RICH_OPTIONS = RuntimeOptions(ignore_errors=True, inner_loop_bound=6)


class TestRichPrograms:
    @given(rich_programs())
    @settings(max_examples=60, deadline=None)
    def test_clean_runs_identical(self, source):
        info = analyze(source)
        for options in (RICH_OPTIONS, RuntimeOptions(inner_loop_bound=6)):
            assert observe_rich(Interpreter, info, options) == observe_rich(
                CompiledRunner, info, options
            )

    @given(rich_programs(), st.integers(0, 400), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_injected_runs_identical(self, source, target, burst):
        info = analyze(source)
        results, injectors = [], []
        for backend in (Interpreter, CompiledRunner):
            injector = ErrorInjector(target_step=target, seed=target, burst=burst)
            injectors.append(injector)
            results.append(observe_rich(backend, info, RICH_OPTIONS, injector))
        assert results[0] == results[1]
        assert injectors[0].step == injectors[1].step
        assert injectors[0].injected_at == injectors[1].injected_at


class StepKinds(Interpreter):
    """The tree-walker, noting what each step was: ``s`` a site, ``i``
    an inner loop's charge, ``e`` the event loop's."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.kinds: list[str] = []
        self.loops = 0

    def _inject(self, value, node):
        self.kinds.append("s")
        return super()._inject(value, node)

    def _charge(self) -> None:
        self.kinds.append("i" if self.loops else "e")
        super()._charge()

    def _exec_inner_loop(self, stmt, frame) -> None:
        self.loops += 1
        try:
            super()._exec_inner_loop(stmt, frame)
        finally:
            self.loops -= 1

    def _exec_for(self, stmt, frame) -> None:
        self.loops += 1
        try:
            super()._exec_for(stmt, frame)
        finally:
            self.loops -= 1


def step_kinds(info) -> str:
    """The kinds of a clean run's steps, step ``k`` at ``[k - 1]``."""
    engine = StepKinds(info, rich_device(), options=RICH_OPTIONS)
    try:
        engine.run()
    except (ArithmeticError, TypeError):
        pass
    return "".join(engine.kinds)


def observe_counted(backend, info, options, injector):
    """:func:`observe_rich`, with what the injector counted and did."""
    shown = observe_rich(backend, info, options, injector)
    if injector is None:
        return shown, None
    return shown, (
        injector.step, injector.injected_at, injector.injection_iteration
    )


def injectors(data, sites: int, first: int = 0):
    """None, or an injector targeting a site from ``first`` on."""
    if data.draw(st.booleans()):
        return lambda: None
    target = data.draw(st.integers(first, sites + 2))
    burst = data.draw(st.integers(1, 3))
    return lambda: ErrorInjector(target_step=target, seed=target, burst=burst)


class TestCallOuts:
    """Generated code counts steps inline and calls out only at the
    step ``trip``.  Draws that land the trip where the call-outs differ:
    a budget tripping at an inner loop's charge or amid straight-line
    sites, and injector targets that loop charges come before, so the
    trip is re-armed on the way."""

    def assert_agree(self, info, options, injector_factory):
        assert observe_counted(
            Interpreter, info, options, injector_factory()
        ) == observe_counted(CompiledRunner, info, options, injector_factory())

    @given(rich_programs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_budget_tripping_at_an_inner_loop_charge(self, source, data):
        info = analyze(source)
        kinds = step_kinds(info)
        trips = [k for k, kind in enumerate(kinds, 1) if kind == "i"]
        assume(trips)
        trip = data.draw(st.sampled_from(trips))
        options = replace(RICH_OPTIONS, step_budget=trip - 1)
        sites_before = kinds[:trip].count("s")
        self.assert_agree(
            info, options, injectors(data, kinds.count("s"), sites_before)
        )

    @given(rich_programs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_budget_tripping_amid_straight_line_sites(self, source, data):
        info = analyze(source)
        kinds = step_kinds(info)
        trips = [
            k for k in range(2, len(kinds)) if kinds[k - 2:k + 1] == "sss"
        ]
        assume(trips)
        trip = data.draw(st.sampled_from(trips))
        options = replace(RICH_OPTIONS, step_budget=trip - 1)
        sites_before = kinds[:trip].count("s")
        self.assert_agree(
            info, options, injectors(data, kinds.count("s"), sites_before)
        )

    @given(rich_programs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_targets_after_loop_charges(self, source, data):
        """Target ``t`` is armed at step ``t + 1``; a loop charge at or
        before that step brings the trip forward, onto a charge or an
        earlier site, which re-arms it."""
        info = analyze(source)
        kinds = step_kinds(info)
        sites = kinds.count("s")
        targets = [t for t in range(min(sites, len(kinds))) if kinds[t] != "s"]
        assume(targets)
        target = data.draw(st.sampled_from(targets))
        burst = data.draw(st.integers(1, 3))
        budget = data.draw(st.sampled_from([None, len(kinds) // 2, len(kinds)]))
        self.assert_agree(
            info, replace(RICH_OPTIONS, step_budget=budget),
            lambda: ErrorInjector(target_step=target, seed=target, burst=burst),
        )
