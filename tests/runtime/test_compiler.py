"""Differential tests: the code-generating backend must be
observationally identical to the tree-walking interpreter."""

import sys
import threading
from collections import Counter

import pytest

from repro.apps import (
    APP_NAMES,
    DIST_APP_NAMES,
    app_device_factory,
    load_app,
    resolve_experiment,
)
from repro.lang.typecheck import JavaTypeError
from repro.obs.profile import SamplingProfiler, installed_profiler, section_counts
from repro.runtime import (
    ErrorInjector,
    Interpreter,
    RuntimeOptions,
    SJavaRuntimeError,
    StepBudgetExceeded,
)
from repro.runtime.compiler import CompiledProgram, CompiledRunner
from repro.runtime.devices import IterationKeyedDevice, ScriptedDevice
from repro.runtime.injection import StepCounter
from tests.conftest import analyze


def run_both(info, device_factory, options=None, injector_factory=None):
    results = []
    for backend in (Interpreter, CompiledRunner):
        injector = injector_factory() if injector_factory else None
        engine = backend(
            info, device_factory(), options=options, injector=injector
        )
        engine.run()
        results.append(
            (engine.sink.values, engine.iteration_marks, engine.error_log)
        )
    return results


class TestDifferentialApps:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_clean_runs_identical(self, name, apps):
        interp, compiled = run_both(
            apps[name].info, app_device_factory(name, 10)
        )
        assert compiled == interp

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_injected_runs_identical(self, name, apps):
        # injection counts value-producing sites: identical site numbering
        # means identical corruption, so outputs must match exactly
        interp, compiled = run_both(
            apps[name].info,
            app_device_factory(name, 10),
            options=RuntimeOptions(ignore_errors=True),
            injector_factory=lambda: ErrorInjector(target_step=37, seed=5),
        )
        assert compiled == interp


class TestDifferentialFeatures:
    def test_crash_avoidance_identical(self):
        source = '''
        class Box { int val; }
        class Main {
          Box box;
          int[] data = new int[2];
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              SJ.broadcast(box.val);
              SJ.broadcast(data[v]);
              SJ.broadcast(10 / v);
              if (v > 0) { box = new Box(); box.val = v; }
            }
          }
        }
        '''
        info = analyze(source)
        interp, compiled = run_both(
            info,
            lambda: ScriptedDevice({"readSensor": [0, 3, 1]}),
            options=RuntimeOptions(ignore_errors=True),
        )
        assert compiled == interp

    def test_loop_bounds_identical(self):
        source = '''
        class Main {
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              int i = 0;
              @MAXLOOP(4) while (i < 100) { SJ.broadcast(i); i++; }
            }
          }
        }
        '''
        info = analyze(source)
        interp, compiled = run_both(
            info,
            lambda: ScriptedDevice({"readSensor": [0]}),
            options=RuntimeOptions(ignore_errors=True),
        )
        assert compiled == interp

    def test_dispatch_strings_buffers_identical(self):
        source = '''
        class A { int tag() { return 1; } }
        class B extends A { int tag() { return 2; } }
        class Main {
          A obj = new B();
          OrderedBuffer h = new OrderedBuffer(2);
          void run() {
            SSJAVA:
            while (true) {
              float v = Device.readTemp();
              h.insert(v);
              SJ.broadcast("tag=" + obj.tag());
              SJ.broadcast(h.get(0) + h.get(1));
            }
          }
        }
        '''
        info = analyze(source)
        interp, compiled = run_both(
            info, lambda: ScriptedDevice({"readTemp": [1.0, 2.0]})
        )
        assert compiled == interp

    def test_strict_mode_errors_identical(self):
        source = '''
        class Main {
          int[] data = new int[1];
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              SJ.broadcast(data[5]);
            }
          }
        }
        '''
        info = analyze(source)
        for backend in (Interpreter, CompiledRunner):
            engine = backend(info, ScriptedDevice({"readSensor": [1]}))
            with pytest.raises(SJavaRuntimeError):
                engine.run()

    def test_compiled_bodies_are_cached(self, monkeypatch):
        """Two runners on one ProgramInfo share its compiled program:
        each method body is compiled once, by whichever runs it first."""
        compiles = Counter()
        generate = CompiledProgram.generate

        def counting(program, owner, decl):
            compiles[(owner, decl.name)] += 1
            return generate(program, owner, decl)

        monkeypatch.setattr(CompiledProgram, "generate", counting)
        app = load_app("mp3_decoder")
        runners = [
            CompiledRunner(app.info, app_device_factory("mp3_decoder", 4)())
            for _ in range(2)
        ]
        for runner in runners:
            runner.run()
        assert runners[0].program is runners[1].program
        assert runners[0].program is app.info.compiled
        assert ("Mp3Decoder", "decodeGranule") in compiles
        assert len(compiles) >= 3
        assert set(compiles.values()) == {1}
        assert set(compiles) == set(app.info.compiled.bodies)


#: Exercises every engine-dependent value the compiled code reads: the
#: device, the sink, injection sites, the step meter, crash avoidance
#: (a null field read), and an inner loop with no ``@MAXLOOP``, so
#: ``inner_loop_bound`` applies.  Its array stores have injection sites
#: in both the index and the value.
SHARED_PROGRAM = '''
class Box { int val; }
class Main {
  Box box;
  int[] data = new int[3];
  void run() {
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      int i = 0;
      while (i < v) {
        data[i % 3] = data[i % 3] + i;
        data[(i + 1) % 3] += i * 2;
        i++;
      }
      SJ.broadcast(data[0] + data[1] + data[2]);
      SJ.broadcast(box.val);
    }
  }
}
'''

#: (device inputs, options, injector factory) per run.
SHARED_RUNS = [
    ([3, 5, 2, 7], RuntimeOptions(ignore_errors=True), StepCounter),
    ([1, 2], RuntimeOptions(), StepCounter),
    ([4, 6], RuntimeOptions(ignore_errors=True, inner_loop_bound=2),
     StepCounter),
    ([3, 5, 2], RuntimeOptions(ignore_errors=True),
     lambda: ErrorInjector(target_step=9, seed=4)),
    ([6, 6, 6, 6], RuntimeOptions(ignore_errors=True, step_budget=40),
     StepCounter),
    ([4, 6], RuntimeOptions(inner_loop_bound=2), StepCounter),
]


def observe_run(backend, info, inputs, options, injector_factory):
    """Everything a run can show, including the error that ended it."""
    injector = injector_factory()
    engine = backend(
        info, ScriptedDevice({"readSensor": list(inputs)}),
        options=options, injector=injector,
    )
    try:
        engine.run()
        error = None
    except (SJavaRuntimeError, StepBudgetExceeded) as exc:
        error = (type(exc).__name__, str(exc))
    return (
        engine.sink.values, engine.iteration_marks, engine.error_log,
        engine.steps, injector.step, error,
    )


class TestSharedCompiledProgram:
    def test_interleaved_runs_match_fresh_interpreter_runs(self):
        """Runs on engines that differ in device, injector and options
        share one compiled program; each must still match the
        tree-walker, so no run sees another engine's state."""
        info = analyze(SHARED_PROGRAM)
        errors = set()
        for run in SHARED_RUNS + SHARED_RUNS[::-1]:
            compiled = observe_run(CompiledRunner, info, *run)
            assert compiled == observe_run(Interpreter, info, *run)
            errors.add(compiled[-1] and compiled[-1][0])
        assert errors == {None, "SJavaRuntimeError", "StepBudgetExceeded"}
        assert len(info.compiled.bodies) == 1

    def test_every_injection_site_matches(self):
        """Both engines number injection sites in one order, so each
        site corrupts the same operation: stores evaluate their value
        before their target, and compound assignments their operand
        before the target's current value."""
        info = analyze(SHARED_PROGRAM)
        inputs, options = [3, 5, 2], RuntimeOptions(ignore_errors=True)
        sites = observe_run(Interpreter, info, inputs, options, StepCounter)[4]
        assert sites > 40
        for target in range(sites):
            run = (inputs, options, lambda: ErrorInjector(target, seed=4))
            assert observe_run(CompiledRunner, info, *run) == observe_run(
                Interpreter, info, *run
            ), f"site {target}"

    @pytest.mark.parametrize("backend", [Interpreter, CompiledRunner])
    def test_step_samples_land_under_the_step_anchor(self, backend):
        """A stack sample taken inside the event loop is attributed to
        ``interpreter.step`` on both engines."""
        tid = threading.get_ident()
        profiler = SamplingProfiler(
            interval_seconds=0.005, frames=lambda: {tid: sys._getframe()}
        )
        with profiler.section("setup"):
            pass  # registers this thread, then leaves the section

        class SamplingDevice(ScriptedDevice):
            def read(self, name):
                value = super().read(name)
                profiler.sample_now()
                return value

        info = analyze(SHARED_PROGRAM)
        with installed_profiler(profiler):
            backend(
                info, SamplingDevice({"readSensor": [1, 2]}),
                options=RuntimeOptions(ignore_errors=True),
            ).run()
        assert section_counts(profiler.payload()) == {"interpreter.step": 2}


#: ``buf`` is never assigned, so every ``insert`` and ``get`` is on
#: null; both engines evaluate the arguments first, as Java does.
NULL_BUFFER = '''
class Main {
  OrderedBuffer buf;
  void run() {
    SSJAVA:
    while (true) {
      buf.insert(Device.readFloat());
      float x = Device.readFloat();
      SJ.emit(x);
      SJ.emit(buf.get(Device.readInt() + 1));
    }
  }
}
'''


def loop_program(body: str) -> str:
    """An event loop that reads ``v`` and emits ``acc`` after ``body``."""
    return (
        "class Main { void run() { SSJAVA: while (true) { "
        "int v = Device.readSensor(); int acc = 0; "
        f"{body} SJ.emit(acc); }} }} }}"
    )


def nested_sum(depth: int) -> str:
    expr = "v"
    for _ in range(depth):
        expr = f"(v + {expr})"
    return f"acc = {expr};"


def nested_conjunction(depth: int) -> str:
    cond = "v > 2"
    for i in range(depth):
        cond = f"(v * {i % 5} < 30 && {cond})" if i % 2 else f"(v - {i} < 9 || {cond})"
    return f"if ({cond}) {{ acc = 1; }}"


def nested_negation(depth: int) -> str:
    return f"if ({'!(' * depth}v > 3{')' * depth}) {{ acc = 1; }}"


def nested_ifs(depth: int, inner: str = "acc = acc + 1;") -> str:
    body = inner
    for i in range(depth):
        body = f"if (v > {i % 7}) {{ {body} }} else {{ acc = acc - 1; }}"
    return body


def nested_fors(depth: int) -> str:
    body = "acc = acc + 1; if (v > 5) { break; } if (v > 3) { continue; } acc = acc * 2;"
    for i in range(depth):
        body = f"for (int i{i} = 0; i{i} < 1; i{i}++) {{ {body} }}"
    return body


#: Programs nested past what one Python function may hold: the code
#: generator moves deep parts into functions of their own, and jumps
#: out of those parts must land where the tree-walker's do.
DEEP_PROGRAMS = {
    "sum-150": loop_program(nested_sum(150)),
    "conjunction-150": loop_program(nested_conjunction(150)),
    "negation-150": loop_program(nested_negation(150)),
    "ifs-120": loop_program(nested_ifs(120)),
    "fors-25": loop_program(nested_fors(25)),
    "break-under-40-ifs": loop_program(
        "for (int i = 0; i < 4; i++) { acc = acc + i; "
        + nested_ifs(40, "if (i == v) { break; } if (i > 1) { continue; } acc = acc * 3;")
        + " }"
    ),
    "event-loop-break-under-40-ifs": loop_program(
        nested_ifs(40, "if (v == 7) { break; } if (v == 4) { continue; }")
        + " acc = acc + 100;"
    ),
}


def keyed_device():
    return IterationKeyedDevice(lambda name, i, k: (i * 5 + k) % 9, iterations=9)


class TestSemanticsCorners:
    def test_null_buffer_arguments_evaluated_before_the_null_test(self):
        info = analyze(NULL_BUFFER)
        options = RuntimeOptions(ignore_errors=True, max_iterations=4)
        interp, compiled = run_both(
            info,
            lambda: ScriptedDevice({
                "readFloat": [float(i) for i in range(8)],
                "readInt": [0, 1, 2, 3],
            }),
            options=options,
        )
        assert compiled == interp
        values, _, errors = interp
        assert values == [1.0, 0.0, 3.0, 0.0, 5.0, 0.0, 7.0, 0.0]
        assert len(errors) == 8

    @pytest.mark.parametrize("helper, body, message", [
        ("", "if (v > 3) int x = v; SJ.emit(x);",
         "variable declaration not allowed here"),
        ("int stop(int i) { if (i > 1) { break; } return i; }",
         "for (int i = 0; i < 3; i++) { SJ.emit(stop(i)); }",
         "'break' outside a loop"),
    ])
    def test_reads_and_jumps_the_generated_code_cannot_meet(
        self, helper, body, message
    ):
        """Generated code reads ``V[name]`` unchecked and runs its loops
        without catching signals; the front end rejects the programs
        where the tree-walker would report an unbound variable or end a
        loop from a helper."""
        source = (
            f"class Main {{ {helper} void run() {{ SSJAVA: while (true) {{"
            f" int v = Device.readSensor(); {body} }} }} }}"
        )
        with pytest.raises(JavaTypeError, match=message):
            analyze(source)

    @pytest.mark.parametrize("name", sorted(DEEP_PROGRAMS))
    def test_deep_programs_identical(self, name):
        info = analyze(DEEP_PROGRAMS[name])
        options = RuntimeOptions(ignore_errors=True)
        interp, compiled = run_both(info, keyed_device, options=options)
        assert compiled == interp
        sites = observe_run(Interpreter, info, [], options, StepCounter)[4]
        for target in range(0, sites, max(1, sites // 7)):
            interp, compiled = run_both(
                info, keyed_device, options=options,
                injector_factory=lambda: ErrorInjector(target, seed=target),
            )
            assert compiled == interp, target

    def test_names_and_literals_cannot_escape_into_the_source(self):
        """sjava names that are also names in the generated code, and
        string literals that look like Python, stay data."""
        source = r'''
        class E {
          int V;
          int frame(int I) { return I + V; }
        }
        class Main {
          E T = new E();
          void run() {
            SSJAVA:
            while (true) {
              int C = Device.readSensor();
              int _t1 = T.frame(C);
              String s = "'); E.sink.emit(666) #\" \\ \n";
              SJ.emit(s + _t1);
              T.V = _t1 % 7;
            }
          }
        }
        '''
        info = analyze(source)
        interp, compiled = run_both(info, keyed_device)
        assert compiled == interp
        literal = "'); E.sink.emit(666) #\" \\ \n"
        assert interp[0][0] == literal + "0"
        assert 666 not in compiled[0]
        assert repr(literal) in info.compiled.sources[("Main", "run")]

    def test_entry_method_without_its_argument(self):
        """A parameter with no argument reads as unbound on both
        engines."""
        info = analyze("class Main { int twice(int n) { return n * 2; } }")
        errors = []
        for backend in (Interpreter, CompiledRunner):
            with pytest.raises(SJavaRuntimeError) as caught:
                backend(info, keyed_device()).run("Main", "twice")
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert "unbound variable 'n'" in errors[0]


class TestProfileNames:
    def test_samples_name_generated_functions_after_their_method(self):
        """Profile rows read ``module.co_name``: generated functions
        show as ``sjava.<Class>.<method>``."""
        tid = threading.get_ident()
        profiler = SamplingProfiler(
            interval_seconds=0.005, frames=lambda: {tid: sys._getframe()}
        )

        class SamplingDevice(IterationKeyedDevice):
            def read(self, name):
                profiler.sample_now()
                return super().read(name)

        app = load_app("mp3_decoder")
        device = SamplingDevice(app_device_factory("mp3_decoder", 1)().generator, 1)
        with installed_profiler(profiler):
            CompiledRunner(app.info, device).run()
        stacks = {tuple(row["stack"]) for row in profiler.samples()}
        frames = {frame for stack in stacks for frame in stack}
        assert {
            "sjava.Mp3Decoder.decode", "sjava.Mp3Decoder.decode.loop",
            "sjava.Mp3Decoder.decodeGranule", "sjava.BitStream.readSample",
        } <= frames


@pytest.fixture
def callouts(monkeypatch):
    """Counts generated code's call-outs, by kind."""
    counts = Counter()
    site, charged = CompiledRunner._site, CompiledRunner._charged

    def counting_site(engine, value, node):
        counts["site"] += 1
        return site(engine, value, node)

    def counting_charged(engine):
        counts["charged"] += 1
        charged(engine)

    monkeypatch.setattr(CompiledRunner, "_site", counting_site)
    monkeypatch.setattr(CompiledRunner, "_charged", counting_charged)
    return counts


class TestInlineCounter:
    """Generated code charges each step inline and calls out only at
    the step ``trip``: the budget's trip step, or the earliest step at
    which the injector's next target site can come."""

    def test_sites_and_charges_are_tested_inline(self, apps):
        CompiledRunner(
            apps["mp3_decoder"].info, app_device_factory("mp3_decoder", 1)()
        ).run()
        for source in apps["mp3_decoder"].info.compiled.sources.values():
            lines = [line.strip() for line in source.splitlines()]
            assert not any(line.startswith(("I =", "C =")) for line in lines)
            for i, line in enumerate(lines):
                if line == "E.steps += 1":
                    after = lines[i + 1]
                    if after == "E.charges += 1":
                        after = lines[i + 2]
                        assert after == "if E.steps >= E.trip: E._charged()"
                    else:
                        assert after.startswith("if E.steps >= E.trip: _t")

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_a_run_without_injector_or_budget_never_calls_out(
        self, name, apps, callouts
    ):
        info = apps[name].info
        engine = CompiledRunner(info, app_device_factory(name, 10)())
        engine.run()
        assert not callouts
        counter = StepCounter()
        Interpreter(
            info, app_device_factory(name, 10)(), injector=counter
        ).run()
        assert engine.sites == counter.step > 0

    @pytest.mark.parametrize("name", APP_NAMES + DIST_APP_NAMES)
    def test_clean_runs_of_experiments_never_call_out(self, name, callouts):
        """References, site totals and fabric references (whose node
        counters the engine never calls) are clean runs."""
        experiment = resolve_experiment(name)
        experiment.reference_groups()
        assert experiment.total_steps() > 0
        assert not callouts

    def test_an_injected_trial_calls_out_a_bounded_number_of_times(
        self, callouts
    ):
        """However many sites a trial runs: ~3 of the bursts' targets,
        plus a few where loop charges bring the trip step forward."""
        per_trial = []
        for app in ("wind_sensor", "mp3_decoder", "herman_bit"):
            experiment = resolve_experiment(app, step_budget_factor=64)
            total = experiment.total_steps()
            for site in range(0, total, total // 40):
                before = sum(callouts.values())
                experiment.trial_at(site, seed=site, burst=3)
                per_trial.append(sum(callouts.values()) - before)
        assert 3 <= max(per_trial) <= 8

    def test_a_full_injected_run_calls_out_a_bounded_number_of_times(
        self, apps, callouts
    ):
        info = apps["mp3_decoder"].info
        options = RuntimeOptions(ignore_errors=True)
        for target in (0, 5_000, 20_000, 40_000):
            injector = ErrorInjector(target, seed=target, burst=3)
            engine = CompiledRunner(
                info, app_device_factory("mp3_decoder", 30)(),
                options=options, injector=injector,
            )
            callouts.clear()
            engine.run()
            assert injector.fired and engine.sites > 40_000
            assert injector.step == engine.sites
            assert sum(callouts.values()) <= 8


class TestSpeed:
    def test_compiled_is_not_slower(self, apps):
        import time

        def clock(backend) -> float:
            start = time.perf_counter()
            backend(
                apps["mp3_decoder"].info, app_device_factory("mp3_decoder", 30)()
            ).run()
            return time.perf_counter() - start

        clock(CompiledRunner)  # warm up
        interp_time = min(clock(Interpreter) for _ in range(2))
        compiled_time = min(clock(CompiledRunner) for _ in range(2))
        # allow generous noise margin; typical ratio is 2-4x
        assert compiled_time < interp_time * 1.2
