"""Differential tests: the closure-compiling backend must be
observationally identical to the tree-walking interpreter."""

import sys
import threading
from collections import Counter

import pytest

from repro.apps import APP_NAMES, app_device_factory, load_app
from repro.obs.profile import SamplingProfiler, installed_profiler, section_counts
from repro.runtime import (
    ErrorInjector,
    Interpreter,
    RuntimeOptions,
    SJavaRuntimeError,
    StepBudgetExceeded,
)
from repro.runtime.compiler import CompiledProgram, CompiledRunner
from repro.runtime.devices import ScriptedDevice
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
        compile_stmt = CompiledProgram.compile_stmt

        def counting(program, stmt):
            compiles[id(stmt)] += 1
            return compile_stmt(program, stmt)

        monkeypatch.setattr(CompiledProgram, "compile_stmt", counting)
        app = load_app("mp3_decoder")
        runners = [
            CompiledRunner(app.info, app_device_factory("mp3_decoder", 4)())
            for _ in range(2)
        ]
        for runner in runners:
            runner.run()
        assert runners[0].program is runners[1].program
        assert runners[0].program is app.info.compiled
        bodies = {
            (cls.name, method.name): method.body
            for cls in app.info.classes.values() for method in cls.methods
        }
        compiled = {key for key, body in bodies.items() if compiles[id(body)]}
        assert ("Mp3Decoder", "decodeGranule") in compiled
        assert len(compiled) >= 3
        assert all(compiles[id(bodies[key])] == 1 for key in compiled)


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
