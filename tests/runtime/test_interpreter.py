"""Interpreter tests, including the crash-avoidance semantics of
Section 4.4."""

import pytest

from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice, ScriptedDevice
from repro.runtime.interpreter import Interpreter, RuntimeOptions, SJavaRuntimeError
from repro.runtime.values import java_int_div, java_int_rem
from tests.conftest import analyze


def run(source: str, streams=None, options=None, iterations=5):
    info = analyze(source)
    if streams is not None:
        device = ScriptedDevice(streams)
    else:
        device = IterationKeyedDevice(
            lambda name, it, k: it * 10 + k, iterations=iterations
        )
    interp = Interpreter(info, device, options=options)
    interp.run()
    return interp


LOOP = '''
class Main {{
  {members}
  void run() {{
    SSJAVA:
    while (true) {{
      {body}
    }}
  }}
  {methods}
}}
'''


def loop(body: str, members: str = "", methods: str = "") -> str:
    return LOOP.format(body=body, members=members, methods=methods)


class TestBasicExecution:
    def test_event_loop_runs_until_input_exhausted(self):
        interp = run(loop("int v = Device.readSensor(); SJ.broadcast(v);"),
                     streams={"readSensor": [1, 2, 3]})
        assert interp.sink.values == [1, 2, 3]

    def test_iteration_keyed_device(self):
        interp = run(loop("int v = Device.readSensor(); SJ.broadcast(v);"),
                     iterations=3)
        assert interp.sink.values == [0, 10, 20]

    def test_outputs_by_iteration(self):
        interp = run(loop(
            "int v = Device.readSensor(); SJ.broadcast(v); SJ.broadcast(v + 1);"
        ), iterations=2)
        assert interp.outputs_by_iteration() == [[0, 1], [10, 11]]

    def test_field_state_persists_across_iterations(self):
        interp = run(loop(
            "int v = Device.readSensor(); SJ.broadcast(prev); prev = v;",
            members="int prev;",
        ), streams={"readSensor": [5, 6, 7]})
        assert interp.sink.values == [0, 5, 6]

    def test_max_iterations_cap(self):
        interp = run(
            loop("SJ.broadcast(1);"),
            options=RuntimeOptions(max_iterations=4),
        )
        assert len(interp.sink.values) == 4

    def test_method_calls_and_dispatch(self):
        source = '''
        class A { int f() { return 1; } }
        class B extends A { int f() { return 2; } }
        class Main {
          A obj = new B();
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              SJ.broadcast(obj.f());
            }
          }
        }
        '''
        interp = run(source, streams={"readSensor": [0]})
        assert interp.sink.values == [2]

    def test_static_finals_evaluated_once(self):
        source = loop(
            "int v = Device.readSensor(); SJ.broadcast(C2 + v);",
            members="static final int C2 = 40;",
        )
        interp = run(source, streams={"readSensor": [2]})
        assert interp.sink.values == [42]

    def test_arrays_and_fill(self):
        interp = run(loop(
            "int v = Device.readSensor();"
            "SJ.fill(data, v);"
            "SJ.broadcast(data[0] + data[3]);",
            members="int[] data = new int[4];",
        ), streams={"readSensor": [7]})
        assert interp.sink.values == [14]

    def test_ordered_buffer_semantics(self):
        interp = run(loop(
            "float v = Device.readTemp();"
            "h.insert(v);"
            "SJ.broadcast(h.get(0));"
            "SJ.broadcast(h.get(2));",
            members="OrderedBuffer h = new OrderedBuffer(3);",
        ), streams={"readTemp": [1.0, 2.0, 3.0]})
        # newest at index 0; oldest shifted out after capacity inserts
        assert interp.sink.values == [1.0, 0.0, 2.0, 0.0, 3.0, 1.0]

    def test_for_loop_and_break_continue(self):
        interp = run(loop(
            "int v = Device.readSensor();"
            "int acc = 0;"
            "for (int i = 0; i < 10; i++) {"
            "  if (i == 2) { continue; }"
            "  if (i == 5) { break; }"
            "  acc = acc + i;"
            "}"
            "SJ.broadcast(acc);",
        ), streams={"readSensor": [0]})
        assert interp.sink.values == [0 + 1 + 3 + 4]

    def test_string_concat_and_tostr(self):
        interp = run(loop(
            'int v = Device.readSensor();'
            'String s = "v=" + v;'
            'SJ.broadcast(s);'
            'SJ.broadcast(SJ.toStr(true));',
        ), streams={"readSensor": [3]})
        assert interp.sink.values == ["v=3", "true"]

    def test_math_builtins(self):
        interp = run(loop(
            "int v = Device.readSensor();"
            "SJ.broadcast(Math.abs(-3));"
            "SJ.broadcast(Math.max(2, 5));"
            "SJ.broadcast(Math.floor(2.9));",
        ), streams={"readSensor": [0]})
        assert interp.sink.values == [3, 5, 2]


class TestJavaArithmetic:
    def test_int_division_truncates_toward_zero(self):
        assert java_int_div(7, 2) == 3
        assert java_int_div(-7, 2) == -3
        assert java_int_div(7, -2) == -3

    def test_remainder_sign_follows_dividend(self):
        assert java_int_rem(7, 3) == 1
        assert java_int_rem(-7, 3) == -1
        assert java_int_rem(7, -3) == 1

    def test_interpreted_division(self):
        interp = run(loop(
            "int v = Device.readSensor(); SJ.broadcast(v / 2); "
            "SJ.broadcast(v % 2);"
        ), streams={"readSensor": [-7]})
        assert interp.sink.values == [-3, -1]

    def test_mixed_arithmetic_promotes(self):
        interp = run(loop(
            "int v = Device.readSensor(); SJ.broadcast(v / 2.0);"
        ), streams={"readSensor": [7]})
        assert interp.sink.values == [3.5]


class TestCrashAvoidance:
    NULL_DEREF = loop(
        "int v = Device.readSensor();"
        "if (v > 0) { box = new Box(); box.val = v; }"
        "SJ.broadcast(box.val);",
        members="Box box;",
    ) + "\nclass Box { int val; }"

    def test_strict_mode_raises_on_null(self):
        with pytest.raises(SJavaRuntimeError):
            run(self.NULL_DEREF, streams={"readSensor": [0]})

    def test_ignore_mode_yields_default(self):
        interp = run(
            self.NULL_DEREF,
            streams={"readSensor": [0, 5, 0]},
            options=RuntimeOptions(ignore_errors=True),
        )
        # null read gives the field's default 0, then the box exists
        assert interp.sink.values == [0, 5, 5]
        assert interp.error_log

    def test_division_by_zero_defined(self):
        interp = run(
            loop("int v = Device.readSensor(); SJ.broadcast(10 / v);"),
            streams={"readSensor": [0, 2]},
            options=RuntimeOptions(ignore_errors=True),
        )
        assert interp.sink.values == [0, 5]

    def test_out_of_bounds_defined(self):
        interp = run(
            loop(
                "int v = Device.readSensor();"
                "data[v] = 9;"
                "SJ.broadcast(data[v]);",
                members="int[] data = new int[2];",
            ),
            streams={"readSensor": [5, 1]},
            options=RuntimeOptions(ignore_errors=True),
        )
        assert interp.sink.values == [0, 9]

    def test_inner_loop_bound_enforced_silently(self):
        interp = run(
            loop(
                "int v = Device.readSensor();"
                "int i = 0;"
                "@MAXLOOP(3) while (i < 100) { SJ.broadcast(i); i++; }"
            ),
            streams={"readSensor": [0]},
            options=RuntimeOptions(ignore_errors=True),
        )
        assert interp.sink.values == [0, 1, 2]
        assert interp.error_log

    def test_inner_loop_bound_raises_in_strict_mode(self):
        with pytest.raises(SJavaRuntimeError):
            run(
                loop("int v = Device.readSensor(); while (true) { }"),
                streams={"readSensor": [0]},
                options=RuntimeOptions(inner_loop_bound=10),
            )

    def test_call_on_null_receiver_executes_target(self):
        # Section 4.4: the execution chooses the method target so
        # stabilizing side effects still run
        source = '''
        class Worker { int done; void work() { done = 1; } }
        class Main {
          Worker w;
          void run() {
            SSJAVA:
            while (true) {
              int v = Device.readSensor();
              w.work();
              SJ.broadcast(v);
            }
          }
        }
        '''
        interp = run(
            source,
            streams={"readSensor": [1]},
            options=RuntimeOptions(ignore_errors=True),
        )
        assert interp.sink.values == [1]
        assert interp.error_log


#: Every kind of crash-avoidance error, in two iterations (v = 0, 3).
EVERY_ERROR = '''
class Box { int val; void touch() { val = 1; } }
class Main {
  Box box;
  int[] data = new int[2];
  int[] none;
  OrderedIntBuffer buf = new OrderedIntBuffer(2);
  void run() {
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      SJ.broadcast(box.val);
      box.val = v;
      box.touch();
      data[v] = 1;
      SJ.broadcast(data[v] + none.length);
      SJ.broadcast(10 / v + 10 % v);
      SJ.broadcast(Math.sqrt(0.0 - v) + Math.exp(1000.0));
      SJ.broadcast(buf.get(v));
      int i = 0;
      @MAXLOOP(2) while (i < 5) { i++; }
    }
  }
}
'''

#: The messages both engines log for it.
EVERY_ERROR_LOG = [
    "field read on null reference at 12:24; ignored",
    "field store on null reference at 13:11; ignored",
    "call of 'touch' on null receiver at 14:11; ignored",
    "length of null array at 16:35; ignored",
    "division by zero at 17:23; defined result",
    "remainder by zero at 17:32; defined result",
    "math range error at 18:46; defined result",
    "loop bound exceeded at 21:19; bounded",
    "field read on null reference at 12:24; ignored",
    "field store on null reference at 13:11; ignored",
    "call of 'touch' on null receiver at 14:11; ignored",
    "index 3 out of bounds for length 2 at 15:11; ignored",
    "index 3 out of bounds for length 2 at 16:24; ignored",
    "length of null array at 16:35; ignored",
    "sqrt of negative value at 18:25; defined result",
    "math range error at 18:46; defined result",
    "index 3 out of bounds for length 2 at 19:24; ignored",
    "loop bound exceeded at 21:19; bounded",
]


class TestErrorLogText:
    """Both engines log one message per crash-avoidance error, and
    strict mode raises the same text without the outcome."""

    @pytest.mark.parametrize("engine", [Interpreter, CompiledRunner])
    def test_every_kind_of_error_logs_its_message(self, engine):
        interp = engine(
            analyze(EVERY_ERROR),
            ScriptedDevice({"readSensor": [0, 3]}),
            options=RuntimeOptions(ignore_errors=True),
        )
        interp.run()
        assert interp.error_log == EVERY_ERROR_LOG

    def test_strict_mode_raises_the_message(self):
        with pytest.raises(
            SJavaRuntimeError,
            match=r"^index 3 out of bounds for length 2 at 7:40$",
        ):
            run(
                loop("int v = Device.readSensor(); data[v] = 9;",
                     members="int[] data = new int[2];"),
                streams={"readSensor": [3]},
            )
