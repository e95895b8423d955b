"""Static fields, on both engines, against outputs worked out by hand
from Java's rules: a static has one slot per class, whatever instance
or method writes it, and a store to it initializes its class first
(JLS 12.4.1), so a later initialization never overwrites the store.

The differential tests hold the engines to each other, so a rule both
get wrong shows only here."""

from __future__ import annotations

import pytest

from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice
from repro.runtime.interpreter import Interpreter, RuntimeOptions
from repro.runtime.stabilization import StabilizationExperiment
from tests.conftest import analyze
from tests.runtime.test_resume import oracle_records, sweep

#: A ``@GLOBALLOC`` static written and read back in the event loop.
GLOBAL_TICK = '''
class Main {
  static int tick;
  @LATTICE("B<GLB,GLB<X,X<IN") @THISLOC("X") @GLOBALLOC("GLB")
  void run() {
    SSJAVA:
    while (true) {
      @LOC("IN") int v = Device.readSensor();
      tick = v;
      @LOC("B") int out = tick;
      SJ.broadcast(out);
      SJ.broadcast(v);
    }
  }
}
'''

#: A static counter bumped through an instance method.
COUNTER = '''
class Box {
  static int count;
  int bump() { count = count + 1; return count; }
}
class Main {
  void run() {
    Box b = new Box();
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      SJ.broadcast(b.bump());
    }
  }
}
'''

#: ``last`` is written before any static of ``Hist`` is read: the store
#: initializes ``Hist`` (``last = 7``, ``total = 40``) and then writes
#: ``v``, so ``total`` starts at 40 and ``last`` never reads 7.
WRITTEN_FIRST = '''
class Hist {
  static int last = 7;
  static int total = 40;
  void record(int v) {
    last = v;
    total = total + last;
  }
  int latest() { return last; }
  int sum() { return total; }
}
class Main {
  void run() {
    Hist h = new Hist();
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      h.record(v);
      SJ.broadcast(h.latest());
      SJ.broadcast(h.sum());
    }
  }
}
'''

#: A compound assignment reads the initialized static, then stores it.
COMPOUND = '''
class Acc {
  static int sum = 100;
  int add(int v) { sum += v; return sum; }
}
class Main {
  void run() {
    Acc a = new Acc();
    Acc b = new Acc();
    SSJAVA:
    while (true) {
      int v = Device.readSensor();
      SJ.broadcast(a.add(v));
      SJ.broadcast(b.add(1));
    }
  }
}
'''

CASES = [
    pytest.param(GLOBAL_TICK, [9, 5, 15], [9, 9, 5, 5, 15, 15], id="tick"),
    pytest.param(COUNTER, [0, 0, 0], [1, 2, 3], id="counter"),
    pytest.param(
        WRITTEN_FIRST, [3, 4, 5], [3, 43, 4, 47, 5, 52], id="written-first"
    ),
    pytest.param(
        COMPOUND, [1, 2, 3], [101, 102, 104, 105, 108, 109], id="compound"
    ),
]


def device(inputs):
    return IterationKeyedDevice(
        lambda name, it, k: inputs[it], iterations=len(inputs)
    )


@pytest.mark.parametrize("engine", [Interpreter, CompiledRunner])
@pytest.mark.parametrize("source, inputs, expected", CASES)
def test_outputs_follow_java(engine, source, inputs, expected):
    runner = engine(analyze(source), device(inputs), options=RuntimeOptions())
    assert runner.run() == expected


@pytest.mark.parametrize(
    "source", [WRITTEN_FIRST, COMPOUND], ids=["written-first", "compound"]
)
def test_resumed_trials_restore_written_statics(source):
    inputs = [3, 4, 5, 6, 2, 1, 0, 7]
    experiment = StabilizationExperiment(
        analyze(source), lambda: device(inputs), step_budget_factor=64
    )
    sites = range(experiment.total_steps() + 2)
    records, attrs = sweep(experiment, sites, burst=2)
    assert records == oracle_records(experiment, sites, burst=2)
    assert any(a["resumed_at"] for a in attrs)
