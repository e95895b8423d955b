"""Device simulation tests."""

import pytest

from repro.lang import types as st
from repro.lang.builtins import DEVICE_FUNCTIONS
from repro.runtime.devices import (
    InputExhausted,
    IterationKeyedDevice,
    OutputSink,
    ScriptedDevice,
    synthetic_inputs,
)


class TestScriptedDevice:
    def test_replays_in_order(self):
        device = ScriptedDevice({"readSensor": [1, 2, 3]})
        assert [device.read("readSensor") for _ in range(3)] == [1, 2, 3]

    def test_exhaustion_raises(self):
        device = ScriptedDevice({"readSensor": [1]})
        device.read("readSensor")
        with pytest.raises(InputExhausted):
            device.read("readSensor")

    def test_independent_streams(self):
        device = ScriptedDevice({"a": [1], "b": [2]})
        assert device.read("b") == 2
        assert device.read("a") == 1

    def test_unknown_function_raises(self):
        with pytest.raises(InputExhausted):
            ScriptedDevice({}).read("readSensor")


class TestIterationKeyedDevice:
    def test_values_keyed_by_iteration_and_index(self):
        device = IterationKeyedDevice(
            lambda name, it, k: (it, k), iterations=3
        )
        device.begin_iteration(0)
        assert device.read("x") == (0, 0)
        assert device.read("x") == (0, 1)
        device.begin_iteration(1)
        assert device.read("x") == (1, 0)

    def test_per_name_index(self):
        device = IterationKeyedDevice(lambda n, i, k: (n, k), iterations=2)
        device.begin_iteration(0)
        assert device.read("a") == ("a", 0)
        assert device.read("b") == ("b", 0)

    def test_extra_reads_do_not_shift_later_iterations(self):
        # the property the error model needs: reading more in one
        # iteration leaves the next iteration's values unchanged
        device = IterationKeyedDevice(lambda n, i, k: i * 10 + k, iterations=3)
        device.begin_iteration(0)
        device.read("x")
        device.read("x")
        device.read("x")  # extra
        device.begin_iteration(1)
        assert device.read("x") == 10

    def test_limit_raises(self):
        device = IterationKeyedDevice(lambda n, i, k: 0, iterations=1)
        device.begin_iteration(1)
        with pytest.raises(InputExhausted):
            device.read("x")


def synthetic_device(seed, iterations=20):
    """The device ``repro run`` and ``repro inject`` read from."""
    return IterationKeyedDevice(synthetic_inputs(seed), iterations=iterations)


def read_iterations(device, name, iterations, reads=1):
    values = []
    for iteration in range(iterations):
        device.begin_iteration(iteration)
        values += [device.read(name) for _ in range(reads)]
    return values


class TestSyntheticDevice:
    def test_deterministic_per_seed(self):
        values_a = read_iterations(synthetic_device(9), "readTemp", 5, 2)
        values_b = read_iterations(synthetic_device(9), "readTemp", 5, 2)
        assert values_a == values_b
        assert values_a != read_iterations(synthetic_device(10), "readTemp", 5, 2)

    def test_int_sensors_in_range(self):
        values = read_iterations(synthetic_device(1), "readSonar", 20)
        assert set(values) <= set(range(16))
        assert len(set(values)) > 8

    @pytest.mark.parametrize("name", sorted(DEVICE_FUNCTIONS))
    def test_value_type_is_the_declared_type(self, name):
        declared = DEVICE_FUNCTIONS[name].check([])
        for value in read_iterations(synthetic_device(0), name, 3, 2):
            assert type(value) is (float if declared == st.FLOAT else int)

    def test_extra_reads_do_not_shift_later_iterations(self):
        def next_iteration(extra):
            device = synthetic_device(5)
            device.begin_iteration(0)
            for _ in range(2 + extra):
                device.read("readInt")
                device.read("readScale")
            device.begin_iteration(1)
            return [device.read(name) for name in ("readInt", "readScale") * 3]

        assert next_iteration(extra=1) == next_iteration(extra=0)


class TestOutputSink:
    def test_collects_and_clears(self):
        sink = OutputSink()
        sink.emit(1)
        sink.emit("x")
        assert sink.values == [1, "x"]
        sink.clear()
        assert sink.values == []
