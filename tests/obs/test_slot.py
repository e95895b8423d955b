"""The one install mechanism behind every instrument's
``get_*``/``set_*``/``installed_*`` names."""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosInjector,
    NullChaosInjector,
    get_chaos,
    installed_chaos,
    set_chaos,
)
from repro.obs import (
    EventLog,
    NullEventLog,
    NullProfiler,
    NullResourceMonitor,
    NullTracer,
    ResourceMonitor,
    SamplingProfiler,
    Tracer,
    get_event_log,
    get_profiler,
    get_resource_monitor,
    get_tracer,
    installed_event_log,
    installed_profiler,
    installed_resource_monitor,
    installed_tracer,
    set_event_log,
    set_profiler,
    set_resource_monitor,
    set_tracer,
)
from repro.obs.slot import Slot


class Instrument(NamedTuple):
    name: str
    get: Callable
    set: Callable
    installed: Callable
    null: type
    live: Callable


INSTRUMENTS = [
    Instrument("tracer", get_tracer, set_tracer, installed_tracer,
               NullTracer, Tracer),
    Instrument("event log", get_event_log, set_event_log,
               installed_event_log, NullEventLog, EventLog),
    Instrument("profiler", get_profiler, set_profiler, installed_profiler,
               NullProfiler,
               lambda: SamplingProfiler(interval_seconds=0.005, frames=dict)),
    Instrument("resource monitor", get_resource_monitor,
               set_resource_monitor, installed_resource_monitor,
               NullResourceMonitor,
               lambda: ResourceMonitor(trace_allocations=False,
                                       track_gc=False)),
    Instrument("chaos injector", get_chaos, set_chaos, installed_chaos,
               NullChaosInjector,
               lambda: ChaosInjector(ChaosConfig(rate=0.0))),
]


class TestSlot:
    def test_set_none_restores_the_null_default(self):
        null, live = object(), object()
        slot = Slot(null)
        assert slot.get() is null
        assert slot.set(live) is null
        assert slot.get() is live
        assert slot.set(None) is live
        assert slot.get() is null

    def test_installed_restores_previous_when_block_raises(self):
        null, outer, inner = object(), object(), object()
        slot = Slot(null)
        with slot.installed(outer):
            with pytest.raises(RuntimeError, match="boom"):
                with slot.installed(inner) as value:
                    assert value is inner
                    assert slot.get() is inner
                    raise RuntimeError("boom")
            assert slot.get() is outer
        assert slot.get() is null


@pytest.mark.parametrize(
    "instrument", INSTRUMENTS, ids=[i.name for i in INSTRUMENTS]
)
def test_each_instrument_reads_and_writes_its_own_slot(instrument):
    others = [i.get for i in INSTRUMENTS if i is not instrument]
    before = [get() for get in others]
    live = instrument.live()
    previous = instrument.set(live)
    try:
        assert isinstance(previous, instrument.null)
        assert instrument.get() is live
        assert [get() for get in others] == before
    finally:
        instrument.set(None)
    assert isinstance(instrument.get(), instrument.null)
    with instrument.installed(live):
        assert instrument.get() is live
        assert [get() for get in others] == before
    assert isinstance(instrument.get(), instrument.null)
