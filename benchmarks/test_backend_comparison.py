"""Execution backend comparison: tree-walking interpreter vs the
code-generating runner (the code-generation strategy of Section 4.4).

Both are observationally identical (differential tests in
``tests/runtime/test_compiler.py``); this benchmark quantifies the
compiled backend's speedup on the MP3 decoder, the heaviest workload.
"""

from __future__ import annotations

import time

from repro.apps import app_device_factory, load_app
from repro.runtime import Interpreter, RuntimeOptions
from repro.runtime.compiler import CompiledRunner

from .conftest import write_result

FRAMES = 40


def decode_with(backend) -> int:
    app = load_app("mp3_decoder")
    engine = backend(
        app.info,
        app_device_factory("mp3_decoder", FRAMES)(),
        options=RuntimeOptions(ignore_errors=True),
    )
    return len(engine.run())


def test_backend_interpreter(benchmark):
    samples = benchmark(decode_with, Interpreter)
    assert samples == FRAMES * 16


def test_backend_compiled(benchmark):
    samples = benchmark(decode_with, CompiledRunner)
    assert samples == FRAMES * 16


def test_backend_speedup_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def sample(backend, rounds=3) -> list[float]:
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            decode_with(backend)
            times.append(time.perf_counter() - start)
        return times

    interp_times = sample(Interpreter)
    compiled_times = sample(CompiledRunner)
    interp, compiled = min(interp_times), min(compiled_times)
    lines = [
        "Execution backends on the MP3 decoder "
        f"({FRAMES} frames, best of 3):",
        f"  tree-walking interpreter: {interp * 1000:8.1f} ms",
        f"  code-generating runner:   {compiled * 1000:8.1f} ms",
        f"  speedup: {interp / compiled:.2f}x",
    ]
    write_result("backend_comparison.txt", "\n".join(lines))
    assert compiled <= interp * 1.2
