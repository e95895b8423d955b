"""Figure 6.2: the MP3 decoder's output signal, normal execution vs
execution with an injected error.

The paper shows the injected run's signal deviating (oscillating) for a
bounded window and then rejoining the normal signal exactly.  This
benchmark produces both traces, locates the deviation window, and checks
the post-window samples are bit-identical.
"""

from __future__ import annotations

from repro.apps import app_device_factory, load_app
from repro.runtime import (
    ErrorInjector,
    Interpreter,
    RuntimeOptions,
    StabilizationExperiment,
)

from .conftest import write_result

FRAMES = 24


def decode(injector=None):
    app = load_app("mp3_decoder")
    interp = Interpreter(
        app.info,
        app_device_factory("mp3_decoder", FRAMES)(),
        options=RuntimeOptions(ignore_errors=True),
        injector=injector,
    )
    interp.run()
    return interp.sink.values


def pick_visible_injection() -> int:
    """Find a target step whose corruption is visible mid-stream."""
    app = load_app("mp3_decoder")
    experiment = StabilizationExperiment(
        app.info,
        app_device_factory("mp3_decoder", FRAMES),
        options=RuntimeOptions(ignore_errors=True),
    )
    for seed in range(40):
        trial = experiment.trial(seed=seed)
        if (
            trial.corrupted_output
            and not trial.diverged
            and trial.injection_iteration < FRAMES - 6
        ):
            return trial.target_step
    raise AssertionError("no visible mid-stream injection found")


def test_fig_6_2_signal_trace(benchmark):
    normal = benchmark(decode)
    target = pick_visible_injection()
    injected = decode(ErrorInjector(target_step=target, seed=target + 1))

    assert len(normal) == len(injected)
    diffs = [i for i, (a, b) in enumerate(zip(normal, injected)) if a != b]
    assert diffs, "injection must visibly corrupt the signal"
    first, last = diffs[0], diffs[-1]

    # after the deviation window the signals are exactly identical
    assert injected[last + 1:] == normal[last + 1:]
    deviation = max(
        abs(a - b) for a, b in zip(normal[first:last + 1], injected[first:last + 1])
    )

    lines = [
        "Figure 6.2 — MP3 decoder output: normal vs error-injected execution",
        f"samples: {len(normal)} ({FRAMES} frames x 16 PCM samples)",
        f"deviation window: samples {first}..{last} "
        f"({last - first + 1} samples; paper trial: 1,630 samples)",
        f"peak deviation during window: {deviation:.3f}",
        "signals identical after the window: yes (exact state re-sync)",
        "",
        "sample  normal      injected",
    ]
    lo = max(0, first - 2)
    hi = min(len(normal), last + 3)
    for i in range(lo, hi):
        marker = "  <-- deviation" if first <= i <= last and normal[i] != injected[i] else ""
        lines.append(f"{i:6d}  {normal[i]:+9.4f}  {injected[i]:+9.4f}{marker}")
    write_result("fig_6_2_mp3_trace.txt", "\n".join(lines))
