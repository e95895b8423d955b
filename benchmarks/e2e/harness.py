"""Runs one workload and turns what it measured into the metrics named
in ``BENCHMARK.json``: the end-to-end metrics from an untraced run, or
the per-layer metrics from a traced one."""

from __future__ import annotations

import json
import math
import shutil
import statistics
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from benchmarks.e2e.analyze import Analyze
from benchmarks.e2e.campaign import Campaign
from benchmarks.e2e.fabric import Fabric
from benchmarks.e2e.serve import Serve
from benchmarks.e2e.support import (
    ROOT,
    Context,
    Pass,
    Workload,
    cli_probes,
    fingerprint,
    load_expected,
    load_params,
    median,
    percentile,
    sha256_of,
    tail_percentile,
)
from benchmarks.e2e.tracing import (
    LAYERS,
    Recorder,
    durations,
    format_table,
    instrument,
    layer_table,
)

WORKLOADS: dict[str, type[Workload]] = {
    "analyze": Analyze,
    "serve": Serve,
    "campaign": Campaign,
    "fabric": Fabric,
}

#: The unit of work each workload's ``ops_per_s`` counts.
UNITS = {
    "analyze": "checks+infers",
    "serve": "requests",
    "campaign": "trials",
    "fabric": "activations",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Outcome:
    workload: str
    seed: int
    seconds: float
    trace: bool
    params: dict
    inputs_sha256: str
    #: name -> (value, unit, how it was measured)
    metrics: dict
    attempted: int
    failed: int
    notes: list[str]
    rounds: int
    report: str = ""
    recorder: Optional[Recorder] = field(default=None, repr=False)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result(self) -> dict:
        """The benchmark's result line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
            },
        }

    def record(self) -> dict:
        """Everything needed to show two runs measured the same inputs."""
        return {
            **self.result(),
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "params": self.params,
            "inputs_sha256": self.inputs_sha256,
            "rounds": self.rounds,
            "fingerprint": fingerprint(),
            "details": {name: how for name, (_, _, how) in self.metrics.items()},
            "failures": self.notes,
        }

    def lines(self) -> list[str]:
        out = [self.report] if self.report else []
        out += [
            f"{name:<48} {value:>16.6f} {unit:<6} {how}"
            for name, (value, unit, how) in self.metrics.items()
        ]
        out.append(
            f"# {self.workload} seed={self.seed} rounds={self.rounds} "
            f"attempted={self.attempted} failed={self.failed} "
            f"inputs_sha256={self.inputs_sha256}"
        )
        out += [f"# failure: {note}" for note in self.notes]
        return out


def run_workload(
    name: str,
    *,
    seed: int = 0,
    seconds: Optional[float] = None,
    trace: bool = False,
    params: Optional[dict] = None,
    expected: Optional[dict] = None,
) -> Outcome:
    """Run one workload in this process.  ``params`` and ``expected``
    default to the pinned ``workloads.json`` entry and the fixtures."""
    spec = load_spec()
    params = params if params is not None else load_params()[name]
    seconds = spec["run_seconds"] if seconds is None else seconds
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"e2e-{name}-", dir=build)
    ctx = Context(
        seed=seed, seconds=seconds, params=params,
        expected=expected if expected is not None else load_expected(),
        scratch=Path(scratch),
    )
    workload = WORKLOADS[name](ctx)
    try:
        if trace:
            values, report, rounds, recorder = per_layer(workload, ctx)
        else:
            values, rounds = end_to_end(workload, ctx)
            report, recorder = "", None
    finally:
        workload.shutdown()
        shutil.rmtree(scratch, ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value, how = values.get(entry["name"], (0, "not counted by this workload"))
        metrics[entry["name"]] = (value, entry["unit"], how)
    return Outcome(
        workload=name, seed=seed, seconds=seconds, trace=trace, params=params,
        inputs_sha256=sha256_of({
            "workload": name, "seed": seed, "params": params,
            "inputs": workload.inputs(),
        }),
        metrics=metrics, attempted=ctx.tally.attempted,
        failed=ctx.tally.failed, notes=ctx.tally.notes, rounds=rounds,
        report=report, recorder=recorder,
    )


def end_to_end(workload: Workload, ctx: Context) -> tuple[dict, int]:
    """The end-to-end metrics of one untraced run.  Every sample counts,
    each scaled by the host reference measured around it."""
    setups, colds, measured = workload.run(ctx.seconds)
    return {
        "setup_s": (
            median(setups), f"median of {len(setups)} set-ups, host-scaled",
        ),
        "cold_start_s": (
            median(colds),
            f"median of {len(colds)} cold processes, each scaled by the "
            f"bare interpreter starts around it",
        ),
        "rss_mb": (
            median(workload.resident),
            f"median of {len(workload.resident)} readings, one after each "
            f"segment" + (" (the daemon)" if workload.name == "serve" else
                          ", after a full collection"),
        ),
        **timed_metrics(measured, workload.name),
    }, measured.rounds


def timed_metrics(measured: Pass, workload: str) -> dict:
    """Throughput and op latencies over every op of the pass, each op's
    seconds and latencies scaled by the host probes around it.

    Throughput is the geometric mean over the ops' groups (op kinds,
    apps, fabric configs) of each group's units per scaled second.
    Every group counts alike, so a seed whose inputs make one group's
    ops run long (an mp3_decoder shard of slow trials) moves the number
    by that group's share only, and so does a change to one group."""
    seconds: dict[str, float] = defaultdict(float)
    units: dict[str, float] = defaultdict(float)
    for op in measured.ops:
        seconds[op.group] += op.seconds * op.scale
        units[op.group] += op.units
    rate = math.exp(statistics.mean(
        math.log(units[group] / seconds[group]) for group in seconds
    )) if seconds else 0.0
    latencies = [
        latency * op.scale for op in measured.ops for latency in op.latencies_ms
    ]
    q = tail_percentile(len(latencies))
    tail = percentile(latencies, q)
    beyond = sum(1 for value in latencies if value > tail)
    per = " per activation" if workload == "fabric" else ""
    of = f"of {len(latencies)} ops{per}"
    return {
        "ops_per_s": (
            rate,
            f"{measured.units:.0f} {UNITS[workload]} in "
            f"{sum(seconds.values()):.3f} host-scaled s "
            f"({measured.busy:.3f} s measured) over {measured.rounds} "
            f"rounds; geometric mean over {len(seconds)} groups",
        ),
        "latency_p50_ms": (percentile(latencies, 50), f"p50 {of}"),
        "latency_tail_ms": (tail, f"p{q} {of}, {beyond} of them beyond"),
    }


def per_layer(workload: Workload, ctx: Context):
    """Untraced and traced passes over the same rounds.  Per-layer
    numbers come from the traced pass; the overhead is its time over
    the untraced pass's."""
    workload.setup()
    probes = cli_probes(
        ctx.scratch, ctx.params["cold_probes"], workload.cold_probe
    )
    recorder = Recorder()
    targets = workload.targets()

    @contextmanager
    def tracing():
        ctx.recorder = recorder
        try:
            with instrument(recorder, targets):
                yield
        finally:
            ctx.recorder = None

    with tracing(), ctx.op("setup"):
        workload.setup()
    untraced, traced = workload.measure_traced(ctx.seconds, tracing)
    spans = recorder.spans
    table = layer_table(spans)
    if table.max_error_pct > 1.0:
        ctx.tally.fail(
            f"self times miss the op wall time by {table.max_error_pct:.3f}%"
        )
    parse = durations(spans, "lang.parse")
    tokens = sum(
        span.attrs["tokens"] for span in spans
        if span.name == "lang.parse" and span.attrs
    )
    values = {
        "trace.overhead_pct": (
            (traced.busy / untraced.busy - 1.0) * 100.0 if untraced.busy else 0.0,
            f"traced {traced.busy:.3f} s vs untraced {untraced.busy:.3f} s "
            f"on the same {untraced.rounds} rounds",
        ),
        "trace.self_sum_error_pct": (
            table.max_error_pct, f"worst op of {table.ops}"
        ),
        "trace.spans": (len(spans), "spans recorded"),
        "cli.interpreter_ms": (
            probes["interpreter_s"] * 1e3, "python -c pass, median"
        ),
        "cli.import_ms": (
            probes["import_s"] * 1e3,
            "import repro.cli minus interpreter start, median of trios",
        ),
        "cli.work_ms": (
            probes["work_s"] * 1e3,
            "cold command minus import repro.cli, median of trios",
        ),
        "lang.parse_ms": (median(parse) * 1e3, f"median of {len(parse)} calls"),
        "lang.parse_tokens_per_s": (
            tokens / sum(parse) if parse else 0.0, f"{tokens} tokens"
        ),
        "core.checks_per_s": (table.rate("core.check"), "per second of self time"),
        "infer.runs_per_s": (table.rate("infer.run"), "per second of self time"),
        "error_rate": (ctx.tally.error_rate, "failed over attempted"),
    }
    for name in ("lang.resolve", "lang.typecheck"):
        calls = durations(spans, name)
        values[f"{name}_ms"] = (
            median(calls) * 1e3, f"median of {len(calls)} calls"
        )
    for layer in LAYERS:
        values[f"{layer}.share"] = (
            table.share(layer), "self time over op wall time"
        )
    values.update({
        name: (value, "traced pass")
        for name, value in workload.layer_metrics(traced).items()
    })
    return values, format_table(table), traced.rounds, recorder
