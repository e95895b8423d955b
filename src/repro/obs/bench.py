"""Benchmark harness, bench payloads, and regression gate.

Three pieces, all built on the tracing substrate (:mod:`repro.obs.trace`):

* a declarative **scenario registry** — named, kind-tagged operations
  (``check``/``infer``/``interpreter-step``/``campaign-shard``/
  ``service-batch``) over the registered apps in
  :mod:`repro.apps.registry`.  Scenarios build lazily, so importing this
  module never loads the checker stack;
* a **runner** with warmup and N timed repetitions producing
  min/median/mean/stddev per scenario, an environment fingerprint
  (python, platform, cpu count, git sha) and a schema-versioned
  ``BENCH_<UTCSTAMP>.json`` payload.  The clock is injectable, so the
  runner is deterministically testable, and every scenario runs under a
  ``bench.<name>`` span so ``repro bench --trace`` composes with the
  rest of the observability surface;
* a **comparator** flagging statistically meaningful regressions: a
  median shift is a regression only when it exceeds the threshold *and*
  the absolute shift exceeds the combined noise (old + new stddev), so
  a noisy scenario cannot trip the gate on jitter alone.

The JSON schema, the scenario registry, and the CI gate built on
``repro bench --compare`` are documented in ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.obs import codec
from repro.obs.trace import Tracer, get_tracer, installed_tracer

#: Bump when the BENCH_*.json payload layout changes.
BENCH_SCHEMA = 1

#: Span names the per-scenario span table excludes: the bench harness's
#: own structural spans, which would otherwise dominate every table.
_HARNESS_SPANS = ("warmup", "repetition")

#: Scenario kinds (the ``kind`` field of a scenario result).
KIND_CHECK = "check"
KIND_INFER = "infer"
KIND_INTERPRETER = "interpreter-step"
KIND_CAMPAIGN = "campaign-shard"
KIND_SERVICE = "service-batch"
KIND_DIST_RING = "dist-ring-step"
KIND_DIST_CAMPAIGN = "dist-campaign-shard"

KINDS = (KIND_CHECK, KIND_INFER, KIND_INTERPRETER, KIND_CAMPAIGN,
         KIND_SERVICE, KIND_DIST_RING, KIND_DIST_CAMPAIGN)

#: Suites a scenario can belong to.  ``small`` is the CI smoke suite;
#: ``full`` is every registered scenario.
SUITES = ("small", "full")

#: Comparison statuses (the ``status`` field of a comparison row).
REGRESSION = "regression"
IMPROVEMENT = "improvement"
WITHIN_NOISE = "within-noise"
MISSING = "missing"
ADDED = "added"

#: Trials one ``campaign-shard`` scenario repetition runs.
SHARD_TRIALS = 4


class BenchError(ValueError):
    """A bench payload violated the documented schema, or a scenario
    name did not resolve against the registry."""


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One named, timed operation.

    ``build()`` runs once per scenario (untimed) and returns the op the
    runner times; the op may return a dict of counters recorded on the
    scenario result (steps, diagnostics, files…).  Keeping the heavy
    imports inside ``build`` means the registry itself is free to
    construct.
    """

    name: str
    kind: str
    suites: tuple[str, ...]
    build: Callable[[], Callable[[], Optional[dict]]]


_REGISTRY: dict[str, Scenario] = {}
_BUILTIN_READY = False


def register_scenario(scenario: Scenario) -> Scenario:
    """Add one scenario to the registry (idempotent per name)."""
    if scenario.kind not in KINDS:
        raise BenchError(
            f"unknown scenario kind {scenario.kind!r}; expected one of "
            f"{KINDS}"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def _check_scenario(app: str, suites: tuple[str, ...]) -> Scenario:
    def build() -> Callable[[], dict]:
        from repro.apps.registry import app_source
        from repro.core.checker import timed_check

        source = app_source(app)

        def op() -> dict:
            # timed_check opens parse/resolve/typecheck/check spans, so
            # the per-repetition trace shows the same phases the
            # service reports.
            report, _ = timed_check(source)
            return {"diagnostics": len(report.diagnostics)}

        return op

    return Scenario(f"check/{app}", KIND_CHECK, suites, build)


def _infer_scenario(app: str, suites: tuple[str, ...]) -> Scenario:
    def build() -> Callable[[], dict]:
        from repro.apps.registry import app_source
        from repro.infer import timed_infer

        source = app_source(app, annotated=False)

        def op() -> dict:
            result, _ = timed_infer(source, mode="sinfer", verify=False)
            return {"locations": result.summary.total_locations}

        return op

    return Scenario(f"infer/{app}", KIND_INFER, suites, build)


def _interpreter_scenario(app: str, suites: tuple[str, ...]) -> Scenario:
    def build() -> Callable[[], dict]:
        from repro.apps.registry import app_device_factory, load_app
        from repro.runtime import RuntimeOptions
        from repro.runtime.compiler import CompiledRunner

        bundle = load_app(app)
        factory = app_device_factory(app)

        def op() -> dict:
            # The production engine, not the tree-walking oracle.
            interp = CompiledRunner(
                bundle.info,
                factory(),
                options=RuntimeOptions(ignore_errors=True),
            )
            outputs = interp.run()
            return {"steps": interp.steps, "outputs": len(outputs)}

        return op

    return Scenario(f"interpreter-step/{app}", KIND_INTERPRETER, suites, build)


def _campaign_scenario(
    app: str, kind: str, suites: tuple[str, ...]
) -> Scenario:
    def build() -> Callable[[], dict]:
        from repro.apps.registry import resolve_experiment

        experiment = resolve_experiment(app, step_budget_factor=64)
        # the clean runs (site count, reference) stay outside the timer
        experiment.total_steps()
        experiment.reference_steps()

        def op() -> dict:
            trials = experiment.run_trials(SHARD_TRIALS, seed=0)
            return {
                "trials": len(trials),
                "diverged": sum(1 for t in trials if t.diverged),
            }

        return op

    return Scenario(f"{kind}/{app}", kind, suites, build)


def _dist_ring_scenario(app: str, suites: tuple[str, ...]) -> Scenario:
    def build() -> Callable[[], dict]:
        from repro.dist import dist_app_experiment

        experiment = dist_app_experiment(app)
        rounds = experiment.horizon()

        def op() -> dict:
            # One full clean fabric simulation (every node activated on
            # every round, per-activation engine runs included) — the
            # inner loop every distributed trial pays.
            result = experiment.simulate(rounds)
            return {"rounds": rounds, "steps": result.steps}

        return op

    return Scenario(f"dist-ring-step/{app}", KIND_DIST_RING, suites, build)


def _service_batch_scenario(suites: tuple[str, ...]) -> Scenario:
    def build() -> Callable[[], dict]:
        from repro.apps.registry import programs_dir
        from repro.service.pool import CheckerPool

        paths = sorted(programs_dir().glob("*.sj"))

        def op() -> dict:
            # A fresh uncached in-process pool per repetition: the cost
            # measured is the batch front end itself, not cache luck.
            results = CheckerPool(max_workers=1, cache=None).check_paths(
                paths
            )
            return {
                "files": len(results),
                "passed": sum(1 for r in results if r.ok),
            }

        return op

    return Scenario("service-batch/apps", KIND_SERVICE, suites, build)


def _ensure_builtin() -> None:
    """Populate the registry with the built-in app scenarios, lazily —
    this touches :mod:`repro.apps`, which must not load at import."""
    global _BUILTIN_READY
    if _BUILTIN_READY:
        return
    _BUILTIN_READY = True
    from repro.apps.registry import APP_NAMES, DIST_APP_NAMES

    small_app = "wind_sensor"
    for app in APP_NAMES:
        suites = ("small", "full") if app == small_app else ("full",)
        register_scenario(_check_scenario(app, suites))
        register_scenario(_infer_scenario(app, suites))
        register_scenario(_interpreter_scenario(app, suites))
        register_scenario(_campaign_scenario(app, KIND_CAMPAIGN, suites))
    register_scenario(_service_batch_scenario(("small", "full")))
    small_dist = "herman_bit"
    for app in DIST_APP_NAMES:
        suites = ("small", "full") if app == small_dist else ("full",)
        register_scenario(_dist_ring_scenario(app, suites))
        register_scenario(_campaign_scenario(app, KIND_DIST_CAMPAIGN, suites))


def scenario_names(suite: str = "full") -> list[str]:
    """Registered scenario names belonging to ``suite``, sorted."""
    _ensure_builtin()
    if suite not in SUITES:
        raise BenchError(f"unknown suite {suite!r}; expected one of {SUITES}")
    return sorted(
        name for name, sc in _REGISTRY.items() if suite in sc.suites
    )


def get_scenario(name: str) -> Scenario:
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY))
        raise BenchError(
            f"unknown scenario {name!r}; available: {available}"
        ) from None


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _stats(samples: Sequence[float]) -> dict:
    return {
        "min_seconds": min(samples),
        "median_seconds": statistics.median(samples),
        "mean_seconds": statistics.fmean(samples),
        "stddev_seconds": (
            statistics.stdev(samples) if len(samples) > 1 else 0.0
        ),
    }


def scenario_result_from_samples(
    name: str,
    kind: str,
    samples: Sequence[float],
    *,
    counters: Optional[dict] = None,
    warmup: int = 0,
    spans: Optional[Sequence[dict]] = None,
    memory: Optional[dict] = None,
) -> dict:
    """A scenario result from measured samples; :func:`run_scenario`
    builds its results here too.  ``spans`` is an optional per-span
    self-time table (see :func:`run_scenario` with ``span_table=True``)
    ready for :func:`attribute_benchmarks`; ``memory`` is an optional
    ``memory`` section (the :func:`run_scenario` ``memory=True``
    shape)."""
    if kind not in KINDS:
        raise BenchError(f"unknown scenario kind {kind!r}")
    samples = [float(s) for s in samples]
    if not samples:
        raise BenchError(f"scenario {name!r}: no samples")
    result = {
        "name": name,
        "kind": kind,
        "warmup": warmup,
        "repetitions": len(samples),
        "samples_seconds": samples,
        "counters": {
            k: float(v) for k, v in sorted((counters or {}).items())
        },
        **_stats(samples),
    }
    if spans is not None:
        result["spans"] = list(spans)
    if memory is not None:
        result["memory"] = dict(memory)
    return result


def _span_table(events: Sequence[dict], scenario_name: str) -> list[dict]:
    """Fold collected span events into the scenario's span table:
    per-name occurrence count plus summed self/wall seconds, the bench
    harness's own spans (``warmup``/``repetition``/``bench.<name>``)
    excluded so measured work, not harness structure, tops the table."""
    from repro.obs.sinks import aggregate_trace

    rows = []
    for row in aggregate_trace(events):
        name = row["name"]
        if name in _HARNESS_SPANS or name == f"bench.{scenario_name}":
            continue
        rows.append({
            "name": name,
            "count": row["count"],
            "self_seconds": row["self_seconds"],
            "wall_seconds": row["wall_seconds"],
        })
    return rows


def _memory_section(
    monitor, alloc_samples: Sequence[Optional[int]], gc_before: dict
) -> dict:
    """Fold one scenario's per-repetition allocation peaks and the
    monitor's GC delta into the additive ``memory`` result section."""
    alloc = [int(s) for s in alloc_samples if s is not None]
    gc_after = monitor.gc_snapshot()
    return {
        "peak_rss_bytes": monitor.peak_rss(),
        "alloc_per_rep_bytes": alloc,
        "alloc_peak_bytes": max(alloc) if alloc else None,
        "alloc_median_bytes": (
            float(statistics.median(alloc)) if alloc else None
        ),
        "alloc_stddev_bytes": (
            float(statistics.stdev(alloc)) if len(alloc) > 1 else 0.0
        ),
        "gc_collections": (
            gc_after["collections"] - gc_before["collections"]
        ),
        "gc_pause_seconds_total": (
            gc_after["pause_seconds_total"]
            - gc_before["pause_seconds_total"]
        ),
    }


def run_scenario(
    scenario: Scenario | str,
    *,
    warmup: int = 1,
    repetitions: int = 5,
    clock: Callable[[], float] = time.perf_counter,
    span_table: bool = False,
    memory: bool = False,
    monitor=None,
) -> dict:
    """Build and time one scenario: ``warmup`` untimed runs, then
    ``repetitions`` timed ones.  The whole scenario runs under a root
    ``bench.<name>`` span (one ``repetition`` child per timed run), so
    ``--trace`` shows exactly what was measured.

    With ``span_table=True`` the timed repetitions are additionally
    tapped with a :class:`~repro.obs.sinks.CollectingSink` and the
    result grows a ``spans`` table — per-span-name occurrence counts
    and summed self/wall seconds, the raw material
    :func:`attribute_benchmarks` joins across two payloads.  If no real
    tracer is installed a local one is, scoped to this scenario, so
    ``--attribute`` payloads don't require ``--trace``.

    With ``memory=True`` (or an explicit ``monitor``) the result grows
    an additive ``memory`` section: peak RSS, per-repetition tracemalloc
    allocation peaks with median/stddev, and the GC collections/pauses
    charged to this scenario.  A supplied ``monitor`` is assumed already
    started (``repro bench --mem`` shares one across scenarios so
    ``--mem-json`` also captures section attribution); with ``memory=True``
    alone a scenario-scoped :class:`~repro.obs.resources.ResourceMonitor`
    is started and stopped here.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if repetitions < 1:
        raise BenchError("repetitions must be >= 1")
    from contextlib import ExitStack

    from repro.obs.sinks import CollectingSink

    sink: Optional[CollectingSink] = None
    with ExitStack() as stack:
        if memory and monitor is None:
            from repro.obs.resources import ResourceMonitor

            monitor = stack.enter_context(ResourceMonitor())
        gc_before = monitor.gc_snapshot() if monitor is not None else None
        alloc_samples: list[Optional[int]] = []
        tracer = get_tracer()
        if span_table:
            sink = CollectingSink()
            sink.enabled = False
            if isinstance(tracer, Tracer):
                tracer.add_sink(sink)
                stack.callback(tracer.remove_sink, sink)
            else:
                tracer = stack.enter_context(
                    installed_tracer(Tracer(sinks=(sink,)))
                )
        samples: list[float] = []
        counters: dict = {}
        with tracer.span(
            f"bench.{scenario.name}", kind=scenario.kind
        ) as root:
            op = scenario.build()
            for _ in range(max(0, warmup)):
                with tracer.span("warmup"):
                    op()
            if sink is not None:
                sink.enabled = True
            for index in range(repetitions):
                if monitor is not None:
                    monitor.begin_sample()
                with tracer.span("repetition", index=index):
                    start = clock()
                    returned = op()
                    samples.append(clock() - start)
                if monitor is not None:
                    alloc_samples.append(monitor.end_sample())
                if returned:
                    counters = returned
            if sink is not None:
                # Stop collecting before the root closes so the bench.*
                # span never reaches the table even via other sinks.
                sink.enabled = False
            root.count("repetitions", repetitions)
    return scenario_result_from_samples(
        scenario.name, scenario.kind, samples,
        counters=counters,
        warmup=max(0, warmup),
        spans=(
            None if sink is None else _span_table(sink.events, scenario.name)
        ),
        memory=(
            None if monitor is None
            else _memory_section(monitor, alloc_samples, gc_before)
        ),
    )


def run_scenarios(
    scenarios: Sequence[Scenario | str],
    *,
    warmup: int = 1,
    repetitions: int = 5,
    clock: Callable[[], float] = time.perf_counter,
    progress: Optional[Callable[[str], None]] = None,
    span_table: bool = False,
    memory: bool = False,
    monitor=None,
) -> list[dict]:
    """Run every scenario in order; results keep the given order."""
    results: list[dict] = []
    for scenario in scenarios:
        name = scenario if isinstance(scenario, str) else scenario.name
        if progress is not None:
            progress(f"bench: {name}")
        results.append(
            run_scenario(
                scenario, warmup=warmup, repetitions=repetitions,
                clock=clock, span_table=span_table,
                memory=memory, monitor=monitor,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Payload
# ---------------------------------------------------------------------------


def bench_payload(
    results: Sequence[dict],
    *,
    suite: Optional[str],
    warmup: int,
    repetitions: int,
    fingerprint: Optional[dict] = None,
    created_utc: Optional[str] = None,
) -> dict:
    """The schema-versioned JSON form of one bench run."""
    return {
        **codec.envelope(
            BENCH_SCHEMA, "bench",
            fingerprint=fingerprint, created_utc=created_utc,
        ),
        "suite": suite,
        "warmup": warmup,
        "repetitions": repetitions,
        "scenarios": list(results),
    }


_SCENARIO_NUMBER_KEYS = (
    "min_seconds", "median_seconds", "mean_seconds", "stddev_seconds",
)


def validate_bench(payload: dict) -> dict:
    """Raise :class:`BenchError` unless ``payload`` is a well-formed
    bench document (the schema in ``docs/BENCHMARKS.md``); returns it."""
    codec.check_envelope(payload, BENCH_SCHEMA, "bench", BenchError)
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise BenchError("scenarios must be a non-empty list")
    seen: set[str] = set()
    for entry in scenarios:
        if not isinstance(entry, dict):
            raise BenchError("each scenario must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise BenchError("scenario needs a non-empty name")
        if name in seen:
            raise BenchError(f"duplicate scenario {name!r}")
        seen.add(name)
        if entry.get("kind") not in KINDS:
            raise BenchError(
                f"scenario {name!r}: unknown kind {entry.get('kind')!r}"
            )
        samples = entry.get("samples_seconds")
        if (
            not isinstance(samples, list)
            or not samples
            or not all(isinstance(s, (int, float)) for s in samples)
        ):
            raise BenchError(
                f"scenario {name!r}: samples_seconds must be a non-empty "
                f"list of numbers"
            )
        if entry.get("repetitions") != len(samples):
            raise BenchError(
                f"scenario {name!r}: repetitions must equal "
                f"len(samples_seconds)"
            )
        for key in _SCENARIO_NUMBER_KEYS:
            if not isinstance(entry.get(key), (int, float)):
                raise BenchError(f"scenario {name!r}: {key} must be a number")
        if not isinstance(entry.get("counters"), dict):
            raise BenchError(f"scenario {name!r}: counters must be an object")
        spans = entry.get("spans")
        if spans is not None:
            # Optional, additive: payloads without span tables stay valid.
            if not isinstance(spans, list):
                raise BenchError(f"scenario {name!r}: spans must be a list")
            for span in spans:
                if not isinstance(span, dict) or not isinstance(
                    span.get("name"), str
                ):
                    raise BenchError(
                        f"scenario {name!r}: each span row needs a name"
                    )
                if not isinstance(span.get("count"), int):
                    raise BenchError(
                        f"scenario {name!r}: span "
                        f"{span.get('name')!r}: count must be an int"
                    )
                for key in ("self_seconds", "wall_seconds"):
                    if not isinstance(span.get(key), (int, float)):
                        raise BenchError(
                            f"scenario {name!r}: span {span['name']!r}: "
                            f"{key} must be a number"
                        )
        memory = entry.get("memory")
        if memory is not None:
            # Optional, additive (like spans): payloads measured before
            # memory telemetry existed stay valid and compare time-only.
            _validate_memory_section(name, memory)
    return payload


def _validate_memory_section(name: str, memory) -> None:
    if not isinstance(memory, dict):
        raise BenchError(f"scenario {name!r}: memory must be an object")
    for key in ("peak_rss_bytes", "alloc_peak_bytes"):
        value = memory.get(key)
        if value is not None and (not isinstance(value, int) or value < 0):
            raise BenchError(
                f"scenario {name!r}: memory.{key} must be a non-negative "
                f"int or null"
            )
    per_rep = memory.get("alloc_per_rep_bytes")
    if not isinstance(per_rep, list) or not all(
        isinstance(s, int) and s >= 0 for s in per_rep
    ):
        raise BenchError(
            f"scenario {name!r}: memory.alloc_per_rep_bytes must be a "
            f"list of non-negative ints"
        )
    median = memory.get("alloc_median_bytes")
    if per_rep:
        if not isinstance(median, (int, float)) or median < 0:
            raise BenchError(
                f"scenario {name!r}: memory.alloc_median_bytes must be a "
                f"non-negative number"
            )
    elif median is not None:
        raise BenchError(
            f"scenario {name!r}: memory.alloc_median_bytes must be null "
            f"without per-rep samples"
        )
    stddev = memory.get("alloc_stddev_bytes")
    if not isinstance(stddev, (int, float)) or stddev < 0:
        raise BenchError(
            f"scenario {name!r}: memory.alloc_stddev_bytes must be a "
            f"non-negative number"
        )
    if not isinstance(memory.get("gc_collections"), int) \
            or memory["gc_collections"] < 0:
        raise BenchError(
            f"scenario {name!r}: memory.gc_collections must be a "
            f"non-negative int"
        )
    pause = memory.get("gc_pause_seconds_total")
    if not isinstance(pause, (int, float)) or pause < 0:
        raise BenchError(
            f"scenario {name!r}: memory.gc_pause_seconds_total must be a "
            f"non-negative number"
        )


def read_bench(path: str | Path) -> dict:
    """Parse and validate one BENCH json file."""
    return codec.read_payload(path, validate_bench, BenchError)


dumps_bench = codec.dumps_payload


def write_bench(payload: dict, path: str | Path | None = None) -> Path:
    """Write ``payload`` to ``path``, defaulting to
    ``BENCH_<UTCSTAMP>.json`` in the current directory."""
    return codec.write_payload(payload, path, "BENCH")


# ---------------------------------------------------------------------------
# Comparator — the regression gate
# ---------------------------------------------------------------------------


def judge_shift(
    old: float, new: float, noise: float, threshold_pct: float
) -> tuple[Optional[float], str]:
    """The gate's rule for one pair of medians: a shift is meaningful
    only when it exceeds ``noise``, and a meaningful shift beyond
    ±``threshold_pct`` is a regression (larger) or an improvement
    (smaller).  Returns ``(delta_pct, status)``; on a zero baseline
    ``delta_pct`` is None and any meaningful nonzero value regresses."""
    meaningful = abs(new - old) > noise
    if old <= 0:
        return None, REGRESSION if meaningful and new > 0 else WITHIN_NOISE
    delta_pct = (new - old) / old * 100.0
    if meaningful and delta_pct > threshold_pct:
        return delta_pct, REGRESSION
    if meaningful and delta_pct < -threshold_pct:
        return delta_pct, IMPROVEMENT
    return delta_pct, WITHIN_NOISE


def compare_benchmarks(
    old: dict, new: dict, threshold_pct: float = 10.0
) -> dict:
    """Compare two bench payloads scenario by scenario.

    A median shift is *meaningful* only when its magnitude exceeds the
    combined sample noise (``stddev_old + stddev_new``); a meaningful
    shift beyond ``threshold_pct`` is a regression (slower) or an
    improvement (faster), anything else is within noise.  Scenarios the
    baseline has but the new run lacks are ``missing`` — the gate fails
    on them, because silently dropping coverage must not pass.

    Scenarios carrying a ``memory`` section in *both* payloads are
    additionally judged on their median per-repetition allocation peak,
    under the exact same rule with the noise envelope in bytes
    (``alloc_stddev_bytes`` old + new); memory regressions fail the
    gate like time regressions.  Payloads without memory telemetry
    compare time-only — no error, no memory rows.
    """
    validate_bench(old)
    validate_bench(new)
    if threshold_pct < 0:
        raise BenchError("threshold_pct must be >= 0")
    old_by = {s["name"]: s for s in old["scenarios"]}
    new_by = {s["name"]: s for s in new["scenarios"]}
    rows: list[dict] = []
    for name in sorted(old_by):
        old_s = old_by[name]
        row = {
            "name": name,
            "old_median_seconds": old_s["median_seconds"],
            "new_median_seconds": None,
            "delta_pct": None,
            "noise_seconds": None,
            "status": MISSING,
        }
        new_s = new_by.get(name)
        if new_s is not None:
            new_med = float(new_s["median_seconds"])
            noise = float(old_s["stddev_seconds"]) + float(
                new_s["stddev_seconds"]
            )
            delta_pct, status = judge_shift(
                float(old_s["median_seconds"]), new_med, noise, threshold_pct
            )
            row.update(
                new_median_seconds=new_med,
                delta_pct=delta_pct,
                noise_seconds=noise,
                status=status,
            )
        rows.append(row)
    for name in sorted(set(new_by) - set(old_by)):
        rows.append({
            "name": name,
            "old_median_seconds": None,
            "new_median_seconds": new_by[name]["median_seconds"],
            "delta_pct": None,
            "noise_seconds": None,
            "status": ADDED,
        })
    regressions = [r["name"] for r in rows if r["status"] == REGRESSION]
    improvements = [r["name"] for r in rows if r["status"] == IMPROVEMENT]
    missing = [r["name"] for r in rows if r["status"] == MISSING]
    memory_rows = _compare_memory(old_by, new_by, float(threshold_pct))
    memory_regressions = [
        r["name"] for r in memory_rows if r["status"] == REGRESSION
    ]
    return {
        "threshold_pct": float(threshold_pct),
        "rows": rows,
        "regressions": regressions,
        "improvements": improvements,
        "missing": missing,
        "added": [r["name"] for r in rows if r["status"] == ADDED],
        "memory_rows": memory_rows,
        "memory_regressions": memory_regressions,
        "memory_improvements": [
            r["name"] for r in memory_rows if r["status"] == IMPROVEMENT
        ],
        "ok": not regressions and not missing and not memory_regressions,
    }


def _compare_memory(
    old_by: dict, new_by: dict, threshold_pct: float
) -> list[dict]:
    """Memory comparison rows for scenarios whose *both* sides carry a
    ``memory`` section with allocation samples — the same meaningful-
    shift rule as the time gate, with the noise envelope in bytes."""
    rows: list[dict] = []
    for name in sorted(set(old_by) & set(new_by)):
        old_m = old_by[name].get("memory")
        new_m = new_by[name].get("memory")
        if not isinstance(old_m, dict) or not isinstance(new_m, dict):
            continue
        old_med = old_m.get("alloc_median_bytes")
        new_med = new_m.get("alloc_median_bytes")
        if old_med is None or new_med is None:
            continue
        old_med, new_med = float(old_med), float(new_med)
        noise = float(old_m.get("alloc_stddev_bytes", 0.0)) + float(
            new_m.get("alloc_stddev_bytes", 0.0)
        )
        delta_pct, status = judge_shift(old_med, new_med, noise, threshold_pct)
        rows.append({
            "name": name,
            "old_alloc_median_bytes": old_med,
            "new_alloc_median_bytes": new_med,
            "old_peak_rss_bytes": old_m.get("peak_rss_bytes"),
            "new_peak_rss_bytes": new_m.get("peak_rss_bytes"),
            "delta_pct": delta_pct,
            "noise_bytes": noise,
            "status": status,
        })
    return rows


# ---------------------------------------------------------------------------
# Span-diff attribution
# ---------------------------------------------------------------------------


def attribute_benchmarks(
    old: dict, new: dict, *, threshold_pct: float = 10.0
) -> dict:
    """Attribute each scenario's median shift to the spans that moved.

    Joins two bench payloads carrying per-scenario ``spans`` tables
    (``repro bench --spans``, or :func:`run_scenario` with
    ``span_table=True``).  Span self times are normalized to
    per-repetition seconds before differencing, so payloads measured
    with different repetition counts still compare.  A span's shift is
    kept only when its magnitude exceeds the scenario's combined sample
    noise (``stddev_old + stddev_new`` — the ``--compare`` envelope);
    surviving spans are ranked by absolute shift, largest first, with
    ties broken by name, so the output is deterministic.  This ranking
    is the evidence the ROADMAP's 10x backend claim will be judged by.
    """
    comparison = compare_benchmarks(old, new, threshold_pct=threshold_pct)
    status_by = {row["name"]: row for row in comparison["rows"]}
    old_by = {s["name"]: s for s in old["scenarios"]}
    new_by = {s["name"]: s for s in new["scenarios"]}
    scenarios: list[dict] = []
    unattributed: list[str] = []
    for name in sorted(set(old_by) & set(new_by)):
        old_s, new_s = old_by[name], new_by[name]
        if old_s.get("spans") is None or new_s.get("spans") is None:
            unattributed.append(name)
            continue
        old_reps = max(1, int(old_s["repetitions"]))
        new_reps = max(1, int(new_s["repetitions"]))
        old_self = {
            row["name"]: float(row["self_seconds"]) / old_reps
            for row in old_s["spans"]
        }
        new_self = {
            row["name"]: float(row["self_seconds"]) / new_reps
            for row in new_s["spans"]
        }
        noise = float(old_s["stddev_seconds"]) + float(
            new_s["stddev_seconds"]
        )
        delta_median = float(new_s["median_seconds"]) - float(
            old_s["median_seconds"]
        )
        rows: list[dict] = []
        excluded = 0
        for span_name in sorted(set(old_self) | set(new_self)):
            old_sec = old_self.get(span_name, 0.0)
            new_sec = new_self.get(span_name, 0.0)
            delta = new_sec - old_sec
            # Floor the envelope at 1ns/rep: a zero-stddev payload pair
            # must not attribute float rounding residue as a shift.
            if abs(delta) <= max(noise, 1e-9):
                excluded += 1
                continue
            rows.append({
                "name": span_name,
                "old_self_seconds": old_sec,
                "new_self_seconds": new_sec,
                "delta_seconds": delta,
                "share_pct": (
                    delta / delta_median * 100.0 if delta_median != 0 else None
                ),
            })
        rows.sort(key=lambda r: (-abs(r["delta_seconds"]), r["name"]))
        scenarios.append({
            "name": name,
            "status": status_by[name]["status"],
            "old_median_seconds": float(old_s["median_seconds"]),
            "new_median_seconds": float(new_s["median_seconds"]),
            "delta_seconds": delta_median,
            "delta_pct": status_by[name]["delta_pct"],
            "noise_seconds": noise,
            "spans": rows,
            "excluded_within_noise": excluded,
        })
    return {
        "threshold_pct": float(threshold_pct),
        "scenarios": scenarios,
        "unattributed": unattributed,
        "missing": comparison["missing"],
        "added": comparison["added"],
    }


def format_attribution(attribution: dict) -> str:
    """Human rendering of one attribution document, deterministic."""
    lines: list[str] = []
    for scenario in attribution["scenarios"]:
        delta = (
            f"{scenario['delta_pct']:+.1f}%"
            if scenario["delta_pct"] is not None else "n/a"
        )
        lines.append(
            f"{scenario['name']}: {_ms(scenario['old_median_seconds']).strip()}"
            f" -> {_ms(scenario['new_median_seconds']).strip()} ms "
            f"({delta}, {scenario['status']})"
        )
        if not scenario["spans"]:
            lines.append(
                "  (no span shifted beyond the noise envelope; "
                f"{scenario['excluded_within_noise']} within noise)"
            )
            continue
        width = max(len(row["name"]) for row in scenario["spans"])
        for rank, row in enumerate(scenario["spans"], start=1):
            share = (
                f"{row['share_pct']:+6.1f}% of shift"
                if row["share_pct"] is not None else "   n/a"
            )
            lines.append(
                f"  #{rank} {row['name']:<{width}} "
                f"{row['old_self_seconds'] * 1000.0:9.2f} -> "
                f"{row['new_self_seconds'] * 1000.0:9.2f} ms/rep "
                f"({row['delta_seconds'] * 1000.0:+9.2f})  {share}"
            )
        if scenario["excluded_within_noise"]:
            lines.append(
                f"  ({scenario['excluded_within_noise']} span(s) within "
                f"the ±{scenario['noise_seconds'] * 1000.0:.2f} ms noise "
                f"envelope excluded)"
            )
    for label, names in (
        ("no span table (rerun with --spans)", attribution["unattributed"]),
        ("missing from new run", attribution["missing"]),
        ("added in new run", attribution["added"]),
    ):
        if names:
            lines.append(f"// {label}: {', '.join(names)}")
    if not attribution["scenarios"]:
        lines.append("// no scenario carried span tables in both payloads")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _ms(seconds: Optional[float]) -> str:
    return "        -" if seconds is None else f"{seconds * 1000.0:9.2f}"


def _kib(value) -> str:
    return "        -" if value is None else f"{value / 1024.0:9.1f}"


def format_bench_table(payload: dict) -> str:
    """Human rendering of one bench payload, deterministic layout.
    Memory columns (median alloc peak per rep, process peak RSS) appear
    only when at least one scenario carries a ``memory`` section, so
    time-only payloads render byte-identically to older builds."""
    scenarios = payload["scenarios"]
    with_memory = any(s.get("memory") for s in scenarios)
    width = max([len("scenario")] + [len(s["name"]) for s in scenarios])
    memory_head = f" {'alloc KiB':>9} {'rss MiB':>8}" if with_memory else ""
    lines = [
        f"{'scenario':<{width}} {'reps':>4} {'min ms':>9} {'median ms':>9} "
        f"{'mean ms':>9} {'stddev ms':>9}{memory_head}  counters"
    ]
    for entry in scenarios:
        counters = ", ".join(
            f"{key}={_render_count(value)}"
            for key, value in sorted(entry["counters"].items())
        )
        memory_cells = ""
        if with_memory:
            memory = entry.get("memory") or {}
            rss = memory.get("peak_rss_bytes")
            rss_text = (
                "       -" if rss is None else f"{rss / 1048576.0:8.1f}"
            )
            memory_cells = (
                f" {_kib(memory.get('alloc_median_bytes'))} {rss_text}"
            )
        lines.append(
            f"{entry['name']:<{width}} {entry['repetitions']:4d} "
            f"{_ms(entry['min_seconds'])} {_ms(entry['median_seconds'])} "
            f"{_ms(entry['mean_seconds'])} {_ms(entry['stddev_seconds'])}"
            f"{memory_cells}  {counters}"
        )
    return "\n".join(lines)


def _render_count(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.6g}"


def format_comparison(comparison: dict) -> str:
    """Human rendering of one comparison, deterministic layout."""
    rows = comparison["rows"]
    width = max([len("scenario")] + [len(r["name"]) for r in rows])
    lines = [
        f"{'scenario':<{width}} {'old ms':>9} {'new ms':>9} {'delta':>8}  "
        f"status"
    ]
    for row in rows:
        delta = (
            f"{row['delta_pct']:+7.1f}%" if row["delta_pct"] is not None
            else "       -"
        )
        lines.append(
            f"{row['name']:<{width}} {_ms(row['old_median_seconds'])} "
            f"{_ms(row['new_median_seconds'])} {delta}  {row['status']}"
        )
    lines.append(
        f"// threshold ±{comparison['threshold_pct']:g}%: "
        f"{len(comparison['regressions'])} regression(s), "
        f"{len(comparison['improvements'])} improvement(s), "
        f"{len(comparison['missing'])} missing, "
        f"{len(comparison['added'])} added"
    )
    # Name the symmetric difference outright — "1 missing" alone sends
    # the reader diffing two JSON files to learn which scenario vanished.
    if comparison["missing"]:
        lines.append(
            f"// missing from new run: {', '.join(comparison['missing'])}"
        )
    if comparison["added"]:
        lines.append(
            f"// added in new run: {', '.join(comparison['added'])}"
        )
    memory_rows = comparison.get("memory_rows") or []
    if memory_rows:
        width = max(
            [len("scenario")] + [len(r["name"]) for r in memory_rows]
        )
        lines.append(
            f"{'scenario':<{width}} {'old KiB':>9} {'new KiB':>9} "
            f"{'delta':>8}  memory status"
        )
        for row in memory_rows:
            delta = (
                f"{row['delta_pct']:+7.1f}%"
                if row["delta_pct"] is not None else "       -"
            )
            lines.append(
                f"{row['name']:<{width}} "
                f"{row['old_alloc_median_bytes'] / 1024.0:9.1f} "
                f"{row['new_alloc_median_bytes'] / 1024.0:9.1f} "
                f"{delta}  {row['status']}"
            )
        lines.append(
            f"// memory (median alloc peak/rep, same ±"
            f"{comparison['threshold_pct']:g}% + byte-noise envelope): "
            f"{len(comparison.get('memory_regressions') or [])} "
            f"regression(s), "
            f"{len(comparison.get('memory_improvements') or [])} "
            f"improvement(s)"
        )
    return "\n".join(lines)
