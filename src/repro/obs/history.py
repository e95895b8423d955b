"""Bench history store: the longitudinal perf trajectory.

``repro bench`` writes one ``BENCH_<UTCSTAMP>.json`` per run;
``--compare`` gates one *pair* of runs.  This module aggregates a whole
directory of payloads (``benchmarks/history/`` in this repo, appended
by the CI bench-smoke job) into per-scenario trend series and runs a
noise-aware changepoint detector over them — the evidence record for
"did that backend actually get 10x faster, and when did it regress".

Series are keyed by ``(scenario, environment)``: payloads measured on a
different interpreter/platform/machine are a different series, never
mixed into one line (:func:`env_key` fingerprints everything except the
git sha, which is what *varies along* a series).

The changepoint rule reuses the ``--compare`` stddev envelope: within a
segment, each new point is compared against the segment's median of
medians; a shift is a changepoint only when it exceeds the noise
envelope (segment median stddev + the point's own stddev) *and* the
percentage threshold.  A changepoint starts a new segment, so a step
change is reported once, not on every subsequent point.

Ingestion is robust by design: a crash-torn, wrong-schema, or
non-bench JSON file in the history directory is *skipped* with a
``bench.history.skipped`` warn event and a :class:`HistoryWarning`
instead of aborting the whole trend — the same tolerance the JSONL
readers give a truncated final line.

Rendered as a table by ``repro bench trend`` and as sparkline panels in
``repro report --html`` (see :mod:`repro.obs.report`); documented in
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import warnings
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.bench import (
    BenchError,
    IMPROVEMENT,
    REGRESSION,
    WITHIN_NOISE,
    judge_shift,
    read_bench,
)
from repro.obs.events import get_event_log

#: Unicode sparkline ramp for the text trend table.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Fingerprint keys that define a series' environment — everything
#: except ``git_sha``, which is the axis a series varies along.
ENV_KEYS = ("python", "implementation", "platform", "machine", "cpu_count")


class HistoryWarning(UserWarning):
    """A file in the bench history directory was skipped (torn JSON,
    wrong schema, not a bench payload) — reported, never fatal."""


def env_key(fingerprint: dict) -> str:
    """A short stable digest of the measurement environment, used to
    split trend series so cross-machine payloads never mix."""
    material = json.dumps(
        {key: fingerprint.get(key) for key in ENV_KEYS}, sort_keys=True
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def load_history(
    directory: str | Path, *, pattern: str = "*.json"
) -> tuple[list[tuple[str, dict]], list[dict]]:
    """Read every bench payload under ``directory``.

    Returns ``(payloads, skipped)``: ``payloads`` is a list of
    ``(filename, payload)`` pairs in trend order (``created_utc``, then
    filename, so two runs in the same second still order
    deterministically); ``skipped`` records each unreadable file with
    its reason.  Skips are surfaced as a warn-level
    ``bench.history.skipped`` event and a :class:`HistoryWarning` —
    one torn file must not take down the whole trajectory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise BenchError(f"{directory}: not a directory")
    payloads: list[tuple[str, dict]] = []
    skipped: list[dict] = []
    for path in sorted(directory.glob(pattern)):
        if not path.is_file():
            continue
        try:
            payloads.append((path.name, read_bench(path)))
        except (BenchError, OSError, UnicodeDecodeError) as exc:
            reason = str(exc)
            skipped.append({"file": path.name, "reason": reason})
            get_event_log().emit(
                "bench.history.skipped",
                "unreadable bench payload skipped",
                level="warn",
                file=path.name,
                reason=reason,
            )
            warnings.warn(
                f"{path}: skipping unreadable bench payload: {reason}",
                HistoryWarning,
                stacklevel=2,
            )
    payloads.sort(key=lambda item: (item[1]["created_utc"], item[0]))
    return payloads, skipped


# ---------------------------------------------------------------------------
# Trend series and changepoints
# ---------------------------------------------------------------------------


def trend_series(payloads: Sequence[tuple[str, dict]]) -> list[dict]:
    """Fold payloads into per-``(scenario, environment)`` series, each a
    chronological list of points.  Series come back sorted by scenario
    name then environment key — deterministic for identical inputs."""
    series: dict[tuple[str, str], dict] = {}
    for filename, payload in payloads:
        fingerprint = payload["fingerprint"]
        key_env = env_key(fingerprint)
        for scenario in payload["scenarios"]:
            key = (scenario["name"], key_env)
            entry = series.setdefault(
                key,
                {
                    "scenario": scenario["name"],
                    "kind": scenario["kind"],
                    "env": key_env,
                    "points": [],
                },
            )
            memory = scenario.get("memory") or {}
            alloc_median = memory.get("alloc_median_bytes")
            entry["points"].append({
                "file": filename,
                "created_utc": payload["created_utc"],
                "git_sha": fingerprint.get("git_sha"),
                "median_seconds": float(scenario["median_seconds"]),
                "stddev_seconds": float(scenario["stddev_seconds"]),
                "repetitions": int(scenario["repetitions"]),
                # Memory telemetry (PR 10) is additive: points from
                # payloads without a memory section carry nulls.
                "alloc_median_bytes": (
                    None if alloc_median is None else float(alloc_median)
                ),
                "alloc_stddev_bytes": float(
                    memory.get("alloc_stddev_bytes") or 0.0
                ),
                "peak_rss_bytes": memory.get("peak_rss_bytes"),
            })
    return [series[key] for key in sorted(series)]


def detect_changepoints(
    points: Sequence[dict],
    *,
    threshold_pct: float = 10.0,
    value_key: str = "median_seconds",
    noise_key: str = "stddev_seconds",
) -> list[dict]:
    """Changepoints in one chronological point series.

    Segment-based: each point is judged against the *current segment*
    (every point since the last changepoint) — shift beyond the noise
    envelope (median segment stddev + the point's stddev) **and**
    beyond ``threshold_pct`` of the segment median, judged by the
    ``--compare`` gate's :func:`~repro.obs.bench.judge_shift`.  A
    detected changepoint starts a new segment at that point.

    ``value_key``/``noise_key`` select the judged metric: the defaults
    give the wall-time trend, and the memory trend runs the same
    detector over ``alloc_median_bytes``/``alloc_stddev_bytes`` — one
    rule, two units.  The emitted ``baseline_median_seconds``/
    ``median_seconds``/``noise_seconds`` fields carry whichever metric
    was judged.
    """
    if threshold_pct < 0:
        raise BenchError("threshold_pct must be >= 0")
    changepoints: list[dict] = []
    segment_start = 0
    for index in range(1, len(points)):
        segment = points[segment_start:index]
        base_median = statistics.median(
            p[value_key] for p in segment
        )
        base_noise = statistics.median(
            p[noise_key] for p in segment
        )
        point = points[index]
        noise = base_noise + point[noise_key]
        if base_median <= 0:
            continue
        delta_pct, status = judge_shift(
            base_median, point[value_key], noise, threshold_pct
        )
        if status != WITHIN_NOISE:
            changepoints.append({
                "index": index,
                "file": point["file"],
                "created_utc": point["created_utc"],
                "git_sha": point.get("git_sha"),
                "direction": status,
                "delta_pct": delta_pct,
                "baseline_median_seconds": base_median,
                "median_seconds": point[value_key],
                "noise_seconds": noise,
            })
            segment_start = index
    return changepoints


def bench_trend(
    directory: str | Path,
    *,
    threshold_pct: float = 10.0,
    pattern: str = "*.json",
    scenarios: Optional[Sequence[str]] = None,
) -> dict:
    """The full trend document over a history directory: every series
    with its changepoints (time, and memory where points carry
    allocation telemetry), plus the skip record.  ``scenarios`` filters
    the series to the named scenarios (``repro bench trend --scenario``)
    — unknown names raise, so a typo cannot read as "no data"."""
    payloads, skipped = load_history(directory, pattern=pattern)
    series = trend_series(payloads)
    if scenarios:
        wanted = set(scenarios)
        known = {entry["scenario"] for entry in series}
        unknown = sorted(wanted - known)
        if unknown:
            raise BenchError(
                f"no history for scenario(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(known)) or '(none)'}"
            )
        series = [e for e in series if e["scenario"] in wanted]
    for entry in series:
        points = entry["points"]
        entry["changepoints"] = detect_changepoints(
            points, threshold_pct=threshold_pct
        )
        first = points[0]["median_seconds"]
        last = points[-1]["median_seconds"]
        entry["net_delta_pct"] = (
            (last - first) / first * 100.0 if first > 0 else None
        )
        # The memory trend: the same detector over the subseries of
        # points that carry allocation telemetry, changepoint indexes
        # mapped back to positions in the full point list.
        mem_indexed = [
            (index, p) for index, p in enumerate(points)
            if p.get("alloc_median_bytes") is not None
        ]
        mem_points = [p for _, p in mem_indexed]
        memory_changepoints = detect_changepoints(
            mem_points,
            threshold_pct=threshold_pct,
            value_key="alloc_median_bytes",
            noise_key="alloc_stddev_bytes",
        )
        for cp in memory_changepoints:
            cp["index"] = mem_indexed[cp["index"]][0]
        entry["memory_changepoints"] = memory_changepoints
        entry["memory_points"] = len(mem_points)
        if mem_points:
            first_mem = mem_points[0]["alloc_median_bytes"]
            last_mem = mem_points[-1]["alloc_median_bytes"]
            entry["net_memory_delta_pct"] = (
                (last_mem - first_mem) / first_mem * 100.0
                if first_mem > 0 else None
            )
        else:
            entry["net_memory_delta_pct"] = None
    return {
        "threshold_pct": float(threshold_pct),
        "payloads": len(payloads),
        "files": [filename for filename, _ in payloads],
        "skipped": skipped,
        "series": series,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def sparkline(values: Sequence[float]) -> str:
    """A fixed-alphabet unicode sparkline: min→``▁``, max→``█``; a flat
    series renders mid-ramp so it reads as "no movement"."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return SPARK_BLOCKS[3] * len(values)
    span = high - low
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[round((value - low) / span * top)] for value in values
    )


def _mark_changepoints(changepoints: list[dict]) -> str:
    return " ".join(
        f"i{cp['index']}:{cp['delta_pct']:+.1f}%" for cp in changepoints
    ) or "-"


def format_trend_table(trend: dict) -> str:
    """Deterministic text rendering of one trend document: one row per
    series with a sparkline of medians and its changepoints marked.
    When any series carries memory telemetry, a memory sparkline column
    (median alloc peak per rep) is appended — time-only histories keep
    the original layout byte for byte."""
    series = trend["series"]
    if not series:
        return "// no bench payloads in the history directory"
    with_memory = any(s.get("memory_points") for s in series)
    width = max([len("scenario")] + [len(s["scenario"]) for s in series])
    memory_head = "  mem trend   mem changepoints" if with_memory else ""
    lines = [
        f"{'scenario':<{width}} {'env':<12} {'n':>3} {'first ms':>9} "
        f"{'last ms':>9} {'net':>8}  trend       changepoints"
        f"{memory_head}"
    ]
    for entry in series:
        points = entry["points"]
        medians = [p["median_seconds"] for p in points]
        net = entry["net_delta_pct"]
        net_text = f"{net:+7.1f}%" if net is not None else "       -"
        memory_cells = ""
        if with_memory:
            allocs = [
                p["alloc_median_bytes"] for p in points
                if p.get("alloc_median_bytes") is not None
            ]
            memory_cells = (
                f"  {sparkline(allocs) or '-':<11} "
                f"{_mark_changepoints(entry.get('memory_changepoints', []))}"
            )
        lines.append(
            f"{entry['scenario']:<{width}} {entry['env']:<12} "
            f"{len(points):3d} {medians[0] * 1000.0:9.2f} "
            f"{medians[-1] * 1000.0:9.2f} {net_text}  "
            f"{sparkline(medians):<11} "
            f"{_mark_changepoints(entry['changepoints'])}"
            f"{memory_cells}"
        )
    regressions = sum(
        1 for s in series for cp in s["changepoints"]
        if cp["direction"] == REGRESSION
    )
    improvements = sum(
        1 for s in series for cp in s["changepoints"]
        if cp["direction"] == IMPROVEMENT
    )
    lines.append(
        f"// {trend['payloads']} payload(s), {len(series)} series, "
        f"threshold ±{trend['threshold_pct']:g}%: {regressions} "
        f"regression changepoint(s), {improvements} improvement "
        f"changepoint(s), {len(trend['skipped'])} file(s) skipped"
    )
    if with_memory:
        mem_regressions = sum(
            1 for s in series for cp in s.get("memory_changepoints", [])
            if cp["direction"] == REGRESSION
        )
        mem_improvements = sum(
            1 for s in series for cp in s.get("memory_changepoints", [])
            if cp["direction"] == IMPROVEMENT
        )
        mem_points = sum(s.get("memory_points", 0) for s in series)
        lines.append(
            f"// memory: {mem_points} point(s) with allocation "
            f"telemetry, {mem_regressions} regression changepoint(s), "
            f"{mem_improvements} improvement changepoint(s)"
        )
    return "\n".join(lines)
