"""The ``repro report`` HTML dashboard.

One dependency-free, deterministic, single-file HTML page summarizing a
stabilization campaign: per-trial convergence curves (inline SVG — the
plateau of each curve is the trial's recovery distance in samples),
the shard timeline, verdict and recovery-histogram tables, the tail of
the structured event stream, and — when ``BENCH_*.json`` files are
supplied — the benchmark trend across them.

Determinism is a hard requirement (the golden test in
``tests/obs/test_report.py`` asserts byte equality): the page embeds no
wall-clock timestamp unless the caller passes ``generated_at``, floats
render through one fixed formatter, every iteration order is explicit
(sorted shard ids, manifest app order, input file order), and the CSS
is a static string.  That is also why this module re-derives campaign
summaries from the manifest dict with plain arithmetic instead of
importing :mod:`repro.runtime.campaign` — the report must render
manifests written by *older* code (telemetry-free trial records) and
must stay importable from :mod:`repro.obs` without dragging the runtime
in.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: Bump when the generated page's structure changes incompatibly
#: (embedded as ``data-report-schema`` on ``<body>``).
REPORT_SCHEMA = 1

#: Verdict display order (matches ``runtime.campaign``'s constants
#: without importing them — the report reads manifests, not objects).
_VERDICTS = ("masked", "recovered", "diverged", "timeout", "not-injected")

#: At most this many convergence curves render per app; the rest are
#: counted in a visible note — a silent cap would read as "plotted
#: everything" when it did not.
MAX_CURVES_PER_APP = 24

#: Events shown in the tail table.
EVENT_TAIL = 50

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1b1f23; }
h1, h2, h3 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.75rem 0; font-size: 0.85rem; }
th, td { border: 1px solid #d0d7de; padding: 0.25rem 0.6rem;
         text-align: right; }
th { background: #f6f8fa; }
td.name, th.name { text-align: left; }
.curves { display: flex; flex-wrap: wrap; gap: 0.75rem; }
figure.curve { margin: 0; border: 1px solid #d0d7de; padding: 0.4rem; }
figure.curve figcaption { font-size: 0.75rem; color: #57606a; }
.note { color: #57606a; font-size: 0.85rem; }
svg .convergence { fill: none; stroke: #1a7f37; stroke-width: 1.5; }
svg .divergence { fill: none; stroke: #cf222e; stroke-width: 1.5; }
svg .axis { stroke: #d0d7de; stroke-width: 1; }
svg .track { fill: #f6f8fa; }
svg .cell { fill: #cf222e; }
svg .inject { stroke: #0969da; stroke-dasharray: 2 2; }
svg .bar { fill: #0969da; }
svg .bar.infra-failed { fill: #cf222e; }
svg text { font-size: 9px; fill: #57606a; }
svg .spark { fill: none; stroke: #0969da; stroke-width: 1.5; }
svg .changepoint.regression { fill: #cf222e; stroke: none; }
svg .changepoint.improvement { fill: #1a7f37; stroke: none; }
"""


def _fmt(value) -> str:
    """One fixed rendering per value — the byte-stability choke point."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _esc(value) -> str:
    return html.escape(_fmt(value), quote=True)


def _tag(name: str, body: str, **attrs) -> str:
    rendered = "".join(
        f' {key.replace("_", "-")}="{html.escape(str(val), quote=True)}"'
        for key, val in attrs.items()
        if val is not None
    )
    return f"<{name}{rendered}>{body}</{name}>"


def _table(headers: Sequence[str], rows: Iterable[Sequence], *,
           name_columns: int = 1) -> str:
    def cell(tag: str, index: int, value) -> str:
        css = ' class="name"' if index < name_columns else ""
        return f"<{tag}{css}>{_esc(value)}</{tag}>"

    head = "<tr>" + "".join(
        cell("th", i, h) for i, h in enumerate(headers)
    ) + "</tr>"
    body = "".join(
        "<tr>" + "".join(cell("td", i, v) for i, v in enumerate(row)) + "</tr>"
        for row in rows
    )
    return f"<table>{head}{body}</table>"


def _polyline(series: Sequence[float], *, width: float, height: float,
              top: float, css: str) -> str:
    """Scale ``series`` into the plot box; single points render as a
    short horizontal segment so a one-iteration recovery is visible."""
    peak = max(max(series), 1)
    points = list(series) if len(series) > 1 else [series[0], series[0]]
    step = width / (len(points) - 1)
    coords = " ".join(
        f"{i * step:.2f},{top + height - (value / peak) * height:.2f}"
        for i, value in enumerate(points)
    )
    return f'<polyline class="{css}" points="{coords}" />'


# ---------------------------------------------------------------------------
# Campaign sections
# ---------------------------------------------------------------------------


def _campaign_trials(manifest: dict) -> list[dict]:
    """Completed trial records in deterministic order: sorted shard id,
    then shard-internal order."""
    shards = manifest.get("shards", {})
    trials: list[dict] = []
    for shard_id in sorted(shards):
        record = shards[shard_id]
        if record.get("status") == "done":
            trials.extend(record.get("trials", []))
    return trials


def _config_section(manifest: dict) -> str:
    config = manifest.get("config", {})
    rows = [(key, config[key]) for key in sorted(config)]
    rows.append(("fingerprint", str(manifest.get("fingerprint", ""))[:16]))
    return "<h2>Campaign configuration</h2>" + _table(
        ("parameter", "value"), rows
    )


def _summary_section(manifest: dict, trials: list[dict]) -> str:
    apps = list(manifest.get("config", {}).get("apps", []))
    by_app: dict[str, list[dict]] = {app: [] for app in apps}
    for trial in trials:
        by_app.setdefault(trial["app"], []).append(trial)
    rows = []
    for app in by_app:
        records = by_app[app]
        counts = {v: 0 for v in _VERDICTS}
        for trial in records:
            counts[trial["verdict"]] = counts.get(trial["verdict"], 0) + 1
        injected = len(records) - counts["not-injected"]
        samples = sorted(
            t["recovery_samples"] for t in records
            if t.get("recovery_samples") is not None
        )
        rows.append((
            app, len(records), injected,
            counts["masked"], counts["recovered"], counts["diverged"],
            counts["timeout"],
            samples[len(samples) // 2] if samples else None,
            samples[-1] if samples else None,
        ))
    return "<h2>Verdicts</h2>" + _table(
        ("app", "trials", "injected", "masked", "recovered", "diverged",
         "timeout", "recovery p50", "recovery max"),
        rows,
    )


def _histogram_section(manifest: dict, trials: list[dict]) -> str:
    bin_size = int(manifest.get("config", {}).get("histogram_bin", 8) or 8)
    histogram: dict[str, dict[int, int]] = {}
    for trial in trials:
        samples = trial.get("recovery_samples")
        if samples is None:
            continue
        bucket = (samples // bin_size) * bin_size
        app = histogram.setdefault(trial["app"], {})
        app[bucket] = app.get(bucket, 0) + 1
    if not histogram:
        return ""
    rows = [
        (app, f"[{bucket}, {bucket + bin_size})", count)
        for app in sorted(histogram)
        for bucket, count in sorted(histogram[app].items())
    ]
    return (
        f"<h2>Recovery distance histogram</h2>"
        f'<p class="note">Bin width: {bin_size} output samples.</p>'
        + _table(("app", "samples", "trials"), rows)
    )


def _curve_figure(trial: dict) -> str:
    telemetry = trial.get("telemetry") or {}
    convergence = telemetry.get("convergence")
    divergence = telemetry.get("divergence")
    width, height, top = 150.0, 50.0, 4.0
    lines = [f'<line class="axis" x1="0" y1="{top + height}" '
             f'x2="{width}" y2="{top + height}" />']
    if divergence:
        lines.append(_polyline(
            divergence, width=width, height=height, top=top, css="divergence"
        ))
    if convergence:
        lines.append(_polyline(
            convergence, width=width, height=height, top=top,
            css="convergence",
        ))
    final = convergence[-1] if convergence else None
    svg = _tag(
        "svg", "".join(lines),
        viewBox=f"0 0 {width:g} {height + 2 * top:g}",
        width="150", height="58",
        data_app=trial["app"],
        data_site=trial["site"],
        data_final=final,
        data_recovery_samples=trial.get("recovery_samples"),
    )
    caption = (
        f'site {_esc(trial["site"])} · '
        f'{_esc(trial.get("recovery_samples"))} samples / '
        f'{_esc(trial.get("recovery_iterations"))} iterations'
    )
    return _tag(
        "figure", svg + f"<figcaption>{caption}</figcaption>", **{
            "class": "curve",
        }
    )


def _curves_section(trials: list[dict]) -> str:
    with_curves = [
        t for t in trials if (t.get("telemetry") or {}).get("convergence")
    ]
    if not with_curves:
        return (
            "<h2>Convergence curves</h2>"
            '<p class="note">No recovered trials carry convergence '
            "telemetry (manifest written by a pre-telemetry build?).</p>"
        )
    sections = ["<h2>Convergence curves</h2>",
                '<p class="note">Green: cumulative reference samples '
                "replayed since injection (the plateau is the recovery "
                "distance).  Red: per-iteration divergence-set "
                "size.</p>"]
    by_app: dict[str, list[dict]] = {}
    for trial in with_curves:
        by_app.setdefault(trial["app"], []).append(trial)
    for app in sorted(by_app):
        shown = by_app[app][:MAX_CURVES_PER_APP]
        dropped = len(by_app[app]) - len(shown)
        sections.append(f"<h3>{_esc(app)}</h3>")
        sections.append(_tag(
            "div", "".join(_curve_figure(t) for t in shown), **{
                "class": "curves",
            }
        ))
        if dropped:
            sections.append(
                f'<p class="note">{dropped} more recovered trials not '
                "plotted (cap: "
                f"{MAX_CURVES_PER_APP} curves per app).</p>"
            )
    return "".join(sections)


def _node_figure(trial: dict) -> str:
    """One divergence strip chart: a horizontal track per fabric node,
    fabric rounds left to right, a red cell for every round in which
    that node's committed state differed from the clean reference."""
    matrix = (trial.get("telemetry") or {}).get("node_divergence") or []
    rounds = len(matrix)
    nodes = len(matrix[0]) if matrix else 0
    cell, track_h, gap, label = 5.0, 7.0, 2.0, 26.0
    width = label + rounds * cell
    parts = []
    for i in range(nodes):
        y = i * (track_h + gap)
        parts.append(f'<text x="0" y="{y + track_h - 1:.2f}">n{i}</text>')
        parts.append(
            f'<rect class="track" x="{label:g}" y="{y:.2f}" '
            f'width="{rounds * cell:.2f}" height="{track_h:g}" />'
        )
        for r in range(rounds):
            if matrix[r][i]:
                parts.append(
                    f'<rect class="cell" x="{label + r * cell:.2f}" '
                    f'y="{y:.2f}" width="{cell:g}" height="{track_h:g}" />'
                )
    height = nodes * (track_h + gap)
    injection = trial.get("injection_iteration")
    if injection is not None and rounds:
        x = label + (injection + 0.5) * cell
        parts.append(
            f'<line class="inject" x1="{x:.2f}" y1="0" x2="{x:.2f}" '
            f'y2="{height - gap:.2f}" />'
        )
    svg = _tag(
        "svg", "".join(parts),
        viewBox=f"0 0 {width:g} {height:g}",
        width=f"{width:g}", height=f"{height:g}",
        data_app=trial["app"],
        data_site=trial["site"],
        data_node=trial.get("node"),
        data_nodes=nodes,
        data_rounds=rounds,
    )
    caption = (
        f'site {_esc(trial["site"])} · node {_esc(trial.get("node"))} · '
        f'{_esc(trial["verdict"])}'
    )
    return _tag(
        "figure", svg + f"<figcaption>{caption}</figcaption>", **{
            "class": "curve",
        }
    )


def _nodes_section(trials: list[dict]) -> str:
    """Per-node divergence strips for distributed trials (trials whose
    telemetry carries the ``node_divergence`` matrix)."""
    with_nodes = [
        t for t in trials
        if (t.get("telemetry") or {}).get("node_divergence")
    ]
    if not with_nodes:
        return ""
    sections = [
        "<h2>Per-node divergence</h2>",
        '<p class="note">One strip per fabric node, rounds left to '
        "right; red cells mark rounds where that node's committed state "
        "differs from the clean reference, and the dashed line is the "
        "injection round.</p>",
    ]
    by_app: dict[str, list[dict]] = {}
    for trial in with_nodes:
        by_app.setdefault(trial["app"], []).append(trial)
    for app in sorted(by_app):
        shown = by_app[app][:MAX_CURVES_PER_APP]
        dropped = len(by_app[app]) - len(shown)
        sections.append(f"<h3>{_esc(app)}</h3>")
        sections.append(_tag(
            "div", "".join(_node_figure(t) for t in shown), **{
                "class": "curves",
            }
        ))
        if dropped:
            sections.append(
                f'<p class="note">{dropped} more trials not plotted '
                f"(cap: {MAX_CURVES_PER_APP} strips per app).</p>"
            )
    return "".join(sections)


def _timeline_section(manifest: dict) -> str:
    shards = manifest.get("shards", {})
    if not shards:
        return ""
    rows = []
    for shard_id in sorted(shards):
        record = shards[shard_id]
        obs = record.get("obs", {})
        rss = obs.get("peak_rss_bytes")
        rows.append((
            shard_id,
            record.get("status", "?"),
            obs.get("run_seconds"),
            obs.get("queue_wait_seconds"),
            obs.get("attempts", record.get("attempts")),
            obs.get("timeouts"),
            # Worker-process provenance (distributed tracing, PR 8);
            # manifests from older campaigns simply lack the key.
            obs.get("pid"),
            # Worker peak RSS (memory telemetry, PR 10), MiB.
            None if rss is None else rss / 1048576.0,
        ))
    longest = max(
        (row[2] for row in rows if isinstance(row[2], (int, float))),
        default=0.0,
    ) or 1.0
    bar_height, gap, label_width, bar_width = 12.0, 3.0, 130.0, 320.0
    parts = []
    for index, row in enumerate(rows):
        y = index * (bar_height + gap)
        seconds = row[2] if isinstance(row[2], (int, float)) else longest
        width = max(1.0, bar_width * seconds / longest)
        css = "bar infra-failed" if row[1] == "infra-failed" else "bar"
        parts.append(
            f'<text x="0" y="{y + bar_height - 2:.2f}">{_esc(row[0])}</text>'
            f'<rect class="{css}" x="{label_width:g}" y="{y:.2f}" '
            f'width="{width:.2f}" height="{bar_height:g}" />'
        )
    svg_height = len(rows) * (bar_height + gap)
    svg = _tag(
        "svg", "".join(parts),
        viewBox=f"0 0 {label_width + bar_width:g} {svg_height:g}",
        width=f"{label_width + bar_width:g}", height=f"{svg_height:g}",
        data_shards=len(rows),
    )
    return (
        "<h2>Shard timeline</h2>" + svg + _table(
            ("shard", "status", "run s", "queue s", "attempts", "timeouts",
             "pid", "peak rss MiB"),
            rows, name_columns=2,
        )
    )


# ---------------------------------------------------------------------------
# Events and bench sections
# ---------------------------------------------------------------------------


def _events_section(events: list[dict]) -> str:
    if not events:
        return ""
    counts: dict[tuple[str, str], int] = {}
    for record in events:
        key = (record["name"], record["level"])
        counts[key] = counts.get(key, 0) + 1
    summary = _table(
        ("event", "level", "count"),
        [(name, level, counts[(name, level)])
         for name, level in sorted(counts)],
        name_columns=2,
    )
    tail = events[max(0, len(events) - EVENT_TAIL):]
    tail_table = _table(
        ("seq", "t (s)", "level", "name", "message", "trace", "attrs"),
        [(
            record["seq"], record["time_seconds"], record["level"],
            record["name"], record["message"],
            "" if record["trace_id"] is None
            else f'{record["trace_id"]}/{record["span_id"]}',
            " ".join(
                f"{key}={record['attrs'][key]}"
                for key in sorted(record["attrs"])
            ),
        ) for record in tail],
        name_columns=7,
    )
    return (
        "<h2>Events</h2>" + summary
        + f'<h3>Last {len(tail)} events</h3>' + tail_table
    )


def _chaos_section(events: list[dict]) -> str:
    """The chaos panel: injected-fault and recovery-action summaries,
    from ``chaos.*`` events in the supplied stream.  Empty when no chaos
    events exist, so fault-free reports are byte-identical to builds
    that predate the panel."""
    chaos = [e for e in events if e["name"].startswith("chaos.")]
    if not chaos:
        return ""
    injected: dict[str, int] = {}
    recoveries: dict[tuple[str, str], int] = {}
    oracle_rows: list[tuple] = []
    for record in chaos:
        name = record["name"]
        attrs = record.get("attrs", {})
        if name == "chaos.recovery":
            key = (str(attrs.get("action", "?")), str(attrs.get("site", "?")))
            recoveries[key] = recoveries.get(key, 0) + 1
        elif name == "chaos.oracle":
            oracle_rows.append((
                attrs.get("holds"),
                attrs.get("identical"),
                attrs.get("clean_complete"),
                attrs.get("chaos_complete"),
                attrs.get("infra_failed"),
            ))
        elif "fault" in attrs:
            fault = str(attrs["fault"])
            injected[fault] = injected.get(fault, 0) + 1
    sections = ["<h2>Chaos</h2>"]
    if oracle_rows:
        sections.append(
            '<p class="note">Convergence oracle: a seeded chaos run must '
            "end with statistics identical to the fault-free run.</p>"
        )
        sections.append(_table(
            ("holds", "identical stats", "clean complete", "chaos complete",
             "infra-failed shards"),
            oracle_rows,
            name_columns=0,
        ))
    if injected:
        sections.append("<h3>Injected faults</h3>")
        sections.append(_table(
            ("fault", "count"),
            [(fault, injected[fault]) for fault in sorted(injected)],
        ))
    if recoveries:
        sections.append("<h3>Recovery actions</h3>")
        sections.append(_table(
            ("action", "site", "count"),
            [(action, site, recoveries[(action, site)])
             for action, site in sorted(recoveries)],
            name_columns=2,
        ))
    return "".join(sections)


def _bench_section(benches: list[tuple[str, dict]]) -> str:
    if not benches:
        return ""
    names: list[str] = []
    for _, payload in benches:
        for result in payload.get("scenarios", []):
            if result["name"] not in names:
                names.append(result["name"])
    rows = []
    for name in names:
        row: list[object] = [name]
        for _, payload in benches:
            found = next(
                (r for r in payload.get("scenarios", [])
                 if r["name"] == name),
                None,
            )
            row.append(None if found is None else found["median_seconds"])
        rows.append(tuple(row))
    return "<h2>Benchmark trend</h2>" + _table(
        ("scenario (median s)",) + tuple(label for label, _ in benches),
        rows,
    )


def _memory_section(benches: list[tuple[str, dict]]) -> str:
    """The "Memory" panel: per-scenario allocation and RSS telemetry
    from bench payloads carrying the additive ``memory`` section.
    Empty when no payload has one, so time-only reports stay
    byte-identical to builds that predate memory telemetry."""
    rows = []
    for label, payload in benches:
        for result in payload.get("scenarios", []):
            memory = result.get("memory")
            if not memory:
                continue
            rss = memory.get("peak_rss_bytes")
            alloc_median = memory.get("alloc_median_bytes")
            alloc_peak = memory.get("alloc_peak_bytes")
            rows.append((
                result["name"], label,
                None if alloc_median is None else alloc_median / 1024.0,
                None if alloc_peak is None else alloc_peak / 1024.0,
                None if rss is None else rss / 1048576.0,
                memory.get("gc_collections"),
                None if memory.get("gc_pause_seconds_total") is None
                else memory["gc_pause_seconds_total"] * 1000.0,
            ))
    if not rows:
        return ""
    return (
        "<h2>Memory</h2>"
        '<p class="note">Per-scenario allocation telemetry: median and '
        "max per-repetition tracemalloc peak, process peak RSS at "
        "measurement time, and the GC collections/pauses charged to the "
        "scenario.</p>"
        + _table(
            ("scenario", "payload", "alloc median KiB", "alloc peak KiB",
             "peak RSS MiB", "gc collections", "gc pause ms"),
            rows, name_columns=2,
        )
    )


def _marked(
    points: list[dict], key: str, changepoints: list[dict]
) -> list[tuple[float, Optional[str]]]:
    """The ``key`` values of ``points`` that carry one, each paired with
    the direction of the changepoint at that point (None if none)."""
    direction = {cp["index"]: cp["direction"] for cp in changepoints}
    return [
        (p[key], direction.get(index)) for index, p in enumerate(points)
        if p.get(key) is not None
    ]


def _spark_figure(
    entry: dict,
    series: list[tuple[float, Optional[str]]],
    net: Optional[float],
    **data,
) -> str:
    """One trajectory sparkline for ``entry``'s scenario: the series'
    values left to right, scaled to the data range, with a dot on every
    changepoint (red for a regression step, green for an improvement).
    ``data`` names the point count on the svg."""
    values = [value for value, _ in series]
    width, height, top = 150.0, 40.0, 5.0
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    xs = (
        [width / 2] if len(values) == 1
        else [i * width / (len(values) - 1) for i in range(len(values))]
    )

    def y_of(value: float) -> float:
        return top + height - (value - low) / span * height

    parts = [f'<line class="axis" x1="0" y1="{top + height:g}" '
             f'x2="{width:g}" y2="{top + height:g}" />']
    if len(values) > 1:
        coords = " ".join(
            f"{x:.2f},{y_of(v):.2f}" for x, v in zip(xs, values)
        )
        parts.append(f'<polyline class="spark" points="{coords}" />')
    dots = [
        f'<circle class="changepoint {direction}" '
        f'cx="{x:.2f}" cy="{y_of(value):.2f}" r="2.5" />'
        for x, (value, direction) in zip(xs, series) if direction
    ]
    svg = _tag(
        "svg", "".join(parts + dots),
        viewBox=f"0 0 {width:g} {height + 2 * top:g}",
        width="150", height="50",
        data_scenario=entry["scenario"],
        data_env=entry["env"],
        **data,
        data_changepoints=len(dots),
    )
    caption = (
        f'{_esc(entry["scenario"])} · {len(values)} runs · '
        f'net {_esc(None if net is None else f"{net:+.1f}%")}'
    )
    return _tag(
        "figure", svg + f"<figcaption>{caption}</figcaption>", **{
            "class": "curve",
        }
    )


def _trend_section(trend: dict) -> str:
    """The perf-trajectory panel: one sparkline per (scenario,
    environment) series over the bench history directory, changepoints
    marked, plus a table of every detected changepoint.  A trend
    document with no series (empty or missing history directory) still
    renders a valid "no history" note instead of vanishing."""
    series = trend.get("series", [])
    if not series:
        missing = trend.get("missing_directory")
        detail = (
            f"history directory {_esc(missing)} does not exist."
            if missing else
            "no bench payloads in the history directory yet — run "
            "<code>repro bench</code> and copy the "
            "<code>BENCH_*.json</code> there."
        )
        return (
            "<h2>Perf trajectory</h2>"
            f'<p class="note">No bench history: {detail}</p>'
        )
    sections = [
        "<h2>Perf trajectory</h2>",
        f'<p class="note">{trend["payloads"]} bench payload(s); one '
        "sparkline per scenario and environment, oldest run left.  Dots "
        "mark changepoints (median shift beyond the noise envelope and "
        f'±{_fmt(trend["threshold_pct"])}%): red regression, green '
        "improvement.</p>",
        _tag("div", "".join(
            _spark_figure(
                e, _marked(e["points"], "median_seconds", e["changepoints"]),
                e.get("net_delta_pct"), data_points=len(e["points"]),
            )
            for e in series
        ), **{"class": "curves"}),
    ]
    cp_rows = [
        (entry["scenario"], cp["created_utc"],
         (cp.get("git_sha") or "")[:12], cp["direction"],
         cp["delta_pct"], cp["baseline_median_seconds"],
         cp["median_seconds"])
        for entry in series
        for cp in entry["changepoints"]
    ]
    if cp_rows:
        sections.append("<h3>Changepoints</h3>")
        sections.append(_table(
            ("scenario", "run", "git sha", "direction", "delta %",
             "baseline median s", "median s"),
            cp_rows, name_columns=4,
        ))
    with_memory = [e for e in series if e.get("memory_points")]
    if with_memory:
        sections.append("<h3>Memory trajectory</h3>")
        sections.append(
            '<p class="note">Median per-repetition allocation peak per '
            "run (runs without memory telemetry skipped); dots mark "
            "memory changepoints under the same noise + threshold "
            "rule, in bytes.</p>"
        )
        sections.append(_tag("div", "".join(
            _spark_figure(
                e,
                _marked(e["points"], "alloc_median_bytes",
                        e.get("memory_changepoints", [])),
                e.get("net_memory_delta_pct"),
                data_memory_points=e["memory_points"],
            )
            for e in with_memory
        ), **{"class": "curves"}))
        mem_cp_rows = [
            (entry["scenario"], cp["created_utc"],
             (cp.get("git_sha") or "")[:12], cp["direction"],
             cp["delta_pct"], cp["baseline_median_seconds"] / 1024.0,
             cp["median_seconds"] / 1024.0)
            for entry in with_memory
            for cp in entry.get("memory_changepoints", [])
        ]
        if mem_cp_rows:
            sections.append(_table(
                ("scenario", "run", "git sha", "direction", "delta %",
                 "baseline alloc KiB", "alloc KiB"),
                mem_cp_rows, name_columns=4,
            ))
    if trend.get("skipped"):
        sections.append(
            '<p class="note">Skipped unreadable history files: '
            + ", ".join(_esc(s["file"]) for s in trend["skipped"])
            + ".</p>"
        )
    return "".join(sections)


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------


def render_report(
    *,
    campaign: Optional[dict] = None,
    events: Optional[list[dict]] = None,
    benches: Optional[list[tuple[str, dict]]] = None,
    trend: Optional[dict] = None,
    title: str = "Stabilization report",
    generated_at: Optional[str] = None,
) -> str:
    """Render the dashboard; returns the complete HTML document.

    Inputs are plain data (a loaded manifest dict, validated event
    records, ``(label, bench payload)`` pairs), so callers choose the
    I/O; :func:`write_report` wires the CLI's file paths through.
    Identical inputs produce identical bytes — ``generated_at`` is the
    only way a timestamp gets in.
    """
    sections: list[str] = [f"<h1>{_esc(title)}</h1>"]
    if generated_at:
        sections.append(f'<p class="note">Generated: {_esc(generated_at)}</p>')
    if campaign is not None:
        trials = _campaign_trials(campaign)
        sections.append(_config_section(campaign))
        if trials:
            sections.append(_summary_section(campaign, trials))
            sections.append(_curves_section(trials))
            sections.append(_nodes_section(trials))
            sections.append(_histogram_section(campaign, trials))
        else:
            # A manifest with zero completed trials (still running,
            # fully infra-failed, or planned empty) must still render a
            # valid page, not a table of vacuous zeros.
            sections.append(
                "<h2>Verdicts</h2>"
                '<p class="note">No completed trials in this manifest '
                "— nothing to summarize yet.</p>"
            )
        sections.append(_timeline_section(campaign))
    if events:
        sections.append(_chaos_section(events))
        sections.append(_events_section(events))
    if benches:
        sections.append(_bench_section(list(benches)))
        sections.append(_memory_section(list(benches)))
    if trend is not None:
        sections.append(_trend_section(trend))
    # An empty trend document still renders a "no history" note, so a
    # trend input — even a missing directory — counts as content.
    has_trend = trend is not None
    if campaign is None and not events and not benches and not has_trend:
        sections.append(
            '<p class="note">Nothing to report: no campaign manifest, '
            "events file, or bench files supplied.</p>"
        )
    body = "".join(sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body data-report-schema="{REPORT_SCHEMA}">{body}</body></html>\n'
    )


def write_report(
    path,
    *,
    campaign_path=None,
    events_path=None,
    bench_paths: Sequence = (),
    history_dir=None,
    trend_threshold: float = 10.0,
    title: str = "Stabilization report",
    generated_at: Optional[str] = None,
) -> str:
    """Load the inputs, render, and write ``path``; returns the HTML."""
    from repro.obs.bench import read_bench
    from repro.obs.events import read_events

    campaign = None
    if campaign_path is not None:
        campaign = json.loads(
            Path(campaign_path).read_text(encoding="utf-8")
        )
    events = read_events(events_path) if events_path is not None else None
    benches = [(Path(bench).name, read_bench(bench)) for bench in bench_paths]
    trend = None
    if history_dir is not None:
        from repro.obs.history import bench_trend

        if Path(history_dir).is_dir():
            trend = bench_trend(history_dir, threshold_pct=trend_threshold)
        else:
            # A fresh clone has no benchmarks/history/ yet; the report
            # must render a valid "no history" page, not error out.
            trend = {
                "threshold_pct": float(trend_threshold),
                "payloads": 0,
                "files": [],
                "skipped": [],
                "series": [],
                "missing_directory": str(history_dir),
            }
    document = render_report(
        campaign=campaign,
        events=events,
        benches=benches,
        trend=trend,
        title=title,
        generated_at=generated_at,
    )
    Path(path).write_text(document, encoding="utf-8")
    return document
