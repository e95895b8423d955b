"""Figure 6.3: number and type of annotations per benchmark.

Paper columns: Location (@LOC-family), Lattice (@LATTICE), Method
Default (@METHODDEFAULT), and lines of code.  Absolute counts differ —
our ports are smaller than the Java originals — but the shape holds:
location assignments dominate, lattice declarations are an order of
magnitude fewer, and the annotation burden is a small fraction of the
code size.
"""

from __future__ import annotations

from repro.apps import APP_NAMES, app_source, load_app
from repro.core.annotations import count_annotations
from repro.core.checker import SJavaChecker

from .conftest import write_result


def count_loc(source: str) -> int:
    return sum(
        1
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("//")
    )


def collect_rows():
    rows = []
    for name in APP_NAMES:
        app = load_app(name)
        counts = count_annotations(app.program)
        rows.append(
            (
                name,
                counts.loc,
                counts.lattice,
                counts.method_default,
                count_loc(app_source(name)),
            )
        )
    return rows


def test_fig_6_3_annotation_counts(benchmark):
    rows = benchmark(collect_rows)
    lines = [
        "Figure 6.3 — Number and type of annotations",
        f"{'benchmark':16s} {'Location':>9s} {'Lattice':>8s} "
        f"{'MethodDefault':>14s} {'LOC':>6s}",
    ]
    for name, loc_count, lattice, default, sloc in rows:
        lines.append(
            f"{name:16s} {loc_count:9d} {lattice:8d} {default:14d} {sloc:6d}"
        )
    total_ann = sum(r[1] + r[2] + r[3] for r in rows)
    total_sloc = sum(r[4] for r in rows)
    lines.append(
        f"\nannotations per source line: {total_ann / total_sloc:.3f} "
        "(paper's qualitative claim: effort marginally exceeds writing "
        "Java types)"
    )
    write_result("fig_6_3_annotation_counts.txt", "\n".join(lines))

    # every annotated benchmark passes the full checker
    for name in APP_NAMES:
        report = SJavaChecker(load_app(name).info).run()
        assert report.self_stabilizing, name
    # shape: @LOC-family annotations dominate lattice declarations
    for name, loc_count, lattice, _, _ in rows:
        assert loc_count >= lattice, name
