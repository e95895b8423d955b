"""Trial records, pinned: one line per (app, burst) with the trial
count, the verdict counts and a SHA-256 of the campaign
``trial_record``s.

Every bundled app runs at the campaign's defaults (its own iterations or
rounds, the 64× step budget), one trial per site with seed = site.  The
ten apps other than mp3_decoder cover every site plus two past the end,
at bursts 1 and 3; mp3_decoder (82,721 sites) covers every 97th site at
burst 1.  At the 64× budget no trial times out, so further lines run
the apps whose trials can trip the watchdog under budgets where they
do: mp3_decoder's every 97th site at a 2× factor, and herman_bit and
gradient_channel at every site plus two, bursts 1 and 3, at a budget
of their clean run's steps (the other single-node apps never time out,
even at that budget).  The table carries no timings, so any difference
from the committed copy is a change in what a trial reports: a
refactor of the trial machinery must leave it byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from repro.apps import all_app_names, resolve_experiment
from repro.runtime.campaign import trial_record
from repro.runtime.stabilization import STEP_BUDGET_FACTOR

from .conftest import write_result

#: mp3_decoder's thinning stride.
MP3_STRIDE = 97


def plans() -> list[tuple[str, int, range]]:
    """(app, burst, sites) for every line of the table at the 64×
    budget."""
    rows = []
    for app in all_app_names():
        total = resolve_experiment(app).total_steps()
        if app == "mp3_decoder":
            rows.append((app, 1, range(0, total, MP3_STRIDE)))
        else:
            rows += [(app, burst, range(total + 2)) for burst in (1, 3)]
    return rows


def timeout_plans() -> list[tuple[str, int, range, dict]]:
    """(app, burst, sites, budget) for the lines under budgets where
    the watchdog trips; ``budget`` is the experiment's keyword."""
    total = resolve_experiment("mp3_decoder").total_steps()
    rows = [(
        "mp3_decoder", 1, range(0, total, MP3_STRIDE),
        {"step_budget_factor": 2},
    )]
    for app in ("herman_bit", "gradient_channel"):
        clean = resolve_experiment(app)
        budget = {"step_budget": clean.reference_steps()}
        rows += [
            (app, burst, range(clean.total_steps() + 2), budget)
            for burst in (1, 3)
        ]
    return rows


def records_line(
    app: str, burst: int, sites: range, budget: dict | None = None
) -> str:
    """The line of ``sites`` at ``burst``, under ``budget`` (None: the
    64× factor, left out of the line)."""
    experiment = resolve_experiment(
        app, **(budget or {"step_budget_factor": STEP_BUDGET_FACTOR})
    )
    digest = hashlib.sha256()
    verdicts: Counter = Counter()
    for site in sites:
        record = trial_record(app, experiment.trial_at(site, seed=site, burst=burst))
        verdicts[record["verdict"]] += 1
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    counts = " ".join(f"{v}={n}" for v, n in sorted(verdicts.items()))
    where = "".join(f" {key}={value}" for key, value in (budget or {}).items())
    return (
        f"{app} burst={burst}{where} trials={len(sites)} {counts} "
        f"sha256={digest.hexdigest()}"
    )


def test_trial_records(benchmark):
    rows = plans()
    head = rows[0]
    benchmark.pedantic(
        lambda: records_line(head[0], head[1], head[2][:16]),
        rounds=1, iterations=1,
    )
    lines = [
        "Trial records (seed = site; every site plus two past the end at "
        f"bursts 1 and 3, every {MP3_STRIDE}th mp3_decoder site at burst 1)"
    ]
    lines += [records_line(*row) for row in rows]
    lines.append("Under budgets where the watchdog trips")
    lines += [records_line(*row) for row in timeout_plans()]
    write_result("trial_records.txt", "\n".join(lines))
