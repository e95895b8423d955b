"""Trial records, pinned: one line per (app, burst) with the trial
count, the verdict counts and a SHA-256 of the campaign
``trial_record``s.

Every bundled app runs at the campaign's defaults (its own iterations or
rounds, the 64× step budget), one trial per site with seed = site.  The
ten apps other than mp3_decoder cover every site plus two past the end,
at bursts 1 and 3; mp3_decoder (82,721 sites) covers every 97th site at
burst 1.  The table carries no timings, so any difference from the
committed copy is a change in what a trial reports: a refactor of the
trial machinery must leave it byte-identical.
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
    """(app, burst, sites) for every line of the table."""
    rows = []
    for app in all_app_names():
        total = resolve_experiment(app).total_steps()
        if app == "mp3_decoder":
            rows.append((app, 1, range(0, total, MP3_STRIDE)))
        else:
            rows += [(app, burst, range(total + 2)) for burst in (1, 3)]
    return rows


def records_line(app: str, burst: int, sites: range) -> str:
    experiment = resolve_experiment(
        app, step_budget_factor=STEP_BUDGET_FACTOR
    )
    digest = hashlib.sha256()
    verdicts: Counter = Counter()
    for site in sites:
        record = trial_record(app, experiment.trial_at(site, seed=site, burst=burst))
        verdicts[record["verdict"]] += 1
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    counts = " ".join(f"{v}={n}" for v, n in sorted(verdicts.items()))
    return (
        f"{app} burst={burst} trials={len(sites)} {counts} "
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
    write_result("trial_records.txt", "\n".join(lines))
