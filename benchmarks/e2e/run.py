"""Run one end-to-end workload in a fresh process and print its metrics.

    python3 benchmarks/e2e/run.py --workload analyze --seed 0 \\
        --seconds 15 --trace 0 [--spans FILE] [--out FILE]

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` re-runs the workload with the span recorder and prints
every per-layer metric.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every output matched its known answer, 1 when one did not,
and 2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("analyze", "serve", "campaign", "fabric")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: analyze, serve, campaign, fabric."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (0 by default; 1 is held out for "
                             "validating claims)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--spans", default=None, metavar="FILE",
                        help="with --trace 1, also write the spans as JSONL")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the full run record (inputs_sha256, "
                             "parameters, fingerprint) as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    # A terminated run still stops its daemons (``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The checkout's sources, never an installed copy.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.harness import run_workload

    outcome = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
    )
    if args.spans and outcome.recorder is not None:
        outcome.recorder.write_jsonl(args.spans)
    if args.out:
        Path(args.out).write_text(
            json.dumps(outcome.record(), indent=2) + "\n", encoding="utf-8"
        )
    for line in outcome.lines():
        print(line)
    print(json.dumps(outcome.result()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
