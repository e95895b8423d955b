"""analyze: an in-process, uncached stream of checks and SInfer runs.

Each check runs ``parse_program -> resolve_program -> typecheck_program
-> SJavaChecker(info).run()``, the sequence the daemon runs; each infer
runs the same front end then ``infer_annotations(mode="sinfer")`` on an
annotation-stripped single-node app.  A round holds every program the
same number of times in seeded order, and a seeded trailing comment
makes every source unique.  The op is one check or one infer.
"""

from __future__ import annotations

import json
import random
import time

import repro.core.checker as checker
import repro.infer as infer_layer
import repro.infer.engine as infer_engine
import repro.lang as lang
from repro.apps import programs_dir

from benchmarks.e2e.support import (
    Pass,
    TokenCounter,
    Workload,
    program_sources,
    run_timed,
    tagged,
)


class Analyze(Workload):
    name = "analyze"

    def setup(self) -> None:
        """Load the sources and warm every path with one checked op per
        program."""
        self.sources, self.stripped = program_sources(self.ctx.expected)
        for name, source in self.sources.items():
            self._validate_check(name, self._check(source))
        for app, source in self.stripped.items():
            self._validate_infer(app, self._infer(source))
        if not self.rounds:
            self.rounds = self.make_rounds()

    def make_rounds(self) -> list:
        ops = [
            ("check", name) for name in self.sources
            for _ in range(self.p["check_repeats"])
        ] + [
            ("infer", app) for app in self.stripped
            for _ in range(self.p["infer_repeats"])
        ]
        rounds = []
        for index in range(self.p["max_rounds"]):
            order = list(ops)
            random.Random(f"{self.ctx.seed}:analyze:{index}").shuffle(order)
            rounds.append([
                [kind, name, f"{self.ctx.seed}:{index}:{position}"]
                for position, (kind, name) in enumerate(order)
            ])
        return rounds

    # -- the two ops -----------------------------------------------------

    @staticmethod
    def _front_end(source: str):
        info = lang.resolve_program(lang.parse_program(source))
        lang.typecheck_program(info)
        return info

    def _check(self, source: str):
        return checker.SJavaChecker(self._front_end(source)).run()

    def _infer(self, source: str):
        return infer_layer.infer_annotations(self._front_end(source), mode="sinfer")

    def _validate_check(self, name: str, report) -> bool:
        rejected = self.ctx.expected["rejected"].get(name)
        if rejected is None:
            ok = report.self_stabilizing
        else:
            checks = sorted({d.check.value for d in report.errors})
            ok = not report.self_stabilizing and checks == rejected["checks"]
        return self.ctx.tally.record(ok, f"check {name}: unexpected verdict")

    def _validate_infer(self, app: str, result) -> bool:
        locations = result.summary.total_locations
        ok = result.verified and (
            locations == self.ctx.expected["sinfer_locations"][app]
        )
        return self.ctx.tally.record(
            ok, f"infer {app}: {locations} locations, verified={result.verified}"
        )

    def run_round(self, index: int, ops, result: Pass) -> None:
        if index == 0:
            self.first_round = {
                "core.diagnostics": 0, "core.verdict_mismatches": 0,
                "infer.locations": 0, "infer.location_mismatches": 0,
            }
        for kind, name, tag in ops:
            try:
                with self.ctx.op(kind):
                    start = time.perf_counter()
                    if kind == "check":
                        output = self._check(tagged(self.sources[name], tag))
                    else:
                        output = self._infer(tagged(self.stripped[name], tag))
                    seconds = time.perf_counter() - start
            except Exception as exc:  # a crash is a failed op, not a stop
                self.ctx.tally.fail(f"{kind} {name}: {exc!r}")
                continue
            result.add(seconds, 1, kind)
            if kind == "check":
                ok = self._validate_check(name, output)
                if index == 0:
                    self.first_round["core.diagnostics"] += len(output.diagnostics)
                    self.first_round["core.verdict_mismatches"] += not ok
            else:
                ok = self._validate_infer(name, output)
                if index == 0:
                    self.first_round["infer.locations"] += (
                        output.summary.total_locations
                    )
                    self.first_round["infer.location_mismatches"] += not ok

    # -- cold path and tracing -------------------------------------------

    def cold_probe(self, index: int):
        names = self.ctx.expected["accepted"]
        name = names[(self.ctx.seed + index) % len(names)]
        path = programs_dir() / f"{name}.sj"
        seconds, done = run_timed(
            ["-m", "repro.cli", "check", "--json", str(path)], self.ctx.scratch
        )
        try:
            ok = done.returncode == 0 and json.loads(
                done.stdout.strip().splitlines()[-1]
            )["self_stabilizing"] is True
        except (ValueError, IndexError, KeyError):
            ok = False
        if not self.ctx.tally.record(ok, f"cold check {name}: {done.stderr[-300:]}"):
            return None
        return seconds

    def targets(self) -> list[tuple]:
        tokens = TokenCounter()
        for source in [*self.sources.values(), *self.stripped.values()]:
            tokens(source)
        wraps = []
        # The harness's own front-end calls, and the ones the infer
        # verifier makes through check_program.
        for module in (lang, checker):
            wraps += [
                (module, "parse_program", "lang.parse", tokens.parse_attrs),
                (module, "resolve_program", "lang.resolve"),
                (module, "typecheck_program", "lang.typecheck"),
            ]
        return wraps + [
            (checker.SJavaChecker, "run", "core.check"),
            (infer_layer, "infer_annotations", "infer.run"),
            (infer_engine, "check_program", "core.check_program"),
        ]

    def layer_metrics(self, traced: Pass) -> dict:
        return dict(self.first_round)
