"""campaign: a stratified single-node fault-injection campaign.

Driven through the public pieces ``repro campaign --jobs 1`` uses:
``resolve_experiment(app).total_steps()`` (the set-up) ->
``plan_shards`` -> ``run_shard(shard.payload(config))`` ->
``aggregate_report``.  A round is one small campaign per app with a
round-specific seed, its shards interleaved in seeded order; the op is
one shard, the unit a campaign checkpoints, and its latency is the
shard's time.  A seeded 1-in-``ORACLE_ONE_IN`` sample of trials is re-run
after each round, outside the timed region, on the tree-walking
``Interpreter`` and must match the production record exactly.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import replace

import repro.apps.registry as registry
import repro.runtime.campaign as campaign_layer
from repro.runtime import Interpreter, StabilizationExperiment
from repro.runtime.campaign import (
    DIVERGED,
    MASKED,
    NOT_INJECTED,
    RECOVERED,
    TIMEOUT,
    CampaignConfig,
    plan_shards,
    trial_record,
)

from benchmarks.e2e.support import (
    ORACLE_ONE_IN,
    STEP_BUDGET_FACTOR,
    Pass,
    TokenCounter,
    Workload,
    run_timed,
)

VERDICTS = (RECOVERED, MASKED, DIVERGED, TIMEOUT, NOT_INJECTED)


class Campaign(Workload):
    name = "campaign"

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.site_totals: dict | None = None
        self.oracles: dict = {}
        self.oracle_mismatches = 0

    def _config(self, app: str, trials: int, seed: int) -> CampaignConfig:
        return CampaignConfig(
            apps=(app,), mode="stratified", trials=trials,
            strata=self.p["strata"], seed=seed,
            shard_size=self.p["shard_size"],
            step_budget_factor=STEP_BUDGET_FACTOR,
        )

    def setup(self) -> None:
        """Site totals, as ``CampaignRunner.run`` computes them."""
        totals = {
            app: campaign_layer.resolve_experiment(app, None).total_steps()
            for app in self.p["trials_per_round"]
        }
        if self.site_totals not in (None, totals):
            self.ctx.tally.fail("site totals differ between set-ups")
        self.site_totals = totals
        if not self.rounds:
            self.rounds = self.make_rounds()

    def make_rounds(self) -> list:
        rounds = []
        for index in range(self.p["max_rounds"]):
            seed = self.ctx.seed * 1000 + index
            shards = []
            for app, trials in self.p["trials_per_round"].items():
                config = self._config(app, trials, seed)
                shards += [
                    (config, shard) for shard in plan_shards(config, self.site_totals)
                ]
            rng = random.Random(f"{self.ctx.seed}:campaign:{index}")
            rng.shuffle(shards)
            positions = [
                [i, j] for i, (_, shard) in enumerate(shards)
                for j in range(len(shard.sites))
            ]
            picks = rng.sample(
                positions, math.ceil(len(positions) / ORACLE_ONE_IN)
            )
            rounds.append({"shards": shards, "oracle": sorted(picks)})
        return rounds

    def inputs(self):
        return [
            {
                "shards": [
                    [shard.shard_id, config.seed, list(shard.sites),
                     list(shard.seeds)]
                    for config, shard in round_["shards"]
                ],
                "oracle": round_["oracle"],
            }
            for round_ in self.rounds
        ]

    def run_round(self, index: int, round_, result: Pass) -> None:
        records: dict[str, dict] = {}
        planned: dict[str, list] = {}
        configs: dict[str, CampaignConfig] = {}
        tally = self.ctx.tally
        for config, shard in round_["shards"]:
            app = shard.app
            try:
                with self.ctx.op("shard"):
                    start = time.perf_counter()
                    output = campaign_layer.run_shard(shard.payload(config))
                    seconds = time.perf_counter() - start
            except Exception as exc:
                tally.fail(f"shard {shard.shard_id}: {exc!r}")
                continue
            trials = output["trials"]
            result.add(seconds, len(trials), app)
            if len(trials) != len(shard.sites):
                tally.fail(f"shard {shard.shard_id}: {len(trials)} trials")
            for site, trial in zip(shard.sites, trials):
                tally.record(
                    trial["site"] == site and trial["verdict"] in VERDICTS,
                    f"shard {shard.shard_id}: bad record {trial}",
                )
            records.setdefault(app, {})[shard.shard_id] = {
                "status": "done", "trials": trials,
            }
            planned.setdefault(app, []).append(shard)
            configs[app] = config
        reports = {
            app: campaign_layer.aggregate_report(
                configs[app], self.site_totals,
                sorted(planned[app], key=lambda s: s.shard_id), records[app],
            )
            for app in planned
        }
        for app, report in reports.items():
            if not report["complete"] or (
                report["apps"][0]["trials"] != self.p["trials_per_round"][app]
            ):
                tally.fail(f"round {index} {app}: incomplete report")
        self._oracle(round_, records)
        if index == 0:
            self.first_round = self._verdict_counts(reports)

    def _oracle(self, round_, records) -> None:
        """Re-run the sampled trials on the tree-walking interpreter."""
        for i, j in round_["oracle"]:
            config, shard = round_["shards"][i]
            produced = records.get(shard.app, {}).get(shard.shard_id)
            if produced is None or j >= len(produced["trials"]):
                continue  # the shard itself failed, already counted
            oracle = self.oracles.get(shard.app)
            if oracle is None:
                oracle = self.oracles[shard.app] = replace(
                    campaign_layer.resolve_experiment(
                        shard.app, config.iterations,
                        step_budget=config.step_budget,
                        step_budget_factor=config.step_budget_factor,
                    ),
                    engine=Interpreter,
                )
            expected = trial_record(shard.app, oracle.trial_at(
                shard.sites[j], seed=shard.seeds[j], burst=config.burst
            ))
            if not self.ctx.tally.record(
                expected == produced["trials"][j],
                f"oracle mismatch: {shard.app} site {shard.sites[j]}",
            ):
                self.oracle_mismatches += 1

    @staticmethod
    def _verdict_counts(reports: dict) -> dict:
        entries = [report["apps"][0] for report in reports.values()]
        counts = {
            f"campaign.{key}": sum(e[key] for e in entries)
            for key in ("recovered", "masked", "diverged", "timeout",
                        "not_injected")
        }
        trials = sum(e["trials"] for e in entries)
        counts["campaign.injected_ratio"] = (
            sum(e["injected"] for e in entries) / trials if trials else 0.0
        )
        return counts

    # -- cold path and tracing -------------------------------------------

    def cold_probe(self, index: int):
        """``repro campaign`` on one small app, checked against the same
        campaign run in-process."""
        app, trials = self.p["cold_probe_app"], self.p["cold_probe_trials"]
        seed = self.ctx.seed * 1000 + 900 + index
        config = self._config(app, trials, seed)
        totals = {app: self.site_totals[app]}
        shards = plan_shards(config, totals)
        records = {
            shard.shard_id: {
                "status": "done",
                "trials": campaign_layer.run_shard(shard.payload(config))["trials"],
            }
            for shard in shards
        }
        expected = json.loads(json.dumps(campaign_layer.aggregate_report(
            config, totals, shards, records
        )["apps"]))
        seconds, done = run_timed([
            "-m", "repro.cli", "campaign", "--apps", app,
            "--trials", str(trials), "--strata", str(self.p["strata"]),
            "--shard-size", str(self.p["shard_size"]),
            "--step-budget-factor", str(STEP_BUDGET_FACTOR),
            "--jobs", "1", "--seed", str(seed), "--json",
        ], self.ctx.scratch)
        try:
            ok = done.returncode == 0 and json.loads(
                done.stdout.strip().splitlines()[-1]
            )["apps"] == expected
        except (ValueError, IndexError, KeyError):
            ok = False
        if not self.ctx.tally.record(ok, f"cold campaign: {done.stderr[-300:]}"):
            return None
        return seconds

    def targets(self) -> list[tuple]:
        tokens = TokenCounter()
        engine = StabilizationExperiment.__dataclass_fields__["engine"].default
        return [
            (campaign_layer, "run_shard", "campaign.run_shard"),
            (campaign_layer, "aggregate_report", "campaign.aggregate_report"),
            (campaign_layer, "resolve_experiment", "runtime.resolve_experiment"),
            (registry, "parse_program", "lang.parse", tokens.parse_attrs),
            (registry, "resolve_program", "lang.resolve"),
            (registry, "typecheck_program", "lang.typecheck"),
            (StabilizationExperiment, "total_steps", "runtime.total_steps"),
            (StabilizationExperiment, "reference_groups", "runtime.reference"),
            (StabilizationExperiment, "trial_at", "runtime.trial_at"),
            (engine, "run", "runtime.engine_run"),
        ]

    def layer_metrics(self, traced: Pass) -> dict:
        metrics = dict(self.first_round)
        metrics["campaign.oracle_mismatches"] = self.oracle_mismatches
        for app, (trials, seconds) in traced.groups.items():
            metrics[f"campaign.trials_per_s.{app}"] = trials / seconds
        for app in self.p["trials_per_round"]:
            metrics[f"runtime.steps_per_s.{app}"] = self._steps_per_s(app)
        return metrics

    @staticmethod
    def _steps_per_s(app: str, repeats: int = 3) -> float:
        """Clean reference-run speed on the production engine."""
        rates = []
        for _ in range(repeats):
            experiment = campaign_layer.resolve_experiment(app, None)
            start = time.perf_counter()
            experiment.reference_groups()
            rates.append(
                experiment.reference_steps() / (time.perf_counter() - start)
            )
        return statistics.median(rates)
