"""fabric: clean simulations and injected trials on five fabric configs.

Each config is a distributed app on a topology, built once in the
set-up (experiment, reference run, per-node site counts) on
``DistExperiment``'s default engine, which constructs a fresh engine
per activation.  A round holds, per config, ``clean_per_round`` clean
``simulate(horizon())`` runs and ``trials_per_round`` injected
``trial_at`` calls on sites stratified over the config's site space.
The op is one run; its latency is reported per activation (run time
over horizon x nodes) so configs of any size and horizon compare.  A
seeded 1-in-``ORACLE_ONE_IN`` sample of trials is re-run outside the
timed region on the tree-walking ``Interpreter``, passed explicitly,
and must match the production record exactly (node digests included).
"""

from __future__ import annotations

import math
import random
import time

import repro.apps.registry as registry
import repro.dist as dist_layer
from repro.dist import DistExperiment
from repro.runtime import Interpreter
from repro.runtime.campaign import trial_record, verdict_of

from benchmarks.e2e.campaign import VERDICTS
from benchmarks.e2e.support import (
    ORACLE_ONE_IN,
    STEP_BUDGET_FACTOR,
    Pass,
    TokenCounter,
    Workload,
    run_timed,
)


class Fabric(Workload):
    name = "fabric"

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.experiments: dict = {}
        self.digests: dict | None = None
        self.oracles: dict = {}
        self.oracle_mismatches = 0

    def _build(self, config: str, **kwargs) -> DistExperiment:
        app, topology = self.p["configs"][config]
        return dist_layer.dist_app_experiment(
            app, topology=topology,
            step_budget_factor=STEP_BUDGET_FACTOR, **kwargs,
        )

    def setup(self) -> None:
        """Experiment, reference run and site counts per config."""
        experiments, digests = {}, {}
        for config in self.p["configs"]:
            experiment = self._build(config)
            reference = experiment.reference()
            experiment.total_steps()
            experiments[config] = experiment
            digests[config] = [
                reference.node_digest(node) for node in range(experiment.nodes)
            ]
        if self.digests not in (None, digests):
            self.ctx.tally.fail("reference digests differ between set-ups")
        self.experiments, self.digests = experiments, digests
        if not self.rounds:
            self.rounds = self.make_rounds()

    def make_rounds(self) -> list:
        rounds = []
        per_config = self.p["trials_per_round"]
        for index in range(self.p["max_rounds"]):
            rng = random.Random(f"{self.ctx.seed}:fabric:{index}")
            ops = []
            for config, experiment in self.experiments.items():
                ops += [["simulate", config]] * self.p["clean_per_round"]
                total = experiment.total_steps()
                for stratum in range(per_config):
                    low = stratum * total // per_config
                    high = max(low + 1, (stratum + 1) * total // per_config)
                    ops.append([
                        "trial", config, rng.randrange(low, high),
                        rng.randrange(2 ** 31),
                    ])
            rng.shuffle(ops)
            trials = [i for i, op in enumerate(ops) if op[0] == "trial"]
            picks = rng.sample(
                trials, math.ceil(len(trials) / ORACLE_ONE_IN)
            )
            rounds.append({"ops": ops, "oracle": sorted(picks)})
        return rounds

    def run_round(self, index: int, round_, result: Pass) -> None:
        if index == 0:
            self.first_round = {"dist.recovered": 0, "dist.masked": 0,
                                "dist.diverged": 0}
        records = {}
        tally = self.ctx.tally
        for position, op in enumerate(round_["ops"]):
            kind, config = op[0], op[1]
            experiment = self.experiments[config]
            activations = experiment.horizon() * experiment.nodes
            try:
                with self.ctx.op(kind):
                    start = time.perf_counter()
                    if kind == "simulate":
                        output = experiment.simulate(experiment.horizon())
                    else:
                        output = experiment.trial_at(op[2], seed=op[3])
                    seconds = time.perf_counter() - start
            except Exception as exc:
                tally.fail(f"{kind} {config}: {exc!r}")
                continue
            result.add(seconds, activations, config, latency_units=activations)
            if kind == "simulate":
                digests = [
                    output.node_digest(node) for node in range(experiment.nodes)
                ]
                tally.record(
                    digests == self.digests[config],
                    f"simulate {config}: digests differ from the reference",
                )
                continue
            record = trial_record(experiment.spec.name, output)
            records[position] = record
            tally.record(
                record["verdict"] in VERDICTS and record["site"] == op[2],
                f"trial {config}: bad record",
            )
            key = f"dist.{record['verdict']}"
            if index == 0 and key in self.first_round:
                self.first_round[key] += 1
        self._oracle(round_, records)

    def _oracle(self, round_, records) -> None:
        for position in round_["oracle"]:
            if position not in records:
                continue  # the trial itself failed, already counted
            _, config, site, seed = round_["ops"][position]
            oracle = self.oracles.get(config)
            if oracle is None:
                oracle = self.oracles[config] = self._build(
                    config, engine=Interpreter
                )
            expected = trial_record(
                oracle.spec.name, oracle.trial_at(site, seed=seed)
            )
            if not self.ctx.tally.record(
                expected == records[position],
                f"oracle mismatch: {config} site {site}",
            ):
                self.oracle_mismatches += 1

    # -- cold path and tracing -------------------------------------------

    def cold_probe(self, index: int):
        """``repro dist run --inject`` on a ring app, checked against the
        same trial run in-process."""
        app = self.p["cold_probe_apps"][index % len(self.p["cold_probe_apps"])]
        seed = self.ctx.seed * 1000 + 900 + index
        experiment = dist_layer.dist_app_experiment(
            app, seed=seed, step_budget_factor=STEP_BUDGET_FACTOR
        )
        site = random.Random(f"{self.ctx.seed}:fabric-cold:{index}").randrange(
            experiment.total_steps()
        )
        trial = experiment.trial_at(site, seed=seed)
        expected = f"site {trial.target_step} (node {trial.node}): " + (
            verdict_of(trial)
        ) + (
            f", recovered in {trial.recovery_iterations} rounds"
            if trial.recovery_iterations is not None else ""
        )
        seconds, done = run_timed([
            "-m", "repro.cli", "dist", "run", "--app", app,
            "--inject", str(site), "--seed", str(seed),
            "--step-budget-factor", str(STEP_BUDGET_FACTOR),
        ], self.ctx.scratch)
        ok = done.returncode == int(trial.diverged) and (
            done.stdout.strip() == expected
        )
        if not self.ctx.tally.record(ok, f"cold dist run: {done.stderr[-300:]}"):
            return None
        return seconds

    def targets(self) -> list[tuple]:
        tokens = TokenCounter()
        engine = DistExperiment.__dataclass_fields__["engine"].default
        return [
            (dist_layer, "dist_app_experiment", "dist.build"),
            (registry, "parse_program", "lang.parse", tokens.parse_attrs),
            (registry, "resolve_program", "lang.resolve"),
            (registry, "typecheck_program", "lang.typecheck"),
            (DistExperiment, "reference", "dist.reference"),
            (DistExperiment, "node_site_counts", "dist.site_counts"),
            (DistExperiment, "simulate", "dist.simulate"),
            (DistExperiment, "trial_at", "dist.trial_at"),
            (engine, "run", "runtime.engine_run"),
        ]

    def layer_metrics(self, traced: Pass) -> dict:
        metrics = dict(self.first_round)
        metrics["dist.oracle_mismatches"] = self.oracle_mismatches
        for config, (activations, seconds) in traced.groups.items():
            metrics[f"dist.activations_per_s.{config}"] = activations / seconds
        return metrics
