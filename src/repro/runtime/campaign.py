"""Fault-injection campaigns: paper-scale corruption sweeps that survive
the faults they provoke.

``repro inject`` runs a handful of uniformly sampled trials serially in
one process.  The paper's empirical claim (Section 6.2) — checked
programs recover from *any* injected corruption within a bounded number
of iterations — needs sweeps that cover corruption sites exhaustively
(or stratified across the site space) for every registered app, which
means hours of trials and therefore infrastructure that tolerates
interruption:

* trials are grouped into **shards** and fanned out over the service
  layer's :class:`~repro.service.pool.ResilientPool` (per-shard
  wall-clock timeouts, worker-crash detection, pool rebuild, capped
  exponential backoff; an unrecoverable shard is recorded as
  ``infra-failed``, never dropped);
* each injected run carries a **step-budget watchdog**
  (:class:`~repro.runtime.interpreter.StepBudgetExceeded`): a corrupted
  loop bound yields a ``timeout`` trial instead of a hung worker;
* campaign state is **checkpointed** to a JSON manifest after every
  completed shard, so a campaign killed mid-run (driver or worker)
  resumes exactly where it stopped and produces statistics identical to
  an uninterrupted run.

The aggregate report is a versioned ``campaign`` payload emitted through
:mod:`repro.service.protocol`; the schema lives in
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.apps import all_app_names, resolve_experiment
from repro.chaos.injector import (
    ChaosConfig,
    ChaosInjector,
    NullChaosInjector,
    chaos_recovery,
    get_chaos,
)
from repro.obs import get_tracer, global_registry
from repro.obs.events import get_event_log
from repro.obs.propagate import shard_trace_payload, worker_traced
from repro.runtime.stabilization import (
    DIVERGED, MASKED, NOT_INJECTED, RECOVERED, STEP_BUDGET_FACTOR, TIMEOUT,
    InjectionTrial, verdict_of,
)
from repro.service.pool import ResilientPool, TaskFailure

#: Bump when the manifest or report layout changes.
CAMPAIGN_SCHEMA = 1

MODES = ("exhaustive", "stratified", "uniform")


class CampaignError(RuntimeError):
    """A campaign could not be planned or resumed."""


# ---------------------------------------------------------------------------
# Configuration and planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a sweep.  Two configs with equal
    fingerprints plan byte-identical shard lists, which is what makes a
    checkpoint safely resumable."""

    apps: tuple[str, ...]
    mode: str = "stratified"
    #: Per-app trial count (stratified / uniform modes).
    trials: int = 64
    #: Stratum count for stratified mode.
    strata: int = 8
    #: Cap for exhaustive mode; thinned evenly, never a silent prefix.
    max_sites: Optional[int] = None
    #: Event-loop iterations per run (None: the app's registered default).
    iterations: Optional[int] = None
    burst: int = 1
    seed: int = 0
    #: Trials per shard — the checkpoint and retry granularity.
    shard_size: int = 16
    #: Watchdog: absolute step cap per injected run, or a multiple of
    #: the app's clean-run step count (the default).
    step_budget: Optional[int] = None
    step_budget_factor: Optional[int] = STEP_BUDGET_FACTOR
    #: Recovery-histogram bin width, in output samples.
    histogram_bin: int = 8

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise CampaignError(f"unknown campaign mode {self.mode!r}")
        unknown = [a for a in self.apps if a not in all_app_names()]
        if unknown:
            raise CampaignError(
                f"unknown apps {unknown}; registered: {list(all_app_names())}"
            )
        if not self.apps:
            raise CampaignError("campaign needs at least one app")

    def fingerprint(self) -> str:
        """Content address of the sweep this config plans."""
        blob = json.dumps(
            {"schema": CAMPAIGN_SCHEMA, **self.to_dict()}, sort_keys=True
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "apps": list(self.apps),
            "mode": self.mode,
            "trials": self.trials,
            "strata": self.strata,
            "max_sites": self.max_sites,
            "iterations": self.iterations,
            "burst": self.burst,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "step_budget": self.step_budget,
            "step_budget_factor": self.step_budget_factor,
            "histogram_bin": self.histogram_bin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        return cls(**{**data, "apps": tuple(data["apps"])})


def plan_sites(
    mode: str,
    total: int,
    *,
    trials: int,
    strata: int,
    max_sites: Optional[int],
    rng: random.Random,
) -> list[int]:
    """The corruption sites one app's sweep will hit, in sweep order."""
    total = max(1, total)
    if mode == "exhaustive":
        sites = list(range(total))
        if max_sites is not None and len(sites) > max_sites:
            stride = len(sites) / max_sites
            sites = [sites[int(i * stride)] for i in range(max_sites)]
        return sites
    if mode == "stratified":
        # Sample without replacement inside each equal-width slice of
        # the site space, so every pipeline stage is exercised even when
        # one stage dominates the site count (uniform sampling misses
        # small stages entirely).
        per_stratum = math.ceil(trials / strata)
        sites: list[int] = []
        for k in range(strata):
            lo = k * total // strata
            hi = (k + 1) * total // strata
            if hi <= lo:
                continue
            take = min(per_stratum, hi - lo)
            sites.extend(sorted(rng.sample(range(lo, hi), take)))
        return sites
    if mode == "uniform":
        return [rng.randrange(total) for _ in range(trials)]
    raise CampaignError(f"unknown campaign mode {mode!r}")


@dataclass(frozen=True)
class Shard:
    """One unit of fan-out, retry and checkpointing."""

    shard_id: str
    app: str
    sites: tuple[int, ...]
    seeds: tuple[int, ...]

    def payload(self, config: CampaignConfig) -> dict:
        """The plain-dict form shipped to a worker process."""
        return {
            "shard_id": self.shard_id,
            "app": self.app,
            "sites": list(self.sites),
            "seeds": list(self.seeds),
            "iterations": config.iterations,
            "burst": config.burst,
            "step_budget": config.step_budget,
            "step_budget_factor": config.step_budget_factor,
        }


def plan_shards(
    config: CampaignConfig, site_totals: dict[str, int]
) -> list[Shard]:
    """Deterministic shard list for a config + per-app site totals."""
    shards: list[Shard] = []
    for app in config.apps:
        rng = random.Random(f"{config.seed}:{app}")
        sites = plan_sites(
            config.mode,
            site_totals[app],
            trials=config.trials,
            strata=config.strata,
            max_sites=config.max_sites,
            rng=rng,
        )
        seeds = [config.seed + index for index in range(len(sites))]
        for chunk_index in range(0, len(sites), config.shard_size):
            chunk = sites[chunk_index:chunk_index + config.shard_size]
            chunk_seeds = seeds[chunk_index:chunk_index + config.shard_size]
            shards.append(Shard(
                shard_id=f"{app}:{chunk_index // config.shard_size:04d}",
                app=app,
                sites=tuple(chunk),
                seeds=tuple(chunk_seeds),
            ))
    return shards


# ---------------------------------------------------------------------------
# The worker (module-level: must be picklable)
# ---------------------------------------------------------------------------


def trial_record(app: str, trial: InjectionTrial) -> dict:
    record = {
        "app": app,
        "site": trial.target_step,
        "verdict": verdict_of(trial),
        "injection_iteration": trial.injection_iteration,
        "recovery_samples": trial.recovery_samples,
        "recovery_iterations": trial.recovery_iterations,
        "error_log_size": trial.error_log_size,
    }
    # Convergence telemetry is additive: old manifests (and readers of
    # them) simply lack the key, which is why consumers go through
    # trial_telemetry() instead of indexing it directly.
    if trial.divergence is not None or trial.convergence is not None:
        record["telemetry"] = {
            "divergence": trial.divergence,
            "convergence": trial.convergence,
        }
    # Distributed trials (repro.dist) additionally carry the injected
    # node and per-node fabric telemetry — additive for the same reason.
    if trial.node is not None:
        record["node"] = trial.node
        if trial.node_divergence is not None or trial.node_digests is not None:
            record.setdefault("telemetry", {})
            record["telemetry"]["node_divergence"] = trial.node_divergence
            record["telemetry"]["node_digests"] = trial.node_digests
    return record


def trial_telemetry(trial: dict) -> dict:
    """Convergence telemetry of a checkpointed trial record, tolerating
    manifests written before telemetry existed (both keys default to
    None)."""
    telemetry = trial.get("telemetry") or {}
    return {
        "divergence": telemetry.get("divergence"),
        "convergence": telemetry.get("convergence"),
        "node_divergence": telemetry.get("node_divergence"),
        "node_digests": telemetry.get("node_digests"),
    }


#: This process's experiments, keyed by the payload fields that define
#: one.  An experiment keeps its reference run and trace, so a worker
#: parses each app and runs its reference once, not once per shard, and
#: the driver counts each app's sites on the experiment its in-process
#: shards then use.  Module state, because a pool worker receives
#: nothing but payloads; trials never change an experiment, so sharing
#: one is safe.
_experiments: dict[tuple, object] = {}


def _shard_experiment(payload: dict):
    app, iterations, budget, factor = key = (
        payload["app"],
        payload.get("iterations"),
        payload.get("step_budget"),
        payload.get("step_budget_factor"),
    )
    experiment = _experiments.get(key)
    if experiment is None:
        experiment = _experiments[key] = resolve_experiment(
            app, iterations, step_budget=budget, step_budget_factor=factor
        )
    return experiment


def run_shard(payload: dict) -> dict:
    """Run one shard of injection trials.  Ships to pool workers, so it
    takes and returns plain dicts only.  ``run_seconds`` is measured on
    the worker side, so the driver can split a shard's settle latency
    into execution time and queue wait.  The shard's experiment comes
    from this process's ``_experiments`` map, so later shards of the
    same app reuse its reference run and trace.

    When the payload carries a ``chaos`` config (``repro chaos``), the
    worker rebuilds the injector on its side of the pickle boundary and
    passes through its fault probes: a hang before the trials start, a
    SIGKILL mid-shard.  The injector's cross-process ledger guarantees
    each planned fault fires on the first delivery only, so the retry
    of a killed shard completes — and, trials being pure functions of
    ``(app, site, seed, …)``, completes with identical records.

    When the payload carries a ``trace`` context (``--trace``), the
    shard runs under :func:`repro.obs.propagate.worker_traced`: a
    process-wide worker tracer writes ``worker-<pid>.trace.jsonl`` next
    to the driver's trace and this shard's spans — ``worker.shard``
    plus every trial span nested inside — stay causally linked to the
    driver's ``campaign_drive`` span across the pickle boundary.
    """
    start = time.perf_counter()
    chaos_cfg = payload.get("chaos")
    chaos: ChaosInjector | NullChaosInjector = (
        ChaosInjector(ChaosConfig.from_dict(chaos_cfg))
        if chaos_cfg else NullChaosInjector()
    )
    shard_id = payload["shard_id"]
    chaos.hang_point("worker.shard", shard_id)
    with worker_traced(
        payload.get("trace"), shard_id=shard_id, app=payload["app"]
    ) as shard_span:
        experiment = _shard_experiment(payload)
        crash_after = len(payload["sites"]) // 2
        trials = []
        for done, (site, seed) in enumerate(
            zip(payload["sites"], payload["seeds"])
        ):
            trials.append(trial_record(
                payload["app"],
                experiment.trial_at(
                    site, seed=seed, burst=payload.get("burst", 1)
                ),
            ))
            if done == crash_after:
                # Mid-shard, after real work: the kill a preempted/OOMed
                # worker takes, with trial results already computed and
                # lost.
                chaos.crash_point("worker.shard", shard_id)
        if shard_span is not None:
            shard_span.count("trials", len(trials))
    from repro.obs.resources import peak_rss_bytes

    return {
        "shard_id": shard_id,
        "trials": trials,
        "run_seconds": time.perf_counter() - start,
        "pid": os.getpid(),
        # Worker-side memory accounting: the worker process's lifetime
        # peak RSS at shard completion (one getrusage call), so the
        # driver can spot the shard that blew the memory budget.
        "peak_rss_bytes": peak_rss_bytes(),
    }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _percentile(values: list[int], percent: float) -> Optional[int]:
    """Nearest-rank percentile; None for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _rate(count: int, denominator: int) -> float:
    return round(count / denominator, 4) if denominator else 0.0


def aggregate_app(
    app: str, sites_total: int, trials: list[dict], histogram_bin: int
) -> dict:
    counts = {v: 0 for v in (MASKED, RECOVERED, DIVERGED, TIMEOUT, NOT_INJECTED)}
    histogram: dict[int, int] = {}
    iterations: list[int] = []
    for trial in trials:
        counts[trial["verdict"]] += 1
        if trial["recovery_samples"] is not None:
            bucket = (trial["recovery_samples"] // histogram_bin) * histogram_bin
            histogram[bucket] = histogram.get(bucket, 0) + 1
        if trial["recovery_iterations"] is not None:
            iterations.append(trial["recovery_iterations"])
    injected = len(trials) - counts[NOT_INJECTED]
    return {
        "app": app,
        "sites_total": sites_total,
        "trials": len(trials),
        "injected": injected,
        "masked": counts[MASKED],
        "recovered": counts[RECOVERED],
        "diverged": counts[DIVERGED],
        "timeout": counts[TIMEOUT],
        "not_injected": counts[NOT_INJECTED],
        "mask_rate": _rate(counts[MASKED], injected),
        "divergence_rate": _rate(counts[DIVERGED], injected),
        "timeout_rate": _rate(counts[TIMEOUT], injected),
        "recovery_histogram": {
            str(bucket): count for bucket, count in sorted(histogram.items())
        },
        "recovery_iterations_p50": _percentile(iterations, 50),
        "recovery_iterations_p95": _percentile(iterations, 95),
    }


def aggregate_report(
    config: CampaignConfig,
    site_totals: dict[str, int],
    planned: Sequence[Shard],
    shard_records: dict[str, dict],
) -> dict:
    """The campaign summary (``protocol.campaign_payload`` wraps it)."""
    completed = [
        s for s in planned
        if shard_records.get(s.shard_id, {}).get("status") == "done"
    ]
    failures = [
        {"shard_id": s.shard_id, **{
            k: shard_records[s.shard_id][k]
            for k in ("reason", "message", "attempts")
        }}
        for s in planned
        if shard_records.get(s.shard_id, {}).get("status") == "infra-failed"
    ]
    trials_by_app: dict[str, list[dict]] = {app: [] for app in config.apps}
    for shard in completed:
        for trial in shard_records[shard.shard_id]["trials"]:
            trials_by_app[trial["app"]].append(trial)
    return {
        "schema": CAMPAIGN_SCHEMA,
        "mode": config.mode,
        "seed": config.seed,
        "burst": config.burst,
        "complete": len(completed) + len(failures) == len(planned),
        "shards": {
            "planned": len(planned),
            "completed": len(completed),
            "infra_failed": len(failures),
        },
        "infra_failures": failures,
        "apps": [
            aggregate_app(
                app, site_totals[app], trials_by_app[app], config.histogram_bin
            )
            for app in config.apps
        ],
    }


# ---------------------------------------------------------------------------
# The runner: checkpointing, resume, fan-out
# ---------------------------------------------------------------------------


def _shard_text(shard_id: str, record: dict) -> str:
    """One manifest entry, ``"id": {...}``, as ``json.dumps`` of the
    whole manifest writes it."""
    return json.dumps({shard_id: record})[1:-1]


@dataclass
class CampaignRunner:
    """Drives one campaign to completion, surviving interruptions.

    The manifest at ``checkpoint_path`` (optional) is rewritten
    atomically after every settled shard, from each record's JSON text
    encoded once; a rerun with the same config skips everything the
    manifest already holds.  A manifest written by
    a *different* config is refused unless ``fresh=True`` discards it.
    """

    config: CampaignConfig
    checkpoint_path: Optional[Path] = None
    max_workers: int = 1
    #: Directory pool workers write ``worker-<pid>.trace.jsonl`` files
    #: into (``<trace>.workers/``); None keeps propagation off.  Not
    #: part of :class:`CampaignConfig` — tracing must not change the
    #: fingerprint, a resumed campaign may toggle it freely.
    trace_dir: Optional[Path] = None
    shard_timeout: Optional[float] = None
    max_retries: int = 2
    fresh: bool = False
    progress: Optional[Callable[[str], None]] = None
    #: Stop driving after this many newly executed shards (the manifest
    #: stays valid for resume).  Lets tests and operators simulate /
    #: bound an interruption.
    stop_after_shards: Optional[int] = None
    #: Executed-this-run counter, readable after :meth:`run`.
    executed_shards: int = field(default=0, init=False)
    #: The installed chaos injector, resolved once per :meth:`run`.
    _chaos: ChaosInjector | NullChaosInjector = field(
        default_factory=NullChaosInjector, init=False
    )
    #: Whether the last checkpoint write was torn (by injection); the
    #: next good save reports the self-heal.
    _torn: bool = field(default=False, init=False)
    #: With a checkpoint, the manifest's JSON text up to its shards, and
    #: each shard record's text (``"id": {...}``) in manifest order,
    #: encoded once when the shard is loaded or settles; a save joins
    #: them into the bytes ``json.dumps`` of the manifest would give.
    _head: str = field(default="", init=False, repr=False)
    _texts: dict[str, str] = field(
        default_factory=dict, init=False, repr=False
    )

    def run(self) -> dict:
        self._chaos = get_chaos()
        manifest = self._load_manifest()
        site_totals = manifest.get("site_totals") if manifest else None
        if site_totals is None:
            # On the shards' own experiments (a shard's payload takes
            # its experiment's fields from the config), so an
            # in-process shard reuses the app this count built.
            site_totals = {
                app: _shard_experiment(
                    {**self.config.to_dict(), "app": app}
                ).total_steps()
                for app in self.config.apps
            }
        planned = plan_shards(self.config, site_totals)
        records: dict[str, dict] = dict(manifest["shards"]) if manifest else {}
        self._manifest = {
            "schema": CAMPAIGN_SCHEMA,
            "fingerprint": self.config.fingerprint(),
            "config": self.config.to_dict(),
            "site_totals": site_totals,
            "shards": records,
        }
        if self.checkpoint_path is not None:
            head = dict(self._manifest)
            del head["shards"]
            self._head = json.dumps(head)[:-1] + ', "shards": {'
            self._texts = {
                shard_id: _shard_text(shard_id, record)
                for shard_id, record in records.items()
            }
        pending = [s for s in planned if s.shard_id not in records]
        self._note(
            f"campaign: {len(planned)} shards planned, "
            f"{len(planned) - len(pending)} already checkpointed, "
            f"{len(pending)} to run"
        )
        get_event_log().emit(
            "campaign.plan",
            level="info",
            apps=list(self.config.apps),
            mode=self.config.mode,
            planned=len(planned),
            checkpointed=len(planned) - len(pending),
            pending=len(pending),
        )
        if pending:
            self._drive(pending)
        if self._torn:
            # The last checkpoint write was torn and no later write
            # healed it: write it again, so no run ends on a torn file.
            self._save_manifest()
        return aggregate_report(self.config, site_totals, planned, records)

    # -- execution -------------------------------------------------------

    def _drive(self, pending: list[Shard]) -> None:
        chaos = self._chaos
        pool = ResilientPool(
            max_workers=self.max_workers,
            task_timeout=self.shard_timeout,
            max_retries=self.max_retries,
            # Seeded jitter: the same campaign backs off identically on
            # every run, so chaos runs are reproducible end to end.
            rng=random.Random(f"backoff:{self.config.seed}"),
        )
        tracer = get_tracer()
        # Worker faults cross the pickle boundary as part of the shard
        # payload; in-process mode keeps them off (a SIGKILL or a hang
        # would take the driver down with the shard).
        worker_chaos = (
            chaos.worker_payload() if self.max_workers > 1 else None
        )
        payloads = []
        for shard in pending:
            payload = shard.payload(self.config)
            if worker_chaos is not None:
                payload["chaos"] = worker_chaos
            payloads.append(payload)
        with tracer.span("campaign_drive", shards=len(pending)) as drive:
            # Stamped inside the span so workers parent under
            # campaign_drive itself; None (tracing off) stays absent
            # from the payload, byte-identical to pre-tracing shards.
            shard_trace = shard_trace_payload(self.trace_dir)
            if shard_trace is not None:
                for payload in payloads:
                    payload["trace"] = shard_trace
            drive_start = time.perf_counter()
            for index, result in pool.run(run_shard, payloads):
                shard = pending[index]
                settled = time.perf_counter() - drive_start
                attempts = pool.attempts_of(index)
                if chaos.enabled and attempts > 1 and not isinstance(
                    result, TaskFailure
                ):
                    # A shard that needed retries under chaos recovered
                    # from a crash/hang; record the recovery action.
                    chaos_recovery(
                        "shard-retried",
                        "campaign.result",
                        shard_id=shard.shard_id,
                        attempts=attempts,
                    )
                deliveries = 1 + int(
                    chaos.duplicate_point("campaign.result", shard.shard_id)
                )
                for _ in range(deliveries):
                    self._settle(shard, result, settled, attempts, tracer)
                self.executed_shards += 1
                if (
                    self.stop_after_shards is not None
                    and self.executed_shards >= self.stop_after_shards
                ):
                    self._note("campaign: stop_after_shards reached, pausing")
                    break
            drive.count("executed_shards", self.executed_shards)

    def _settle(
        self, shard: Shard, result, settled: float, attempts: int, tracer
    ) -> None:
        """Absorb one delivery of a settled shard: metrics, events, the
        manifest record, the checkpoint.  Idempotent — a delivery for a
        shard the manifest already holds (a chaos-injected duplicate, or
        a replay after partial resume) is ignored without double-counting
        anything."""
        metrics = global_registry()
        events = get_event_log()
        if shard.shard_id in self._manifest["shards"]:
            chaos_recovery(
                "duplicate-ignored",
                "campaign.result",
                shard_id=shard.shard_id,
            )
            metrics.counter(
                "repro_campaign_duplicates_ignored",
                "duplicate shard deliveries discarded",
            ).inc()
            return
        if isinstance(result, TaskFailure):
            record = {
                "status": "infra-failed",
                "reason": result.reason,
                "message": result.message,
                "attempts": result.attempts,
            }
            metrics.counter(
                "repro_campaign_shards_infra_failed",
                "shards given up on after retries",
            ).inc()
            self._note(
                f"shard {shard.shard_id}: infra-failed "
                f"({result.reason} after {result.attempts} attempts)"
            )
            events.emit(
                "campaign.shard",
                "given up on after retries",
                level="error",
                shard_id=shard.shard_id,
                app=shard.app,
                status="infra-failed",
                reason=result.reason,
                attempts=result.attempts,
            )
        else:
            run_seconds = float(result.get("run_seconds", 0.0))
            obs = {
                "run_seconds": round(run_seconds, 6),
                "queue_wait_seconds": round(
                    max(0.0, settled - run_seconds), 6
                ),
                "attempts": attempts,
                "retries": attempts - 1,
                "timeouts": sum(
                    1 for t in result["trials"]
                    if t["verdict"] == TIMEOUT
                ),
                "pid": result.get("pid"),
                # Worker peak RSS (memory telemetry, PR 10); manifests
                # from older campaigns simply lack the key.
                "peak_rss_bytes": result.get("peak_rss_bytes"),
            }
            record = {
                "status": "done",
                "trials": result["trials"],
                "obs": obs,
            }
            with tracer.span(
                "shard", shard_id=shard.shard_id, app=shard.app
            ) as span:
                span.count("trials", len(result["trials"]))
                span.count("run_seconds", obs["run_seconds"])
                span.count(
                    "queue_wait_seconds", obs["queue_wait_seconds"]
                )
                span.count("retries", obs["retries"])
                span.count("timeouts", obs["timeouts"])
            metrics.counter(
                "repro_campaign_shards_done", "shards completed"
            ).inc()
            metrics.counter(
                "repro_campaign_shard_retries",
                "extra attempts shards needed",
            ).inc(obs["retries"])
            metrics.counter(
                "repro_campaign_trials_total", "trials executed"
            ).inc(len(result["trials"]))
            metrics.counter(
                "repro_campaign_trial_timeouts",
                "trials stopped by the step-budget watchdog",
            ).inc(obs["timeouts"])
            self._note(
                f"shard {shard.shard_id}: "
                f"{len(result['trials'])} trials"
            )
            # Workers are separate processes, so the trial.*
            # events from stabilization.py never reach the
            # driver's log; the shard summary is the driver-side
            # record of what crossed the pool boundary.
            events.emit(
                "campaign.shard",
                level="info",
                shard_id=shard.shard_id,
                app=shard.app,
                status="done",
                trials=len(result["trials"]),
                run_seconds=obs["run_seconds"],
                retries=obs["retries"],
                timeouts=obs["timeouts"],
                peak_rss_bytes=obs["peak_rss_bytes"],
            )
        self._manifest["shards"][shard.shard_id] = record
        if self.checkpoint_path is not None:
            self._texts[shard.shard_id] = _shard_text(shard.shard_id, record)
        self._save_manifest()

    # -- checkpointing ---------------------------------------------------

    def _load_manifest(self) -> Optional[dict]:
        if self.checkpoint_path is None or self.fresh:
            return None
        path = Path(self.checkpoint_path)
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            # A torn or truncated checkpoint (driver killed mid-write on
            # a filesystem without atomic rename, disk full, …) is an
            # arbitrary initial state, not a fatal one: quarantine it for
            # the post-mortem and resume from scratch — the same move
            # the disk cache makes for corrupt entries.
            quarantine = path.with_suffix(path.suffix + ".quarantined")
            try:
                os.replace(path, quarantine)
            except OSError:
                return None
            chaos_recovery(
                "manifest-quarantined",
                "manifest.checkpoint",
                path=str(path),
                quarantine=str(quarantine),
                error=str(exc),
            )
            self._note(
                f"checkpoint {path} is torn ({exc}); quarantined to "
                f"{quarantine.name} and restarting the sweep"
            )
            return None
        if manifest.get("fingerprint") != self.config.fingerprint():
            raise CampaignError(
                f"checkpoint {path} belongs to a different campaign "
                f"configuration; rerun with fresh=True / --fresh to discard it"
            )
        return manifest

    def _save_manifest(self) -> None:
        if self.checkpoint_path is None:
            return
        path = Path(self.checkpoint_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = self._head + ", ".join(self._texts.values()) + "}}"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        torn = self._chaos.torn_write(
            "manifest.checkpoint",
            f"{path.name}:{len(self._manifest['shards'])}",
        )
        if torn == "truncate":
            # Injected crash mid-write of the final file: half the
            # payload lands at the target (no tmp+rename discipline).
            path.write_text(blob[: len(blob) // 2], encoding="utf-8")
            self._torn = True
            return
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
            handle.flush()
            # The rename below is atomic, but atomicity without
            # durability can still resurface a pre-crash (torn) file
            # after power loss; fsync before replace closes that window.
            os.fsync(handle.fileno())
        if torn == "no-rename":
            # Injected crash between write and rename: tmp is complete,
            # the target keeps its stale previous content.
            self._torn = True
            return
        os.replace(tmp, path)  # atomic: a killed driver never corrupts it
        if self._torn:
            # Each checkpoint rewrites the whole manifest, so the first
            # good save after a torn one heals the file on disk.
            chaos_recovery(
                "manifest-rewritten",
                "manifest.checkpoint",
                path=str(path),
                shards=len(self._manifest["shards"]),
            )
            self._torn = False

    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
