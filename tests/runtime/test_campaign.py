"""Fault-injection campaigns: planning, checkpoint/resume, watchdog,
report aggregation (the ISSUE 2 tentpole acceptance tests live here)."""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.runtime import campaign
from repro.runtime.campaign import (
    DIVERGED,
    MASKED,
    NOT_INJECTED,
    RECOVERED,
    TIMEOUT,
    CampaignConfig,
    CampaignError,
    CampaignRunner,
    plan_shards,
    plan_sites,
    run_shard,
    verdict_of,
)
from repro.runtime.stabilization import InjectionTrial
from repro.service import protocol

GOLDEN_DIR = Path(__file__).parent.parent / "service" / "golden"


def small_config(**overrides) -> CampaignConfig:
    base = dict(
        apps=("wind_sensor",),
        mode="stratified",
        trials=8,
        strata=4,
        iterations=12,
        seed=7,
        shard_size=2,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestSitePlanning:
    def test_exhaustive_covers_every_site(self):
        sites = plan_sites("exhaustive", 37, trials=0, strata=1,
                           max_sites=None, rng=random.Random(0))
        assert sites == list(range(37))

    def test_exhaustive_thinning_is_even_not_a_prefix(self):
        sites = plan_sites("exhaustive", 100, trials=0, strata=1,
                           max_sites=10, rng=random.Random(0))
        assert len(sites) == 10
        assert sites == sorted(set(sites))
        assert sites[-1] >= 90  # the tail of the site space is reached

    def test_stratified_hits_every_stratum(self):
        total, strata = 80, 8
        sites = plan_sites("stratified", total, trials=16, strata=strata,
                           max_sites=None, rng=random.Random(1))
        hit = {site * strata // total for site in sites}
        assert hit == set(range(strata))

    def test_stratified_is_deterministic_per_seed(self):
        kwargs = dict(trials=16, strata=4, max_sites=None)
        a = plan_sites("stratified", 60, rng=random.Random(3), **kwargs)
        b = plan_sites("stratified", 60, rng=random.Random(3), **kwargs)
        assert a == b

    def test_uniform_length(self):
        sites = plan_sites("uniform", 50, trials=12, strata=1,
                           max_sites=None, rng=random.Random(2))
        assert len(sites) == 12
        assert all(0 <= s < 50 for s in sites)

    def test_unknown_mode_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(apps=("wind_sensor",), mode="chaotic")

    def test_unknown_app_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(apps=("toaster",))


class TestShardPlanning:
    def test_chunking_and_determinism(self):
        config = small_config()
        shards = plan_shards(config, {"wind_sensor": 120})
        assert plan_shards(config, {"wind_sensor": 120}) == shards
        assert all(len(s.sites) <= config.shard_size for s in shards)
        assert len({s.shard_id for s in shards}) == len(shards)
        total_sites = sum(len(s.sites) for s in shards)
        assert total_sites == 8  # trials=8, stratified

    def test_fingerprint_tracks_the_sweep(self):
        assert small_config().fingerprint() == small_config().fingerprint()
        assert (small_config(seed=8).fingerprint()
                != small_config().fingerprint())
        assert (small_config(mode="uniform").fingerprint()
                != small_config().fingerprint())

    def test_config_round_trips(self):
        config = small_config()
        assert CampaignConfig.from_dict(config.to_dict()) == config


def _trial(**overrides) -> InjectionTrial:
    base = dict(
        target_step=5,
        injection_iteration=2,
        corrupted_output=True,
        recovery_samples=4,
        recovery_iterations=1,
    )
    base.update(overrides)
    return InjectionTrial(**base)


class TestVerdicts:
    def test_recovered(self):
        assert verdict_of(_trial()) == RECOVERED

    def test_masked(self):
        trial = _trial(corrupted_output=False, recovery_samples=None,
                       recovery_iterations=None)
        assert verdict_of(trial) == MASKED

    def test_diverged(self):
        trial = _trial(recovery_samples=None, recovery_iterations=None,
                       diverged=True)
        assert verdict_of(trial) == DIVERGED

    def test_timeout_wins_over_everything(self):
        trial = _trial(timed_out=True, injection_iteration=None,
                       recovery_samples=None, recovery_iterations=None)
        assert verdict_of(trial) == TIMEOUT

    def test_not_injected(self):
        trial = _trial(injection_iteration=None, corrupted_output=False,
                       recovery_samples=None, recovery_iterations=None)
        assert verdict_of(trial) == NOT_INJECTED


def _strip_volatile(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed_seconds"}


class TestCampaignRun:
    def test_in_process_run_is_complete_and_valid(self, tmp_path):
        runner = CampaignRunner(config=small_config(),
                                checkpoint_path=tmp_path / "ck.json")
        report = runner.run()
        assert report["complete"] is True
        assert report["shards"]["planned"] == runner.executed_shards == 4
        payload = protocol.campaign_payload(report)
        protocol.validate_campaign_payload(payload)
        (entry,) = report["apps"]
        assert entry["trials"] == 8
        assert entry["injected"] + entry["not_injected"] == 8

    def test_interrupted_campaign_resumes_identically(self, tmp_path):
        """Acceptance criterion: a campaign killed mid-run resumes from
        its checkpoint without re-running completed shards and produces
        aggregate statistics identical to an uninterrupted run."""
        config = small_config()
        baseline = CampaignRunner(
            config=config, checkpoint_path=tmp_path / "baseline.json"
        ).run()
        assert baseline["shards"]["planned"] == 4

        # First leg dies (simulated) after two checkpointed shards.
        checkpoint = tmp_path / "interrupted.json"
        first_leg = CampaignRunner(config=config, checkpoint_path=checkpoint,
                                   stop_after_shards=2)
        partial = first_leg.run()
        assert first_leg.executed_shards == 2
        assert partial["complete"] is False

        # Second leg resumes: only the remaining shards execute.
        second_leg = CampaignRunner(config=config, checkpoint_path=checkpoint)
        resumed = second_leg.run()
        assert second_leg.executed_shards == 2
        assert resumed["complete"] is True
        assert resumed["apps"] == baseline["apps"]
        assert resumed["shards"] == baseline["shards"]

    def test_resume_skips_everything_when_done(self, tmp_path):
        config = small_config()
        checkpoint = tmp_path / "ck.json"
        CampaignRunner(config=config, checkpoint_path=checkpoint).run()
        rerun = CampaignRunner(config=config, checkpoint_path=checkpoint)
        report = rerun.run()
        assert rerun.executed_shards == 0
        assert report["complete"] is True

    def test_checkpoint_of_other_config_is_refused(self, tmp_path):
        checkpoint = tmp_path / "ck.json"
        CampaignRunner(config=small_config(),
                       checkpoint_path=checkpoint).run()
        other = CampaignRunner(config=small_config(seed=8),
                               checkpoint_path=checkpoint)
        with pytest.raises(CampaignError, match="different campaign"):
            other.run()
        fresh = CampaignRunner(config=small_config(seed=8),
                               checkpoint_path=checkpoint, fresh=True)
        assert fresh.run()["complete"] is True

    def test_corrupted_checkpoint_is_quarantined_and_resumed(self, tmp_path):
        """A torn/truncated manifest is an arbitrary initial state, not a
        fatal one: it is moved aside for the post-mortem and the sweep
        restarts from scratch, completing as if uninterrupted."""
        checkpoint = tmp_path / "ck.json"
        checkpoint.write_text('{"fingerprint": "x", "shards": ')  # truncated
        runner = CampaignRunner(config=small_config(),
                                checkpoint_path=checkpoint)
        report = runner.run()
        assert report["complete"]
        quarantine = checkpoint.with_suffix(".json.quarantined")
        assert quarantine.exists()
        assert quarantine.read_text().startswith('{"fingerprint": "x"')
        # The healed checkpoint on disk is valid, resumable JSON again.
        manifest = json.loads(checkpoint.read_text())
        assert manifest["fingerprint"] == small_config().fingerprint()

    def test_checkpoint_survives_any_single_kill_point(self, tmp_path):
        """The manifest on disk is valid, resumable JSON after every
        shard boundary — the file a SIGKILLed driver leaves behind."""
        config = small_config()
        checkpoint = tmp_path / "ck.json"
        for stop in (1, 2, 3):
            runner = CampaignRunner(config=config, checkpoint_path=checkpoint,
                                    fresh=(stop == 1),
                                    stop_after_shards=stop)
            runner.run()
            manifest = json.loads(checkpoint.read_text())
            assert manifest["fingerprint"] == config.fingerprint()
        final = CampaignRunner(config=config, checkpoint_path=checkpoint)
        report = final.run()
        assert report["complete"] is True

    def test_checkpoint_encodes_each_record_once(self, tmp_path, monkeypatch):
        """A save joins texts encoded when their shard was loaded or
        settled, and the file still equals ``json.dumps`` of the
        manifest, after a run and after a resumed run."""
        encoded = []

        def dumps(obj, *args, **kwargs):
            encoded.append(obj)
            return json.dumps(obj, *args, **kwargs)

        monkeypatch.setattr(
            campaign, "json", SimpleNamespace(dumps=dumps, loads=json.loads)
        )
        config = small_config()
        checkpoint = tmp_path / "ck.json"
        for stop in (2, None):
            encoded.clear()
            runner = CampaignRunner(config=config, checkpoint_path=checkpoint,
                                    stop_after_shards=stop)
            runner.run()
            shards = runner._manifest["shards"]
            assert checkpoint.read_text() == json.dumps(runner._manifest)
            assert not any("shards" in obj for obj in encoded
                           if isinstance(obj, dict))
            records = [
                obj for obj in encoded
                if isinstance(obj, dict) and obj.keys() <= shards.keys()
            ]
            assert [next(iter(obj)) for obj in records] == list(shards)
        assert runner.executed_shards == 2 and len(shards) == 4

    def test_parallel_run_matches_in_process_run(self, tmp_path):
        config = small_config(shard_size=4)
        in_process = CampaignRunner(config=config).run()
        parallel = CampaignRunner(config=config, max_workers=2,
                                  shard_timeout=120.0).run()
        assert _strip_volatile(parallel) == _strip_volatile(in_process)

    def test_in_process_campaign_builds_each_app_once(self, monkeypatch):
        """The driver counts each app's sites on the experiment its
        in-process shards then run."""
        built = []
        resolve = campaign.resolve_experiment

        def counted(app, *args, **kwargs):
            built.append(app)
            return resolve(app, *args, **kwargs)

        monkeypatch.setattr(campaign, "_experiments", {})
        monkeypatch.setattr(campaign, "resolve_experiment", counted)
        config = small_config(apps=("wind_sensor", "heart_monitor"))
        report = CampaignRunner(config=config, max_workers=1).run()
        assert report["complete"] is True
        assert built == ["wind_sensor", "heart_monitor"]

    def test_tiny_step_budget_records_timeouts_not_hangs(self):
        """End-to-end watchdog path: with an absurd budget every injected
        run trips the watchdog and is recorded as ``timeout``."""
        config = small_config(step_budget=5, step_budget_factor=None)
        report = CampaignRunner(config=config).run()
        (entry,) = report["apps"]
        assert entry["timeout"] == entry["trials"]
        assert entry["timeout_rate"] == 1.0
        payload = protocol.campaign_payload(report)
        protocol.validate_campaign_payload(payload)


class TestRunShardWorker:
    def test_worker_round_trips_plain_dicts(self):
        config = small_config()
        shards = plan_shards(config, {"wind_sensor": 120})
        payload = shards[0].payload(config)
        result = run_shard(json.loads(json.dumps(payload)))  # wire-safe
        assert result["shard_id"] == shards[0].shard_id
        assert len(result["trials"]) == len(shards[0].sites)
        for trial in result["trials"]:
            assert trial["app"] == "wind_sensor"
            assert trial["verdict"] in (
                MASKED, RECOVERED, DIVERGED, TIMEOUT, NOT_INJECTED
            )


class TestGoldenReport:
    def test_report_matches_golden_file(self):
        """The campaign report schema is pinned byte-for-byte (the
        executable form of docs/ROBUSTNESS.md): planning, trial
        outcomes and aggregation are all deterministic for a fixed
        config."""
        config = CampaignConfig(
            apps=("wind_sensor",), mode="stratified", trials=8, strata=4,
            iterations=12, seed=7, shard_size=4,
        )
        report = CampaignRunner(config=config).run()
        payload = protocol.campaign_payload(report)
        protocol.validate_campaign_payload(payload)
        golden = json.loads(
            (GOLDEN_DIR / "campaign.report.json").read_text()
        )
        assert payload == golden
