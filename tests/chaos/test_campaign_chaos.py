"""Campaign under chaos: the convergence oracle and the hardened
driver paths (duplicate delivery, torn manifest, worker crash/hang).

Worker-fault tests spawn real process pools and kill/hang real workers,
so they use tiny campaigns; everything else runs in-process with
targeted fault classes.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosInjector,
    NullChaosInjector,
    installed_chaos,
    run_campaign_oracle,
)
from repro.obs import EventBuffer, EventLog, installed_event_log
from repro.runtime.campaign import CampaignConfig, CampaignRunner

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def tiny_config(**overrides) -> CampaignConfig:
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


def clean_report(config: CampaignConfig) -> dict:
    with installed_chaos(NullChaosInjector()):
        return CampaignRunner(config=config).run()


def apps_blob(report: dict) -> str:
    return json.dumps(report["apps"], sort_keys=True)


class TestDuplicateShard:
    def test_duplicates_are_ignored_not_double_counted(self, tmp_path):
        config = tiny_config()
        baseline = clean_report(config)
        buffer = EventBuffer(capacity=256)
        injector = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("duplicate-shard",))
        )
        with installed_event_log(EventLog(level="debug", sinks=(buffer,))):
            with installed_chaos(injector):
                report = CampaignRunner(
                    config=config, checkpoint_path=tmp_path / "ck.json"
                ).run()
        assert apps_blob(report) == apps_blob(baseline)
        assert report["complete"]
        # Every shard was delivered twice; every second delivery was
        # discarded and recorded as a recovery action.
        duplicates = [
            e for e in buffer.records
            if e["name"] == "chaos.recovery"
            and e["attrs"]["action"] == "duplicate-ignored"
        ]
        assert len(duplicates) == injector.summary()["injected"] > 0


class TestTornManifest:
    def test_torn_checkpoints_self_heal_and_stats_match(self, tmp_path):
        config = tiny_config()
        baseline = clean_report(config)
        injector = ChaosInjector(
            ChaosConfig(rate=0.5, faults=("torn-manifest",))
        )
        with installed_chaos(injector):
            report = CampaignRunner(
                config=config, checkpoint_path=tmp_path / "ck.json"
            ).run()
        assert apps_blob(report) == apps_blob(baseline)
        assert injector.summary()["injected"] > 0

    def test_a_torn_last_checkpoint_is_rewritten(self, tmp_path):
        """Every write tears once, the last one included; the run still
        ends with a readable manifest holding every shard."""
        checkpoint = tmp_path / "ck.json"
        injector = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("torn-manifest",))
        )
        with installed_chaos(injector):
            report = CampaignRunner(
                config=tiny_config(), checkpoint_path=checkpoint
            ).run()
        manifest = json.loads(checkpoint.read_text())
        assert len(manifest["shards"]) == report["shards"]["planned"]

    def test_resume_after_torn_final_checkpoint(self, tmp_path):
        """Tear every checkpoint write, stop mid-campaign, then resume
        without chaos: the torn file is quarantined, the sweep restarts,
        and the final statistics still match the fault-free run."""
        config = tiny_config()
        baseline = clean_report(config)
        checkpoint = tmp_path / "ck.json"
        injector = ChaosInjector(
            ChaosConfig(rate=1.0, faults=("torn-manifest",))
        )
        with installed_chaos(injector):
            CampaignRunner(
                config=config,
                checkpoint_path=checkpoint,
                stop_after_shards=2,
            ).run()
        assert injector.summary()["injected"] > 0
        with installed_chaos(NullChaosInjector()):
            report = CampaignRunner(
                config=config, checkpoint_path=checkpoint
            ).run()
        assert report["complete"]
        assert apps_blob(report) == apps_blob(baseline)
        # Either the interrupted run left valid JSON (no-rename tear:
        # stale target) and resume picked it up, or it left garbage
        # (truncate tear) and resume quarantined it.
        healed = json.loads(checkpoint.read_text())
        assert healed["fingerprint"] == config.fingerprint()


class TestWorkerFaults:
    def test_crashed_and_hung_workers_converge_to_clean_stats(self, tmp_path):
        """The acceptance test for WORKER_FAULTS: SIGKILLs and hangs in
        real pool workers, exactly-once via the cross-process ledger,
        and the chaotic stats still match the fault-free run."""
        config = tiny_config(trials=4, strata=2, shard_size=2)
        baseline = clean_report(config)
        injector = ChaosInjector(ChaosConfig(
            rate=0.5,
            faults=("worker-crash", "worker-hang"),
            state_dir=str(tmp_path / "ledger"),
            hang_seconds=8.0,
            max_fires=2,
        ))
        with installed_chaos(injector):
            report = CampaignRunner(
                config=config,
                checkpoint_path=tmp_path / "ck.json",
                max_workers=2,
                shard_timeout=5.0,
                max_retries=6,
            ).run()
        assert report["complete"]
        assert report["shards"]["infra_failed"] == 0
        assert apps_blob(report) == apps_blob(baseline)
        assert injector.summary()["injected"] > 0


class TestCampaignOracle:
    def test_oracle_holds_in_process(self, tmp_path):
        result = run_campaign_oracle(
            tiny_config(),
            ChaosConfig(
                rate=1.0,
                faults=("duplicate-shard", "torn-manifest", "slow-io"),
                slow_io_seconds=0.0,
            ),
            work_dir=tmp_path,
        )
        assert result["oracle"]["holds"]
        assert result["oracle"]["identical"]
        assert result["oracle"]["infra_failed"] == 0
        assert result["faults"]["injected"] > 0
        assert result["kind_detail"] == "campaign"

    def test_oracle_emits_verdict_event_and_replays_worker_faults(
        self, tmp_path
    ):
        buffer = EventBuffer(capacity=512)
        with installed_event_log(EventLog(level="debug", sinks=(buffer,))):
            result = run_campaign_oracle(
                tiny_config(trials=4, strata=2),
                ChaosConfig(rate=1.0, faults=("duplicate-shard",)),
                work_dir=tmp_path,
            )
        assert result["oracle"]["holds"]
        [verdict] = [
            e for e in buffer.records if e["name"] == "chaos.oracle"
        ]
        assert verdict["level"] == "info"
        assert verdict["attrs"]["holds"] is True
        # Every injected fault is visible as a chaos.* event.
        injected_events = [
            e for e in buffer.records
            if e["name"].startswith("chaos.")
            and e["name"] not in ("chaos.recovery", "chaos.oracle")
            and "fault" in e["attrs"]
        ]
        assert len(injected_events) >= result["faults"]["injected"]

    def test_oracle_reports_a_violation_honestly(self, tmp_path, monkeypatch):
        """A chaos run whose stats diverge must yield holds=False, not
        a masked pass.  Forced by making the chaotic run drop a shard
        record (simulating a dedupe bug)."""
        from repro.runtime import campaign as campaign_mod

        original = campaign_mod.CampaignRunner._settle
        state = {"dropped": False}

        def lossy_settle(self, shard, result, settled, attempts, tracer):
            if self._chaos.enabled and not state["dropped"]:
                state["dropped"] = True
                return  # lose the first chaotic shard silently
            return original(self, shard, result, settled, attempts, tracer)

        monkeypatch.setattr(
            campaign_mod.CampaignRunner, "_settle", lossy_settle
        )
        result = run_campaign_oracle(
            tiny_config(trials=4, strata=2),
            ChaosConfig(rate=0.0),
            work_dir=tmp_path,
        )
        assert not result["oracle"]["holds"]
        assert not result["oracle"]["identical"]
