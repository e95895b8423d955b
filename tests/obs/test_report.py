"""The HTML campaign dashboard: determinism, golden bytes, and the
convergence-curve acceptance criterion (final point == recovery
distance)."""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import pytest

from repro.obs import (
    EventLog,
    JsonlEventWriter,
    REPORT_SCHEMA,
    render_report,
    write_report,
)

GOLDEN = Path(__file__).parent / "golden" / "report.golden.html"


def _reference_manifest() -> dict:
    """A hand-built two-shard manifest: one recovered trial with
    telemetry, one masked, one diverged, one infra-failed shard, and a
    telemetry-free record as an old manifest would hold."""
    return {
        "schema": 1,
        "fingerprint": "c0ffee" * 10 + "beef",
        "config": {
            "apps": ["wind_sensor"],
            "mode": "stratified",
            "trials": 4,
            "strata": 2,
            "max_sites": None,
            "iterations": 8,
            "burst": 1,
            "seed": 7,
            "shard_size": 2,
            "step_budget": None,
            "step_budget_factor": 64,
            "histogram_bin": 8,
        },
        "site_totals": {"wind_sensor": 40},
        "shards": {
            "wind_sensor:0000": {
                "status": "done",
                "trials": [
                    {
                        "app": "wind_sensor", "site": 3,
                        "verdict": "recovered",
                        "injection_iteration": 2,
                        "recovery_samples": 3,
                        "recovery_iterations": 2,
                        "error_log_size": 0,
                        "telemetry": {
                            "divergence": [0, 0, 2, 1, 0, 0, 0, 0],
                            "convergence": [2, 3, 3, 3, 3, 3],
                        },
                    },
                    {
                        "app": "wind_sensor", "site": 11,
                        "verdict": "masked",
                        "injection_iteration": 1,
                        "recovery_samples": None,
                        "recovery_iterations": None,
                        "error_log_size": 1,
                        "telemetry": {
                            "divergence": [0] * 8,
                            "convergence": None,
                        },
                    },
                ],
                "obs": {
                    "run_seconds": 0.25, "queue_wait_seconds": 0.05,
                    "attempts": 1, "retries": 0, "timeouts": 0,
                    "pid": 4242, "peak_rss_bytes": 44040192,
                },
            },
            "wind_sensor:0001": {
                "status": "done",
                "trials": [
                    {
                        # A pre-telemetry record: no "telemetry" key.
                        "app": "wind_sensor", "site": 23,
                        "verdict": "diverged",
                        "injection_iteration": 4,
                        "recovery_samples": None,
                        "recovery_iterations": None,
                        "error_log_size": 0,
                    },
                ],
                "obs": {
                    "run_seconds": 0.5, "queue_wait_seconds": 0.1,
                    "attempts": 2, "retries": 1, "timeouts": 0,
                },
            },
            "wind_sensor:0002": {
                "status": "infra-failed",
                "reason": "timeout",
                "message": "shard exceeded 120s",
                "attempts": 3,
            },
        },
    }


def _reference_events(path: Path) -> None:
    counter = itertools.count()
    with JsonlEventWriter(path) as writer:
        log = EventLog(
            level="debug", sinks=(writer,),
            clock=lambda: next(counter) * 0.5,
        )
        log.emit("campaign.plan", level="info", planned=3)
        log.emit("trial.corrupted", "fault injected", site=3, iteration=2)
        log.emit(
            "trial.recovered", "outputs re-converged",
            site=3, recovery_samples=3,
        )
        log.emit(
            "campaign.shard", "given up on after retries",
            level="error", shard_id="wind_sensor:0002", attempts=3,
        )


def _reference_bench() -> dict:
    return json.loads(
        (Path(__file__).parent / "golden" / "bench.golden.json").read_text()
    )


def _render(tmp_path: Path) -> str:
    events_path = tmp_path / "events.jsonl"
    _reference_events(events_path)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(_reference_manifest()))
    return write_report(
        tmp_path / "report.html",
        campaign_path=manifest_path,
        events_path=events_path,
        bench_paths=[
            Path(__file__).parent / "golden" / "bench.golden.json"
        ],
    )


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, tmp_path):
        first = _render(tmp_path / "a")
        second = _render(tmp_path / "b")
        (tmp_path / "a").mkdir(exist_ok=True)
        assert first == second

    def test_golden_report_is_byte_stable(self, tmp_path):
        (tmp_path / "run").mkdir()
        document = _render(tmp_path / "run")
        assert document == GOLDEN.read_text(encoding="utf-8")

    def test_no_timestamp_unless_asked(self):
        page = render_report(campaign=_reference_manifest())
        assert "Generated:" not in page
        stamped = render_report(
            campaign=_reference_manifest(),
            generated_at="2026-01-01T00:00:00Z",
        )
        assert "Generated: 2026-01-01T00:00:00Z" in stamped


class TestConvergenceCurves:
    def test_final_point_matches_recovery_distance(self):
        """Acceptance: every rendered curve's plateau equals the trial's
        recorded recovery distance in samples."""
        page = render_report(campaign=_reference_manifest())
        curves = re.findall(
            r'<svg[^>]*data-final="(\d+)"[^>]*'
            r'data-recovery-samples="(\d+)"',
            page,
        )
        assert curves, "no convergence curves rendered"
        for final, recorded in curves:
            assert final == recorded

    def test_old_manifest_without_telemetry_still_renders(self):
        manifest = _reference_manifest()
        for shard in manifest["shards"].values():
            for trial in shard.get("trials", []):
                trial.pop("telemetry", None)
        page = render_report(campaign=manifest)
        assert "pre-telemetry" in page
        assert 'data-report-schema="1"' in page

    def test_curve_cap_is_announced(self):
        from repro.obs.report import MAX_CURVES_PER_APP

        manifest = _reference_manifest()
        template = manifest["shards"]["wind_sensor:0000"]["trials"][0]
        many = [
            {**template, "site": site}
            for site in range(MAX_CURVES_PER_APP + 5)
        ]
        manifest["shards"]["wind_sensor:0000"]["trials"] = many
        page = render_report(campaign=manifest)
        assert page.count("<figure") == MAX_CURVES_PER_APP
        assert "5 more recovered trials not plotted" in page


def _distributed_manifest() -> dict:
    """A minimal dist-campaign manifest: one recovered trial carrying
    the per-node divergence matrix (rounds x nodes) and node digests."""
    return {
        "schema": 1,
        "fingerprint": "deadbeef" * 8,
        "config": {"apps": ["herman_bit"], "mode": "exhaustive"},
        "site_totals": {"herman_bit": 548},
        "shards": {
            "herman_bit:0000": {
                "status": "done",
                "trials": [
                    {
                        "app": "herman_bit", "site": 117, "node": 1,
                        "verdict": "recovered",
                        "injection_iteration": 3,
                        "recovery_samples": 10,
                        "recovery_iterations": 2,
                        "error_log_size": 0,
                        "telemetry": {
                            "divergence": [0, 0, 0, 2, 1, 0, 0, 0],
                            "convergence": [5, 10, 10, 10, 10],
                            "node_divergence": [
                                [0, 0, 0, 0, 0],
                                [0, 0, 0, 0, 0],
                                [0, 0, 0, 0, 0],
                                [0, 1, 1, 0, 0],
                                [0, 0, 1, 0, 0],
                                [0, 0, 0, 0, 0],
                                [0, 0, 0, 0, 0],
                                [0, 0, 0, 0, 0],
                            ],
                            "node_digests": ["ab"] * 5,
                        },
                    },
                ],
                "obs": {"run_seconds": 0.1},
            },
        },
    }


class TestPerNodePanel:
    def test_node_strips_rendered(self):
        page = render_report(campaign=_distributed_manifest())
        assert "Per-node divergence" in page
        assert 'data-nodes="5"' in page
        assert 'data-rounds="8"' in page
        assert 'data-node="1"' in page
        # three divergent (round, node) pairs -> three red cells
        assert page.count('class="cell"') == 3
        # the injection-round marker is present
        assert 'class="inject"' in page

    def test_single_node_manifest_has_no_panel(self):
        page = render_report(campaign=_reference_manifest())
        assert "Per-node divergence" not in page


class TestSections:
    def test_all_sections_present(self, tmp_path):
        page = _render(tmp_path)
        for heading in (
            "Campaign configuration", "Verdicts", "Convergence curves",
            "Recovery distance histogram", "Shard timeline", "Events",
            "Benchmark trend",
        ):
            assert heading in page

    def test_infra_failed_shard_marked(self, tmp_path):
        page = _render(tmp_path)
        assert "infra-failed" in page

    def test_html_escaping(self):
        manifest = _reference_manifest()
        page = render_report(
            campaign=manifest, title='<script>alert("x")</script>'
        )
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_empty_report_says_so(self):
        page = render_report()
        assert "Nothing to report" in page
        assert f'data-report-schema="{REPORT_SCHEMA}"' in page

    def test_zero_trial_manifest_renders_no_trials_page(self, tmp_path):
        """Regression: a checkpoint written before any shard completed
        (or one that planned zero trials) must render a valid page with
        an explicit note, not a table of vacuous zeros."""
        manifest = _reference_manifest()
        manifest["shards"] = {}
        manifest_path = tmp_path / "empty.json"
        manifest_path.write_text(json.dumps(manifest))
        document = write_report(
            tmp_path / "out.html", campaign_path=manifest_path
        )
        assert "No completed trials" in document
        assert "Campaign configuration" in document
        assert f'data-report-schema="{REPORT_SCHEMA}"' in document

    def test_bare_manifest_object_renders(self):
        page = render_report(campaign={})
        assert "No completed trials" in page

    def test_in_flight_manifest_keeps_timeline(self):
        manifest = _reference_manifest()
        for shard in manifest["shards"].values():
            shard["status"] = "running"
        page = render_report(campaign=manifest)
        assert "No completed trials" in page
        assert "Shard timeline" in page

    def test_events_only_report(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        _reference_events(events_path)
        document = write_report(
            tmp_path / "out.html", events_path=events_path
        )
        assert "Events" in document
        assert "Verdicts" not in document
        assert "campaign.shard" in document


def _chaos_events() -> list[dict]:
    from repro.obs import EventBuffer

    counter = itertools.count()
    buffer = EventBuffer(capacity=64)
    log = EventLog(
        level="debug", sinks=(buffer,), clock=lambda: next(counter) * 0.5
    )
    log.emit(
        "chaos.duplicate_shard", level="warn",
        fault="duplicate-shard", site="campaign.result", key="a:0000",
    )
    log.emit(
        "chaos.torn_manifest", level="warn",
        fault="torn-manifest", site="manifest.checkpoint", key="ck:1",
    )
    log.emit(
        "chaos.recovery", level="info",
        action="duplicate-ignored", site="campaign.result",
    )
    log.emit(
        "chaos.oracle", level="info",
        holds=True, identical=True, clean_complete=True,
        chaos_complete=True, infra_failed=0,
    )
    return list(buffer.records)


class TestChaosPanel:
    def test_chaos_events_render_the_panel(self):
        page = render_report(events=_chaos_events())
        assert "<h2>Chaos</h2>" in page
        assert "Convergence oracle" in page
        assert "Injected faults" in page
        assert "duplicate-shard" in page
        assert "torn-manifest" in page
        assert "Recovery actions" in page
        assert "duplicate-ignored" in page

    def test_chaos_free_events_render_no_panel(self, tmp_path):
        """Fault-free reports must stay byte-identical to builds that
        predate the chaos panel (the golden test pins this too)."""
        events_path = tmp_path / "events.jsonl"
        _reference_events(events_path)
        document = write_report(
            tmp_path / "out.html", events_path=events_path
        )
        assert "Chaos" not in document


class TestBenchInputValidation:
    """``repro report --bench`` loads BENCH files through read_bench:
    a malformed payload is a clean usage error, not a traceback or an
    empty table."""

    def _report(self, tmp_path, payload: dict, capsys) -> tuple[int, str]:
        from repro.cli import main

        bench = tmp_path / "bad.json"
        bench.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "report", "--html", str(tmp_path / "out.html"),
            "--bench", str(bench),
        ])
        assert not (tmp_path / "out.html").exists()
        return code, capsys.readouterr().err

    def test_scenario_without_median_exits_2(self, tmp_path, capsys):
        payload = _reference_bench()
        del payload["scenarios"][0]["median_seconds"]
        code, err = self._report(tmp_path, payload, capsys)
        assert code == 2
        assert err.startswith(
            f"error: unreadable input: {tmp_path / 'bad.json'}: "
        )
        assert "median_seconds must be a number" in err

    def test_envelope_without_body_exits_2(self, tmp_path, capsys):
        code, err = self._report(
            tmp_path, {"schema": 1, "kind": "bench"}, capsys
        )
        assert code == 2
        assert err.startswith(
            f"error: unreadable input: {tmp_path / 'bad.json'}: "
        )


MEMORY_REPORT_GOLDEN = (
    Path(__file__).parent / "golden" / "report_memory.golden.html"
)


class TestMemoryPanel:
    def test_memory_panel_renders_for_memory_bearing_bench(self, tmp_path):
        document = write_report(
            tmp_path / "report.html",
            bench_paths=[
                Path(__file__).parent / "golden"
                / "bench_memory.golden.json"
            ],
        )
        assert "<h2>Memory</h2>" in document
        assert "alloc median KiB" in document
        assert "peak RSS MiB" in document

    def test_no_memory_panel_without_memory_sections(self, tmp_path):
        document = write_report(
            tmp_path / "report.html",
            bench_paths=[
                Path(__file__).parent / "golden" / "bench.golden.json"
            ],
        )
        assert "<h2>Memory</h2>" not in document

    def test_golden_memory_report_is_byte_stable(self, tmp_path):
        """The memory panel, byte for byte — layout drift must be a
        conscious golden regeneration."""
        document = write_report(
            tmp_path / "report.html",
            bench_paths=[
                Path(__file__).parent / "golden"
                / "bench_memory.golden.json"
            ],
        )
        assert document == MEMORY_REPORT_GOLDEN.read_text(encoding="utf-8")
