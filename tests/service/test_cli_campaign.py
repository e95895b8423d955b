"""CLI surface of fault-injection campaigns: ``repro campaign``."""

from __future__ import annotations

import json
import socket

from repro.cli import main
from repro.service import protocol

ARGS = [
    "campaign", "--apps", "wind_sensor", "--trials", "8", "--strata", "4",
    "--iterations", "12", "--seed", "7", "--shard-size", "2",
]


class TestCampaignCli:
    def test_json_output_validates(self, capsys):
        assert main(ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        protocol.validate_campaign_payload(payload)
        assert payload["complete"] is True

    def test_human_output_summarizes_each_app(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        assert "wind_sensor" in out
        assert "shards" in out

    def test_report_file_written(self, tmp_path, capsys):
        report_path = tmp_path / "campaign.json"
        assert main(ARGS + ["--report", str(report_path)]) == 0
        capsys.readouterr()
        payload = protocol.loads(report_path.read_text())
        protocol.validate_campaign_payload(payload)

    def test_checkpointed_run_resumes_via_cli(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        run_args = ARGS + ["--checkpoint", str(checkpoint), "--json"]
        assert main(run_args) == 0
        first = json.loads(capsys.readouterr().out)
        assert checkpoint.exists()
        # second invocation resumes a finished checkpoint: no re-run,
        # identical aggregate statistics
        assert main(run_args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["apps"] == first["apps"]

    def test_mismatched_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        assert main(ARGS + ["--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        other = ARGS + ["--seed", "8", "--checkpoint", str(checkpoint)]
        assert main(other) == 2
        assert "--fresh" in capsys.readouterr().err
        assert main(other + ["--fresh"]) == 0

    def test_unknown_app_is_a_usage_error(self, capsys):
        assert main(["campaign", "--apps", "toaster"]) == 2
        assert "toaster" in capsys.readouterr().err

    def test_http_port_serves_while_the_campaign_runs(self, capsys):
        assert main(ARGS + ["--http-port", "0", "--json"]) == 0
        captured = capsys.readouterr()
        assert "observability plane on http://127.0.0.1:" in captured.err
        assert json.loads(captured.out)["complete"] is True

    def test_unbindable_http_port_is_a_campaign_error(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            assert main(ARGS + ["--http-port", str(port)]) == 2
        assert "campaign error: cannot bind" in capsys.readouterr().err


class TestCampaignDistributedTrace:
    """``repro campaign --trace``: shard spans land in per-worker files
    and merge back into one causally-linked multi-process trace."""

    def _run(self, tmp_path, capsys, extra=()):
        from repro.obs.propagate import reset_worker_tracers

        trace = tmp_path / "campaign.trace.jsonl"
        try:
            assert main(
                ARGS + ["--trace", str(trace), "--json", *extra]
            ) == 0
        finally:
            reset_worker_tracers()
        capsys.readouterr()
        return trace

    def test_merged_trace_links_shards_under_the_campaign(
        self, tmp_path, capsys
    ):
        """Acceptance: after a traced campaign, every worker-side
        ``worker.shard`` span is reachable from the driver's campaign
        root, and the merged file is schema-valid with no orphans."""
        import warnings

        from repro.obs import build_forest, validate_trace

        trace = self._run(tmp_path, capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no orphan warnings allowed
            events = validate_trace(trace)
        roots = build_forest(events)
        campaign_roots = [
            root for root in roots if root.name == "repro.campaign"
        ]
        assert len(campaign_roots) == 1
        names = [span.name for span in campaign_roots[0].walk()]
        shards = [n for n in names if n == "worker.shard"]
        assert len(shards) == 4  # 8 trials / shard-size 2
        assert "campaign_drive" in names
        # worker-side library spans nested under the shard roots
        shard_spans = [
            span for span in campaign_roots[0].walk()
            if span.name == "worker.shard"
        ]
        for shard in shard_spans:
            assert shard.attrs["pid"]
            assert shard.counters["trials"] == 2
            assert shard.children, "no spans nested under the shard"

    def test_every_event_carries_pid_provenance(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace = self._run(tmp_path, capsys)
        events = read_trace(trace)
        assert events and all("pid" in event for event in events)

    def test_merge_message_and_worker_files_remain(self, tmp_path, capsys):
        from repro.obs.propagate import reset_worker_tracers

        trace = tmp_path / "campaign.trace.jsonl"
        try:
            assert main(ARGS + ["--trace", str(trace)]) == 0
        finally:
            reset_worker_tracers()
        err = capsys.readouterr().err
        assert "merged 1 worker trace file(s)" in err
        workers = sorted((tmp_path / "campaign.trace.jsonl.workers").glob(
            "worker-*.trace.jsonl"
        ))
        assert len(workers) == 1  # in-process: one worker file, our pid
        import os

        assert workers[0].name == f"worker-{os.getpid()}.trace.jsonl"

    def test_untraced_campaign_writes_no_worker_dir(self, tmp_path, capsys):
        assert main(ARGS + ["--json"]) == 0
        capsys.readouterr()
        assert not list(tmp_path.iterdir())

    def test_metrics_tree_renders_the_merged_forest(
        self, tmp_path, capsys
    ):
        trace = self._run(tmp_path, capsys)
        assert main(["metrics", "--trace", str(trace), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "repro.campaign" in out
        assert "worker.shard" in out
        assert "└─" in out
