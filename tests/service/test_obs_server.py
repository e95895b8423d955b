"""Daemon observability: spans, the metrics op, cache counters.

Covers the acceptance criterion (cache counters visible through the
``metrics`` op change across a warm re-check) and the concurrency
guarantee (two handler threads each grow their own well-nested span
tree — no interleaving).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import NullTracer, get_tracer
from repro.service.cache import ResultCache
from repro.service.client import ReproClient
from repro.service.server import ReproServer


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(
        tmp_path / "repro.sock",
        cache=ResultCache(disk_dir=tmp_path / "cache"),
    )
    thread = srv.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)
    srv.close()


class TestMetricsOp:
    def test_cache_counters_change_across_warm_recheck(
        self, server, wind_source
    ):
        """Acceptance criterion: the ``metrics`` op exposes cache
        counters, and a warm re-check moves them."""
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            cold = client.metrics()["metrics"]
            client.check(source=wind_source)
            warm = client.metrics()["metrics"]
        # schema 2 added bucket-interpolated quantile estimates to
        # histogram entries (see docs/OBSERVABILITY.md)
        assert cold["schema"] == warm["schema"] == 2
        assert cold["gauges"]["repro_cache_misses"] == 1
        assert cold["gauges"]["repro_cache_memory_hits"] == 0
        assert warm["gauges"]["repro_cache_memory_hits"] == 1
        assert warm["counters"]["repro_op_check_total"] == 2

    def test_prometheus_format(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            response = client.metrics(format="prometheus")
        text = response["metrics_text"]
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_cache_misses 1" in text
        assert "repro_pool_exec_seconds_count" in text

    def test_unknown_format_rejected(self, server):
        from repro.service.client import ServiceError

        with ReproClient(server.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown metrics format"):
                client.metrics(format="xml")

    def test_status_carries_metrics_section(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            status = client.status()
        assert status["metrics"]["counters"]["repro_requests_total"] >= 1
        assert "repro_cache_misses" in status["metrics"]["gauges"]

    def test_pool_latency_histogram_observes_checks(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
            snapshot = client.metrics()["metrics"]
        hist = snapshot["histograms"]["repro_pool_exec_seconds"]
        assert hist["count"] == 1
        assert hist["sum"] > 0


class TestPerOpTimings:
    def test_infer_reports_per_phase_timings(self, server, wind_source):
        from repro.apps import strip_location_annotations

        with ReproClient(server.socket_path) as client:
            response = client.infer(
                source=strip_location_annotations(wind_source)
            )
        timings = response["timings"]
        # front end + the engine's pipeline, not just a lone total
        assert {
            "parse", "resolve", "typecheck", "value_flow",
            "cycle_elimination", "decompose", "complete", "emit",
            "verify", "total",
        } <= set(timings)
        phase_sum = sum(v for k, v in timings.items() if k != "total")
        assert timings["total"] >= phase_sum * 0.5

    def test_cli_and_daemon_time_infer_alike(
        self, server, wind_source, tmp_path, capsys
    ):
        """One timed entry: the same keys from ``repro infer --json``
        and the daemon, each with a total that covers its parts."""
        from repro.apps import strip_location_annotations
        from repro.cli import main

        stripped = strip_location_annotations(wind_source)
        path = tmp_path / "stripped.sj"
        path.write_text(stripped)
        assert main(["infer", str(path), "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)["timings"]
        with ReproClient(server.socket_path) as client:
            daemon = client.infer(source=stripped)["timings"]
        assert set(cli) == set(daemon)
        for timings in (cli, daemon):
            parts = sum(v for k, v in timings.items() if k != "total")
            assert timings["total"] >= parts

    def test_cached_check_reports_lookup_timing(self, server, wind_source):
        with ReproClient(server.socket_path) as client:
            first = client.check(source=wind_source)
            second = client.check(source=wind_source)
        assert "cache_lookup" not in first["timings"]
        assert second["cached"]
        assert set(second["timings"]) == {"cache_lookup"}
        assert second["timings"]["cache_lookup"] >= 0


class TestConcurrentTracing:
    def test_two_threads_produce_two_well_nested_trees(
        self, server, wind_source, app_files
    ):
        """Two clients checking concurrently: the daemon's ring buffer
        ends up with one span tree per request, each well-nested under
        its own ``op.check`` root — never interleaved."""
        other_source = next(
            path for path in app_files if "wind" not in path.name
        ).read_text(encoding="utf-8")
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def hit(source: str) -> None:
            try:
                with ReproClient(server.socket_path) as client:
                    barrier.wait()
                    for _ in range(3):
                        assert client.check(source=source)["ok"]
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(src,))
            for src in (wind_source, other_source)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

        roots = [
            root for root in server.trace_buffer.roots
            if root.name == "op.check"
        ]
        assert len(roots) == 6
        seen_span_ids: set[int] = set()
        for root in roots:
            spans = list(root.walk())
            assert all(span.closed for span in spans)
            # one trace id per tree, disjoint span ids across trees
            assert {span.trace_id for span in spans} == {root.trace_id}
            ids = {span.span_id for span in spans}
            assert not (ids & seen_span_ids)
            seen_span_ids |= ids
            # every child interval nests inside its parent's
            for span in spans:
                for child in span.children:
                    assert child.parent is span
                    assert child.start_seconds >= span.start_seconds - 1e-9
                    assert (
                        child.start_seconds + child.duration_seconds
                        <= span.start_seconds + span.duration_seconds + 1e-6
                    )
        trace_ids = {root.trace_id for root in roots}
        assert len(trace_ids) == 6

    def test_cold_check_tree_contains_pipeline_spans(
        self, server, wind_source
    ):
        with ReproClient(server.socket_path) as client:
            client.check(source=wind_source)
        root = next(
            r for r in server.trace_buffer.roots if r.name == "op.check"
        )
        names = {span.name for span in root.walk()}
        assert {"op.check", "parse", "resolve", "typecheck", "check"} <= names


class TestTracerLifecycle:
    def test_server_installs_and_close_restores_tracer(self, tmp_path):
        before = get_tracer()
        assert isinstance(before, NullTracer)
        srv = ReproServer(tmp_path / "a.sock")
        try:
            assert get_tracer() is srv.tracer
        finally:
            srv.close()
        assert get_tracer() is before
