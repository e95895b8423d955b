"""repro.obs — dependency-free observability for the checking stack.

Three pieces (see ``docs/OBSERVABILITY.md``):

* **tracing** (:mod:`repro.obs.trace`) — nested spans with wall/CPU
  time, attributes and counters; thread-local context; a no-op tracer
  so instrumented hot paths cost ~nothing when tracing is off;
* **metrics** (:mod:`repro.obs.metrics`) — a process-wide registry of
  counters, gauges and fixed-bucket histograms with Prometheus text and
  JSON snapshot expositions;
* **sinks** (:mod:`repro.obs.sinks`) — an in-memory ring buffer, an
  atomic-append JSON-lines trace writer, and a human span-tree
  renderer;
* **events** (:mod:`repro.obs.events`) — a leveled, sampled,
  trace-correlated structured event log with JSONL persistence, an
  in-memory ring buffer, and a stdlib ``logging`` bridge;
* **propagate** (:mod:`repro.obs.propagate`) — W3C-traceparent-style
  trace-context propagation across process boundaries (campaign
  driver → pool workers, client → daemon) and the ``merge_traces``
  stitcher that turns per-worker files into one causal trace;
* **exporter** (:mod:`repro.obs.exporter`) — a dependency-free HTTP
  thread serving ``/metrics`` (Prometheus text), ``/healthz`` and
  ``/events`` for ``repro serve --http-port`` and long campaign
  drives;
* **bench** (:mod:`repro.obs.bench`) — a declarative benchmark registry
  and runner over the registered apps, the schema-versioned
  ``BENCH_*.json`` payload, the regression-gate comparator
  behind ``repro bench --compare``, and the span-diff attribution
  engine behind ``repro bench --attribute`` (see
  ``docs/BENCHMARKS.md``);
* **profile** (:mod:`repro.obs.profile`) — a low-overhead sampling
  wall-clock profiler with instrumented anchors (``section(name)``,
  shared with the resource monitor) in the interpreter
  step loop, the checker, and the inference fixpoint, emitting
  schema-versioned ``PROFILE_*.json`` payloads (``--profile-json``);
* **resources** (:mod:`repro.obs.resources`) — memory & resource
  telemetry: peak-RSS sampling, tracemalloc allocation attribution to
  the span/section vocabulary, GC pause tracking via ``gc.callbacks``,
  and cache-occupancy watching, emitting schema-versioned
  ``MEM_*.json`` payloads (``repro bench --mem`` / ``--mem-json``);
* **report** (:mod:`repro.obs.report`) — the deterministic single-file
  HTML dashboard behind ``repro report --html`` (convergence curves,
  shard timeline, event and bench tables).

Each instrument is installed through one :class:`~repro.obs.slot.Slot`
with a null default, and the BENCH/PROFILE/MEM payloads share one
envelope and file codec (:mod:`repro.obs.codec`).

The CLI surfaces all of it: ``--trace FILE`` writes a JSONL trace,
``--events FILE`` writes a JSONL event stream, ``--profile`` prints the
span tree, ``repro metrics`` renders a snapshot from a trace file or a
running daemon, ``repro events`` tails/filters an event stream, ``repro
report`` renders the HTML dashboard, and ``repro bench`` runs,
compares, and reports benchmarks.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bench": (
        "BENCH_SCHEMA", "BenchError", "Scenario", "attribute_benchmarks",
        "bench_payload", "compare_benchmarks", "format_attribution",
        "read_bench", "register_scenario", "run_scenario", "run_scenarios",
        "scenario_names", "scenario_result_from_samples", "validate_bench",
        "write_bench",
    ),
    "codec": ("environment_fingerprint",),
    "events": (
        "EVENTS_SCHEMA", "LEVELS", "EventBuffer", "EventError", "EventLog",
        "JsonlEventWriter", "LoggingBridge", "NullEventLog", "filter_events",
        "follow_events", "format_event", "get_event_log",
        "installed_event_log", "read_events", "set_event_log",
        "validate_events",
    ),
    "exporter": ("MetricsExporter", "NullExporter", "maybe_exporter"),
    "metrics": (
        "DEFAULT_TIME_BUCKETS", "METRICS_SCHEMA", "SNAPSHOT_QUANTILES",
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "global_registry",
    ),
    "profile": (
        "PROFILE_SCHEMA", "NullProfiler", "ProfileError", "SamplingProfiler",
        "aggregate_profile", "format_profile_table", "get_profiler",
        "installed_profiler", "profile_payload", "read_profile", "section",
        "section_counts", "set_profiler", "validate_profile", "write_profile",
    ),
    "propagate": (
        "PropagationError", "TraceContext", "current_context", "merge_traces",
        "shard_trace_payload", "worker_traced",
    ),
    "report": ("REPORT_SCHEMA", "render_report", "write_report"),
    "resources": (
        "RESOURCES_SCHEMA", "NullResourceMonitor", "ResourceError",
        "ResourceMonitor", "format_resources_table", "get_resource_monitor",
        "installed_resource_monitor", "peak_rss_bytes", "read_resources",
        "resources_payload", "set_resource_monitor", "validate_resources",
        "write_resources",
    ),
    "sinks": (
        "JsonlTraceWriter", "JsonlWriter", "RingBufferSink", "TraceError",
        "TraceWarning", "aggregate_trace", "build_forest", "read_jsonl",
        "format_aggregate_table", "format_forest", "format_tree",
        "orphan_events", "read_trace", "trace_root_seconds", "validate_trace",
    ),
    "trace": (
        "TRACE_SCHEMA", "NullTracer", "Span", "Tracer", "get_tracer",
        "installed_tracer", "set_tracer", "span_event", "timed_span",
    ),
})
