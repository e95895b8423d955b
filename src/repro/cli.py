"""Command-line interface for the SJava reproduction.

Subcommands mirror the workflow of the paper's tool:

* ``repro check FILE``      — run the full self-stabilization checker
  (``--json`` emits the versioned protocol payload);
* ``repro infer FILE``      — infer location annotations (SInfer / naive)
  and print the annotated program (``--json`` emits the summary);
* ``repro run FILE``        — execute the program on synthetic inputs;
* ``repro inject FILE``     — run fault-injection trials and report
  recovery distances (exit 1 when any trial diverged);
* ``repro campaign``        — parallel, resumable fault-injection sweep
  across the registered apps (exhaustive/stratified/uniform site plans,
  per-shard checkpointing, step-budget watchdog; see
  ``docs/ROBUSTNESS.md``);
* ``repro chaos``           — run a campaign (or batch) under seeded,
  deterministic infrastructure fault injection and assert the
  convergence oracle: chaotic statistics must be identical to the
  fault-free run (``docs/ROBUSTNESS.md``);
* ``repro lattices FILE``   — render the program's location lattices;
* ``repro batch DIR...``    — check many files via the cached, parallel
  service (per-file verdicts + timings);
* ``repro serve``           — long-lived checking daemon on a Unix
  socket, speaking newline-delimited JSON (``--http-port`` adds the
  HTTP observability plane: /metrics, /healthz, /events);
* ``repro metrics``         — render an observability snapshot from a
  JSONL trace file or a running daemon (``--tree`` prints the span
  forest, grouping multi-process traces per pid);
* ``repro events``          — tail/filter a JSONL structured event
  stream written by ``--events`` (severity floor, name substring,
  trace/span correlation; ``--follow`` streams live appends);
* ``repro report``          — render the deterministic single-file HTML
  dashboard (convergence curves, shard timeline, events, and the bench
  payloads it is given);
* ``repro bench``           — run the declarative benchmark suite and
  write a schema-versioned ``BENCH_*.json`` (``--compare`` is the
  regression gate, ``--report`` a self-time table over a JSONL trace;
  see ``docs/BENCHMARKS.md``).

``check``/``infer``/``inject``/``batch``/``campaign``/``bench`` accept
``--trace FILE`` (write a JSON-lines trace of every span), ``--events
FILE`` (write the structured event stream), and ``--profile`` (print
the span tree with per-phase percentages to stderr); the global
``--log-level {debug,info,warn,error}`` gates event emission and
bridges events into stdlib ``logging``.  A ``campaign --trace`` is
**distributed**: pool workers write per-pid trace files next to the
driver's, and the driver merges them on exit into one causally-linked
multi-process trace; see ``docs/OBSERVABILITY.md``.

The batch/daemon/JSON workflow is documented in ``docs/SERVICE.md``.
Installed as ``repro`` (console script) or usable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from pathlib import Path

# Only what main(), the parser and the observability wrappers use is
# imported here; each command imports the rest, so a cold command
# loads just the modules it runs.
from repro.lang import (
    FRONT_END_ERRORS, parse_program, resolve_program, typecheck_program,
)
from repro.lang.symtab import ProgramInfo
from repro.obs import (
    LEVELS,
    EventLog,
    JsonlEventWriter,
    JsonlTraceWriter,
    LoggingBridge,
    ProfileError,
    RingBufferSink,
    Tracer,
    format_tree,
    get_tracer,
    installed_tracer,
)
from repro.obs.events import PY_LEVELS, installed_event_log


def _load(path: str) -> ProgramInfo:
    source = Path(path).read_text(encoding="utf-8")
    tracer = get_tracer()
    with tracer.span("parse"):
        program = parse_program(source)
    with tracer.span("resolve"):
        info = resolve_program(program)
    with tracer.span("typecheck"):
        typecheck_program(info)
    return info


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a JSON-lines span trace to FILE")
    parser.add_argument("--events", metavar="FILE", default=None,
                        help="write the structured event stream to FILE "
                             "(JSON lines; level set by --log-level)")
    parser.add_argument("--profile", action="store_true",
                        help="print the span tree with per-phase "
                             "percentages to stderr")
    parser.add_argument("--profile-json", metavar="FILE", default=None,
                        help="run a sampling profiler and write the "
                             "PROFILE json payload to FILE")
    parser.add_argument("--profile-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="sampling interval for --profile-json "
                             "(default: 0.005)")


@contextlib.contextmanager
def _event_logged(args: argparse.Namespace):
    """Install an :class:`EventLog` when ``--events`` or the global
    ``--log-level`` ask for one; otherwise the no-op log stays and
    instrumented code pays ~nothing."""
    events_path = getattr(args, "events", None)
    log_level = getattr(args, "log_level", None)
    if not (events_path or log_level):
        yield
        return
    writer = JsonlEventWriter(events_path) if events_path else None
    sinks: list = [writer] if writer is not None else []
    if log_level:
        sinks.append(LoggingBridge())
    try:
        with installed_event_log(
            EventLog(level=log_level or "info", sinks=sinks)
        ):
            yield
    finally:
        if writer is not None:
            writer.close()
        if events_path:
            print(f"// events written to {events_path}", file=sys.stderr)


@contextlib.contextmanager
def _profiled(args: argparse.Namespace):
    """Run a command under a :class:`SamplingProfiler` when
    ``--profile-json`` asks for one; the payload lands in the named
    file on exit.  Otherwise the no-op profiler stays and the
    instrumented anchors pay ~nothing."""
    profile_path = getattr(args, "profile_json", None)
    if not profile_path:
        yield
        return
    from repro.obs.profile import (
        DEFAULT_INTERVAL,
        SamplingProfiler,
        installed_profiler,
        write_profile,
    )

    interval = getattr(args, "profile_interval", None)
    if interval is None:
        interval = DEFAULT_INTERVAL
    profiler = SamplingProfiler(interval_seconds=interval)
    try:
        with installed_profiler(profiler):
            with profiler:
                yield
    finally:
        out = write_profile(profiler.payload(), profile_path)
        print(
            f"// profile written to {out} "
            f"({profiler.sample_count} samples)",
            file=sys.stderr,
        )


@contextlib.contextmanager
def _observed(args: argparse.Namespace, root_name: str, **attrs):
    """Run a command under a tracer when ``--trace``/``--profile`` ask
    for one (and an event log when ``--events``/``--log-level`` do);
    otherwise the no-op tracer stays installed.  The event log is set up
    first, so events emitted inside the root span carry its ids."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(_event_logged(args))
        stack.enter_context(_profiled(args))
        if not (getattr(args, "trace", None)
                or getattr(args, "profile", False)):
            with get_tracer().span(root_name, **attrs):
                yield
            return
        ring = RingBufferSink() if args.profile else None
        writer = JsonlTraceWriter(args.trace) if args.trace else None
        sinks = tuple(s for s in (ring, writer) if s is not None)
        try:
            with installed_tracer(Tracer(sinks=sinks)) as tracer:
                with tracer.span(root_name, **attrs):
                    yield
        finally:
            if writer is not None:
                writer.close()
            if ring is not None:
                for root in ring.roots:
                    print(format_tree(root), file=sys.stderr)
            if args.trace:
                print(f"// trace written to {args.trace}", file=sys.stderr)


def cmd_check(args: argparse.Namespace) -> int:
    from repro.core.checker import timed_check
    from repro.service import protocol

    with _observed(args, "repro.check", file=args.file):
        # The file read and the report get phases of their own, so the
        # phases of a --profile tree cover the whole root.
        with get_tracer().span("read"):
            source = Path(args.file).read_text(encoding="utf-8")
        start = time.perf_counter()
        report, timings = timed_check(source)
        with get_tracer().span("report"):
            if args.json:
                print(protocol.dumps(protocol.check_payload(
                    report,
                    file=args.file,
                    elapsed_seconds=time.perf_counter() - start,
                    timings=timings,
                )))
            else:
                print(report.format())
    return 0 if report.self_stabilizing else 1


def cmd_infer(args: argparse.Namespace) -> int:
    from repro.infer import timed_infer
    from repro.service import protocol

    with _observed(args, "repro.infer", file=args.file, mode=args.mode):
        result, timings = timed_infer(
            Path(args.file).read_text(encoding="utf-8"),
            mode=args.mode,
            verify=not args.no_verify,
        )
    if args.json:
        payload = protocol.infer_payload(
            result.summary_dict(), file=args.file, timings=timings
        )
        print(protocol.dumps(payload))
        return 0 if result.check_report is None or result.verified else 1
    if not args.quiet:
        print(result.annotated_source)
    summary = result.summary
    print(
        f"// inferred {summary.total_locations} locations, "
        f"{summary.total_paths} top-to-bottom paths, "
        f"{timings['total']:.3f}s",
        file=sys.stderr,
    )
    if result.check_report is not None:
        verdict = "verified" if result.verified else "REJECTED"
        print(f"// checker: {verdict}", file=sys.stderr)
        if not result.verified:
            print(result.check_report.format(), file=sys.stderr)
            return 1
    return 0


def _device_factory(args: argparse.Namespace):
    """Fresh devices for ``repro run`` and ``repro inject``: ``--seed``'s
    synthetic inputs for ``--iterations`` iterations, keyed by iteration
    like every campaign's and fabric's inputs."""
    from repro.runtime.devices import IterationKeyedDevice, synthetic_inputs

    generator = synthetic_inputs(args.seed)
    return lambda: IterationKeyedDevice(generator, iterations=args.iterations)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.runtime import RuntimeOptions
    from repro.runtime.compiler import CompiledRunner

    info = _load(args.file)
    interp = CompiledRunner(
        info,
        _device_factory(args)(),
        options=RuntimeOptions(
            ignore_errors=args.ignore_errors, max_iterations=args.iterations
        ),
    )
    outputs = interp.run()
    for value in outputs:
        print(value)
    print(
        f"// {interp.iteration} iterations, {len(outputs)} outputs, "
        f"{len(interp.error_log)} ignored errors",
        file=sys.stderr,
    )
    return 0


def _inject_experiment(args: argparse.Namespace, info: ProgramInfo):
    """``repro inject``'s experiment: the synthetic inputs under a
    campaign's default step-budget watchdog."""
    from repro.runtime import RuntimeOptions, StabilizationExperiment
    from repro.runtime.stabilization import STEP_BUDGET_FACTOR

    return StabilizationExperiment(
        info,
        _device_factory(args),
        options=RuntimeOptions(
            ignore_errors=True, max_iterations=args.iterations
        ),
        step_budget_factor=STEP_BUDGET_FACTOR,
    )


def cmd_inject(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.runtime.stabilization import (
        DIVERGED, TIMEOUT, recovery_histogram, verdict_of,
    )

    with _observed(args, "repro.inject", file=args.file,
                   trials=args.trials):
        experiment = _inject_experiment(args, _load(args.file))
        trials = experiment.run_trials(args.trials, seed=args.seed)
    verdicts = Counter(map(verdict_of, trials))
    corrupted = sum(trial.corrupted_output for trial in trials)
    print(f"trials: {len(trials)}  corrupted: {corrupted}  "
          f"diverged: {verdicts[DIVERGED]}  timeout: {verdicts[TIMEOUT]}")
    histogram = recovery_histogram(trials, bin_size=args.bin)
    for bucket, count in histogram.items():
        print(f"  {bucket:5d}-{bucket + args.bin - 1:5d} samples: {count}")
    # A diverged trial falsifies stabilization — that is a failing result.
    return 1 if verdicts[DIVERGED] > 0 else 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.apps import APP_NAMES

    apps = (
        tuple(APP_NAMES) if args.apps == "all"
        else tuple(name.strip() for name in args.apps.split(",") if name.strip())
    )
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            _observed(args, "repro.campaign", mode=args.mode, jobs=args.jobs)
        )
        status = _run_campaign(args, apps)
    # After the stack closes: the driver's trace writer is flushed and
    # closed, so the worker files can be folded in.
    _merge_worker_traces(args)
    return status


def _worker_trace_dir(args: argparse.Namespace) -> Path | None:
    """Where pool workers write their per-pid trace files: next to the
    driver's ``--trace`` file, as ``<trace>.workers/``."""
    trace = getattr(args, "trace", None)
    return Path(f"{trace}.workers") if trace else None


def _merge_worker_traces(args: argparse.Namespace) -> None:
    """Fold ``<trace>.workers/worker-<pid>.trace.jsonl`` files into the
    driver's trace file, in place, producing one causally-linked
    multi-process trace.  Must run after the driver's trace writer has
    closed (outside the ``_observed`` stack).  No worker files — tracing
    off, or an in-process run that opened none — is a silent no-op."""
    from repro.obs.propagate import WORKER_TRACE_GLOB, merge_traces

    worker_dir = _worker_trace_dir(args)
    if worker_dir is None or not worker_dir.is_dir():
        return
    workers = sorted(worker_dir.glob(WORKER_TRACE_GLOB))
    if not workers:
        return
    merge_traces(
        args.trace, worker_dir, output=args.trace, driver_pid=os.getpid()
    )
    print(
        f"// merged {len(workers)} worker trace file(s) into {args.trace}",
        file=sys.stderr,
    )


def _run_exported(runner, port: int):
    """Run a campaign while ``--http-port`` serves the process-wide
    registry (shard/trial counters) plus a liveness document, so a long
    sweep is scrapable.  Only this path imports the exporter and its
    ``http.server``.  A port that cannot be bound is a campaign error."""
    from repro.obs import global_registry
    from repro.obs.exporter import ExporterError, MetricsExporter
    from repro.runtime.campaign import CampaignError

    try:
        with MetricsExporter(registry=global_registry(), port=port) as exporter:
            print(
                f"// observability plane on http://127.0.0.1:{exporter.port} "
                f"(/metrics /healthz)",
                file=sys.stderr,
            )
            return runner.run()
    except ExporterError as exc:
        raise CampaignError(str(exc)) from exc


def _run_campaign(args: argparse.Namespace, apps: tuple) -> int:
    from repro.runtime.campaign import (
        CampaignConfig,
        CampaignError,
        CampaignRunner,
    )
    from repro.service import protocol

    try:
        config = CampaignConfig(
            apps=apps,
            mode=args.mode,
            trials=args.trials,
            strata=args.strata,
            max_sites=args.max_sites,
            iterations=args.iterations,
            burst=args.burst,
            seed=args.seed,
            shard_size=args.shard_size,
            step_budget_factor=args.step_budget_factor,
        )
        runner = CampaignRunner(
            config=config,
            checkpoint_path=Path(args.checkpoint) if args.checkpoint else None,
            max_workers=args.jobs,
            trace_dir=_worker_trace_dir(args),
            shard_timeout=args.shard_timeout,
            fresh=args.fresh,
            progress=lambda message: print(message, file=sys.stderr),
        )
        port = getattr(args, "http_port", None)
        report = runner.run() if port is None else _run_exported(runner, port)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    payload = protocol.campaign_payload(report)
    if args.report:
        Path(args.report).write_text(
            protocol.dumps(payload) + "\n", encoding="utf-8"
        )
        print(f"// report written to {args.report}", file=sys.stderr)
    if args.json:
        print(protocol.dumps(payload))
    else:
        for entry in report["apps"]:
            print(
                f"{entry['app']:<16} {entry['trials']:4d} trials  "
                f"masked {entry['mask_rate']:6.1%}  "
                f"diverged {entry['divergence_rate']:6.1%}  "
                f"timeout {entry['timeout_rate']:6.1%}  "
                f"p95 recovery "
                f"{entry['recovery_iterations_p95'] if entry['recovery_iterations_p95'] is not None else '-'} it"
            )
        shards = report["shards"]
        print(
            f"// {shards['completed']}/{shards['planned']} shards completed, "
            f"{shards['infra_failed']} infra-failed, "
            f"complete={str(report['complete']).lower()}"
        )
    # An incomplete or infra-degraded sweep is a failing run: its
    # statistics do not cover the planned corruption space.
    if not report["complete"] or report["shards"]["infra_failed"] > 0:
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import shutil

    from repro.apps import all_app_names
    from repro.chaos import (
        ChaosConfig,
        ChaosError,
        parse_faults,
        run_batch_oracle,
        run_campaign_oracle,
    )
    from repro.runtime.campaign import CampaignConfig, CampaignError
    from repro.service import protocol

    work_dir = Path(args.work_dir)
    state_dir = Path(args.state_dir) if args.state_dir else work_dir / "ledger"
    try:
        chaos_config = ChaosConfig(
            seed=args.seed,
            rate=args.rate,
            faults=parse_faults(args.faults),
            sites=tuple(
                prefix.strip() for prefix in (args.sites or "").split(",")
                if prefix.strip()
            ),
            state_dir=str(state_dir),
            max_fires=args.max_fires,
            hang_seconds=args.hang_seconds,
            slow_io_seconds=args.slow_io_seconds,
        )
    except ChaosError as exc:
        print(f"chaos error: {exc}", file=sys.stderr)
        return 2
    # The exactly-once ledger must start empty, or markers from a
    # previous invocation would suppress this run's planned faults.
    shutil.rmtree(state_dir, ignore_errors=True)
    progress = (lambda message: print(message, file=sys.stderr))
    with _observed(
        args, "repro.chaos",
        faults=",".join(chaos_config.faults), rate=args.rate,
    ):
        try:
            if args.batch:
                files = _collect_sj_files(args.batch)
                if not files:
                    print("chaos: no .sj files found", file=sys.stderr)
                    return 2
                result = run_batch_oracle(
                    [str(f) for f in files],
                    chaos_config,
                    cache_dir=work_dir / "cache",
                    progress=progress,
                )
            else:
                apps = (
                    tuple(all_app_names()) if args.apps == "all"
                    else tuple(
                        name.strip() for name in args.apps.split(",")
                        if name.strip()
                    )
                )
                config = CampaignConfig(
                    apps=apps,
                    mode=args.mode,
                    trials=args.trials,
                    strata=args.strata,
                    iterations=args.iterations,
                    burst=args.burst,
                    seed=args.seed,
                    shard_size=args.shard_size,
                    step_budget_factor=args.step_budget_factor,
                )
                result = run_campaign_oracle(
                    config,
                    chaos_config,
                    work_dir=work_dir,
                    max_workers=args.jobs,
                    shard_timeout=args.shard_timeout,
                    max_retries=args.max_retries,
                    progress=progress,
                )
        except CampaignError as exc:
            print(f"campaign error: {exc}", file=sys.stderr)
            return 2
    payload = protocol.chaos_payload(result)
    if args.report:
        Path(args.report).write_text(
            protocol.dumps(payload) + "\n", encoding="utf-8"
        )
        print(f"// chaos report written to {args.report}", file=sys.stderr)
    if args.json:
        print(protocol.dumps(payload))
    else:
        oracle = result["oracle"]
        faults = result["faults"]
        by_fault = ", ".join(
            f"{fault} {count}"
            for fault, count in faults["by_fault"].items()
        ) or "none"
        print(
            f"chaos oracle: {'HOLDS' if oracle['holds'] else 'VIOLATED'} "
            f"(identical={str(oracle['identical']).lower()}, "
            f"clean_complete={str(oracle['clean_complete']).lower()}, "
            f"chaos_complete={str(oracle['chaos_complete']).lower()}, "
            f"infra_failed={oracle['infra_failed']})"
        )
        print(f"// {faults['injected']} faults injected: {by_fault}")
    # A violated oracle means the harness lost, duplicated, or corrupted
    # work under infrastructure faults — a failing run.
    return 0 if result["oracle"]["holds"] else 1


def cmd_apps(args: argparse.Namespace) -> int:
    from repro.apps import app_catalog

    catalog = app_catalog(with_sites=not args.no_sites)
    if args.json:
        print(json.dumps(catalog, sort_keys=True))
        return 0
    for entry in catalog:
        sites = entry.get("sites")
        extent = (
            f"{entry['nodes']} nodes on {entry['topology']}, "
            f"{entry['scheduler']}, {entry['rounds']} rounds"
            if entry["kind"] == "distributed"
            else f"{entry['iterations']} iterations"
        )
        sites_text = f"  sites {sites:5d}" if sites is not None else ""
        print(
            f"{entry['name']:<18} {entry['kind']:<12}{sites_text}  "
            f"{extent}  devices: {', '.join(entry['devices'])}"
        )
    print(f"// {len(catalog)} registered apps", file=sys.stderr)
    return 0


def cmd_dist_run(args: argparse.Namespace) -> int:
    from repro.dist import dist_app_experiment
    from repro.obs.events import get_event_log
    from repro.runtime.interpreter import state_digest

    with _observed(args, "repro.dist.run", app=args.app):
        try:
            experiment = dist_app_experiment(
                args.app,
                args.rounds,
                topology=args.topology,
                scheduler=args.scheduler,
                seed=args.seed,
                step_budget_factor=args.step_budget_factor,
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reference = experiment.reference()
        events = get_event_log()
        for round_index, states in enumerate(reference.trajectory):
            events.emit(
                "dist.round",
                level="debug",
                app=args.app,
                round=round_index,
                digest=state_digest([c for s in states for c in s]),
            )
        if args.inject is not None:
            trial = experiment.trial_at(args.inject, seed=args.seed)
            from repro.runtime.stabilization import verdict_of

            print(
                f"site {trial.target_step} (node {trial.node}): "
                f"{verdict_of(trial)}"
                + (
                    f", recovered in {trial.recovery_iterations} rounds"
                    if trial.recovery_iterations is not None
                    else ""
                )
            )
            return 1 if trial.diverged else 0
        topo = experiment.topology
        print(
            f"// {args.app}: {topo.nodes} nodes on {topo.spec} "
            f"(diameter {topo.diameter}), scheduler "
            f"{experiment.scheduler.name}, {len(reference.trajectory)} rounds, "
            f"{reference.steps} steps, {experiment.total_steps()} "
            f"injectable sites",
            file=sys.stderr,
        )
        for node in range(topo.nodes):
            trace = reference.node_trace(node)
            print(
                f"node {node}: final={trace[-1]} "
                f"digest={reference.node_digest(node)}"
            )
        return 0


def cmd_dist_campaign(args: argparse.Namespace) -> int:
    from repro.apps import DIST_APP_NAMES

    apps = (
        tuple(DIST_APP_NAMES) if args.apps == "all"
        else tuple(name.strip() for name in args.apps.split(",") if name.strip())
    )
    with _observed(
        args, "repro.dist.campaign", mode=args.mode, jobs=args.jobs
    ):
        status = _run_campaign(args, apps)
    _merge_worker_traces(args)
    return status


def cmd_lattices(args: argparse.Namespace) -> int:
    from repro.core.environment import LocationWorld
    from repro.core.errors import DiagnosticSink
    from repro.infer import lattice_metrics
    from repro.infer.render import render_lattice

    info = _load(args.file)
    world = LocationWorld(info, DiagnosticSink())
    items = [
        (f"class {name}", lattice)
        for name, lattice in sorted(world.field_lattices.items())
    ] + [
        (f"method {key[0]}.{key[1]}", env.lattice)
        for key, env in sorted(world.method_envs.items())
    ]
    for name, lattice in items:
        if not lattice.user_elements():
            continue
        metrics = lattice_metrics(name, lattice)
        print(f"== {name} ({metrics.locations} locations, "
              f"{metrics.paths} paths) ==")
        print(render_lattice(lattice, fmt=args.format))
        print()
    return 0


def _batch_cache(args: argparse.Namespace):
    from repro.service.cache import ResultCache, default_disk_dir

    if args.no_cache:
        return None
    disk = Path(args.cache_dir) if args.cache_dir else default_disk_dir()
    return ResultCache(disk_dir=disk)


def _collect_sj_files(targets: list[str]) -> list[Path]:
    files: list[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.sj")))
        else:
            files.append(path)
    return files


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import protocol
    from repro.service.pool import CheckerPool

    files = _collect_sj_files(args.targets)
    if not files:
        print("batch: no .sj files found", file=sys.stderr)
        return 2
    pool = CheckerPool(
        max_workers=args.jobs,
        task_timeout=args.timeout,
        cache=_batch_cache(args),
    )
    with _observed(args, "repro.batch", files=len(files), jobs=args.jobs):
        start = time.perf_counter()
        results = pool.check_paths(files)
        elapsed = time.perf_counter() - start
    if args.json:
        print(protocol.dumps({
            "version": protocol.PROTOCOL_VERSION,
            "kind": "batch",
            "elapsed_seconds": elapsed,
            "results": [r.to_dict() for r in results],
            "stats": pool.stats(),
        }))
    else:
        width = max(len(r.path) for r in results)
        for r in results:
            cached = "  (cached)" if r.cached else ""
            detail = f"  {r.message}" if r.message else ""
            print(f"{r.path:<{width}}  {r.verdict:<16} "
                  f"{r.elapsed_seconds * 1000:8.1f} ms{cached}{detail}")
        passed = sum(1 for r in results if r.ok)
        cached = sum(1 for r in results if r.cached)
        print(f"// {passed}/{len(results)} self-stabilizing, "
              f"{cached} from cache, {elapsed:.3f}s total")
        if pool.cache is not None:
            stats = pool.cache.stats
            print(f"// cache: {stats.memory_hits} memory hits, "
                  f"{stats.disk_hits} disk hits, {stats.misses} misses, "
                  f"{stats.stores} stores, {stats.evictions} evictions")
    return 0 if all(r.ok for r in results) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.exporter import ExporterError
    from repro.service.cache import default_disk_dir
    from repro.service.server import ReproServer

    socket_path = args.socket or str(default_disk_dir() / "repro.sock")
    try:
        server = ReproServer(
            socket_path,
            cache=_batch_cache(args),
            http_port=args.http_port,
            http_host=args.http_host,
        )
    except ExporterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"repro daemon listening on {socket_path}", file=sys.stderr)
    if server.exporter.enabled:
        # exporter.port is the *bound* port — --http-port 0 resolves to
        # the ephemeral port the kernel actually picked.
        print(
            f"// observability plane on "
            f"http://{args.http_host}:{server.exporter.port} "
            f"(/metrics /healthz /events)",
            file=sys.stderr,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if (args.trace is None) == (args.socket is None):
        print(
            "error: metrics needs exactly one of --trace FILE or "
            "--socket PATH",
            file=sys.stderr,
        )
        return 2
    if args.trace is not None:
        from repro.obs import (
            TraceError,
            aggregate_trace,
            format_aggregate_table,
            format_forest,
            validate_trace,
        )

        if args.format == "prometheus":
            print(
                "error: --format prometheus needs a running daemon "
                "(--socket); a trace file has spans, not a registry",
                file=sys.stderr,
            )
            return 2
        try:
            events = validate_trace(args.trace)
        except TraceError as exc:
            print(f"error: invalid trace: {exc}", file=sys.stderr)
            return 2
        if args.tree:
            print(f"// {len(events)} span events in {args.trace}")
            print(format_forest(events))
            return 0
        rows = aggregate_trace(events)
        if args.format == "json":
            print(json.dumps({"events": len(events), "spans": rows}))
            return 0
        print(f"// {len(events)} span events in {args.trace}")
        print(format_aggregate_table(rows))
        return 0
    from repro.service.client import ReproClient, ServiceError

    try:
        with ReproClient(args.socket) as client:
            if args.format == "prometheus":
                print(client.metrics(format="prometheus")["metrics_text"], end="")
                return 0
            snapshot = client.metrics()["metrics"]
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(snapshot))
        return 0
    for name, value in sorted(snapshot["counters"].items()):
        print(f"{name:<40} {value}")
    for name, value in sorted(snapshot["gauges"].items()):
        print(f"{name:<40} {value}")
    for name, hist in sorted(snapshot["histograms"].items()):
        # p50/p95/p99 are bucket-interpolated *estimates* (snapshot
        # schema >= 2); older daemons simply don't report them.
        quantiles = "".join(
            f" {key}={hist[key]:.6f}"
            for key in ("p50", "p95", "p99")
            if hist.get(key) is not None
        )
        print(
            f"{name:<40} count={hist['count']} sum={hist['sum']:.6f}"
            f"{quantiles}"
        )
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    from repro.obs import EventError, filter_events, format_event, read_events

    if (args.file is None) == (args.socket is None):
        print(
            "error: events needs exactly one of FILE or --socket PATH",
            file=sys.stderr,
        )
        return 2
    if args.follow:
        if args.file is None:
            print(
                "error: --follow tails a FILE, not a daemon "
                "(the daemon's ring is a snapshot; poll it instead)",
                file=sys.stderr,
            )
            return 2
        return _follow_events_loop(args)
    if args.file is not None:
        try:
            records = read_events(args.file)
        except EventError as exc:
            print(f"error: invalid event stream: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.service.client import ReproClient, ServiceError

        try:
            with ReproClient(args.socket) as client:
                records = client.events()["events"]
        except (ServiceError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    selected = filter_events(
        records,
        min_level=args.level,
        name=args.name,
        trace_id=args.trace_id,
        span_id=args.span_id,
        tail=args.tail,
    )
    if args.json:
        for record in selected:
            print(json.dumps(record, sort_keys=True))
    else:
        for record in selected:
            print(format_event(record))
        print(
            f"// {len(selected)}/{len(records)} events shown",
            file=sys.stderr,
        )
    return 0


def _follow_events_loop(args: argparse.Namespace) -> int:
    """``repro events FILE --follow``: stream records as a live campaign
    (or any ``--events`` writer) appends them, ``tail -f``-style.
    Filters apply per record; Ctrl-C ends the tail cleanly."""
    from repro.obs import EventError, filter_events, follow_events, format_event

    try:
        for record in follow_events(args.file, poll_seconds=args.poll):
            if not filter_events(
                [record],
                min_level=args.level,
                name=args.name,
                trace_id=args.trace_id,
                span_id=args.span_id,
            ):
                continue
            if args.json:
                print(json.dumps(record, sort_keys=True), flush=True)
            else:
                print(format_event(record), flush=True)
    except EventError as exc:
        print(f"error: invalid event stream: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import EventError, write_report

    if not (args.campaign or args.events or args.bench):
        print(
            "error: report needs at least one input "
            "(--campaign / --events / --bench)",
            file=sys.stderr,
        )
        return 2
    try:
        write_report(
            args.html,
            campaign_path=args.campaign,
            events_path=args.events,
            bench_paths=args.bench or (),
            title=args.title,
            generated_at=args.generated_at,
        )
    except EventError as exc:
        print(f"error: invalid event stream: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: unreadable input: {exc}", file=sys.stderr)
        return 2
    print(f"// report written to {args.html}", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceError,
        aggregate_trace,
        format_aggregate_table,
        trace_root_seconds,
        validate_trace,
    )
    from repro.obs.bench import (
        BenchError,
        attribute_benchmarks,
        bench_payload,
        compare_benchmarks,
        format_attribution,
        format_bench_table,
        format_comparison,
        get_scenario,
        read_bench,
        run_scenarios,
        scenario_names,
        write_bench,
    )
    from repro.service import protocol

    def emit_comparison(comparison: dict) -> None:
        if args.json:
            print(protocol.dumps({
                "version": protocol.PROTOCOL_VERSION,
                "kind": "bench-compare",
                **comparison,
            }))
        else:
            print(format_comparison(comparison))
        if comparison["missing"]:
            # The gate is about to fail; name the scenarios that
            # vanished where the CI log reader will look first.
            print(
                "error: scenario(s) missing from the new run: "
                + ", ".join(comparison["missing"]),
                file=sys.stderr,
            )

    try:
        if args.attribute is not None:
            old_path, new_path = args.attribute
            attribution = attribute_benchmarks(
                read_bench(old_path), read_bench(new_path),
                threshold_pct=args.threshold,
            )
            if args.json:
                print(protocol.dumps({
                    "version": protocol.PROTOCOL_VERSION,
                    "kind": "bench-attribution",
                    **attribution,
                }))
            else:
                print(format_attribution(attribution))
            return 0
        if args.report is not None:
            if args.compare or args.against:
                print("error: --report does not combine with --compare",
                      file=sys.stderr)
                return 2
            try:
                events = validate_trace(args.report)
            except TraceError as exc:
                print(f"error: invalid trace: {exc}", file=sys.stderr)
                return 2
            rows = aggregate_trace(events)
            total = trace_root_seconds(events)
            print(f"// {len(events)} span events in {args.report}, "
                  f"root wall {total * 1000:.2f}ms")
            print(format_aggregate_table(rows, total_seconds=total))
            return 0
        if args.against is not None:
            if args.compare is None:
                print("error: --against needs --compare OLD.json",
                      file=sys.stderr)
                return 2
            comparison = compare_benchmarks(
                read_bench(args.compare), read_bench(args.against),
                args.threshold,
            )
            emit_comparison(comparison)
            return 0 if comparison["ok"] else 1
        if args.list:
            for name in scenario_names(args.suite):
                scenario = get_scenario(name)
                print(f"{name:<32} kind={scenario.kind:<17} "
                      f"suites={','.join(scenario.suites)}")
            return 0
        names = args.scenario or scenario_names(args.suite)
        for name in names:
            get_scenario(name)  # fail fast on typos, before any timing
        with_memory = bool(args.mem or args.mem_json)
        with contextlib.ExitStack() as stack:
            monitor = None
            if with_memory:
                from repro.obs.resources import (
                    ResourceMonitor,
                    installed_resource_monitor,
                    write_resources,
                )

                # One monitor for the whole run: scenarios share it so
                # the instrumented anchors (interpreter.step,
                # checker.check, infer.fixpoint) attribute their
                # allocations to it, and --mem-json gets a run-wide
                # payload.  Per-rep peaks still reset per repetition.
                monitor = stack.enter_context(ResourceMonitor())
                stack.enter_context(installed_resource_monitor(monitor))
            with _observed(args, "repro.bench", suite=args.suite,
                           scenarios=len(names)):
                results = run_scenarios(
                    names,
                    warmup=args.warmup,
                    repetitions=args.repetitions,
                    progress=lambda line: print(f"// {line}",
                                                file=sys.stderr),
                    span_table=args.spans,
                    memory=with_memory,
                    monitor=monitor,
                )
        payload = bench_payload(
            results,
            suite=None if args.scenario else args.suite,
            warmup=args.warmup,
            repetitions=args.repetitions,
        )
        out_path = write_bench(payload, args.output)
        if args.mem_json is not None:
            mem_path = write_resources(monitor.payload(), args.mem_json)
            print(f"// resources written to {mem_path}", file=sys.stderr)
        if args.json:
            print(protocol.dumps(protocol.bench_payload(payload)))
        else:
            print(format_bench_table(payload))
        print(f"// bench written to {out_path}", file=sys.stderr)
        if args.compare is not None:
            comparison = compare_benchmarks(
                read_bench(args.compare), payload, args.threshold
            )
            emit_comparison(comparison)
            return 0 if comparison["ok"] else 1
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_campaign_arguments(campaign: argparse.ArgumentParser) -> None:
    """Flags shared by the single-node and distributed campaign drivers."""
    campaign.add_argument("--mode",
                          choices=("exhaustive", "stratified", "uniform"),
                          default="stratified",
                          help="corruption-site plan (default: stratified)")
    campaign.add_argument("--trials", type=int, default=64,
                          help="per-app trials (stratified/uniform modes)")
    campaign.add_argument("--strata", type=int, default=8,
                          help="site-space slices for stratified mode")
    campaign.add_argument("--max-sites", type=int, default=None,
                          help="evenly thin exhaustive sweeps to this many "
                               "sites per app")
    campaign.add_argument("--iterations", type=int, default=None,
                          help="event-loop iterations per run (fabric rounds "
                               "for distributed apps; default: per-app "
                               "registered length)")
    campaign.add_argument("--burst", type=int, default=1,
                          help="consecutive sites corrupted per trial")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes (1 = in-process)")
    campaign.add_argument("--shard-size", type=int, default=16,
                          help="trials per shard (checkpoint granularity)")
    campaign.add_argument("--shard-timeout", type=float, default=120.0,
                          help="wall-clock seconds per shard (needs --jobs > 1)")
    campaign.add_argument("--step-budget-factor", type=int, default=64,
                          help="watchdog: injected runs may use this multiple "
                               "of the clean run's steps before counting as "
                               "timeout")
    campaign.add_argument("--checkpoint", default=None,
                          help="manifest path; an interrupted campaign "
                               "resumes from it")
    campaign.add_argument("--fresh", action="store_true",
                          help="discard an existing checkpoint")
    campaign.add_argument("--report", default=None,
                          help="also write the JSON report to this file")
    campaign.add_argument("--json", action="store_true",
                          help="emit the versioned JSON report on stdout")
    campaign.add_argument("--http-port", type=int, default=None,
                          metavar="PORT",
                          help="serve GET /metrics and /healthz over HTTP "
                               "on 127.0.0.1:PORT while the sweep runs "
                               "(0 = ephemeral)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-Stabilizing Java (PLDI 2012) reproduction",
    )
    parser.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="enable structured events at this severity and bridge "
             "them into stdlib logging on stderr (default: events off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check self-stabilization")
    check.add_argument("file")
    check.add_argument("--json", action="store_true",
                       help="emit the versioned JSON protocol payload")
    _add_obs_arguments(check)
    check.set_defaults(func=cmd_check)

    infer = sub.add_parser("infer", help="infer location annotations")
    infer.add_argument("file")
    infer.add_argument("--mode", choices=("sinfer", "naive"), default="sinfer")
    infer.add_argument("--no-verify", action="store_true",
                       help="skip re-checking the inferred annotations")
    infer.add_argument("--quiet", action="store_true",
                       help="suppress the annotated source")
    infer.add_argument("--json", action="store_true",
                       help="emit the versioned JSON summary payload")
    _add_obs_arguments(infer)
    infer.set_defaults(func=cmd_infer)

    run = sub.add_parser("run", help="execute on synthetic inputs")
    run.add_argument("file")
    run.add_argument("--iterations", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--ignore-errors", action="store_true",
                     help="crash-avoidance mode (Section 4.4)")
    run.set_defaults(func=cmd_run)

    inject = sub.add_parser("inject", help="fault-injection trials")
    inject.add_argument("file")
    inject.add_argument("--trials", type=int, default=25)
    inject.add_argument("--iterations", type=int, default=30)
    inject.add_argument("--seed", type=int, default=0)
    inject.add_argument("--bin", type=int, default=8,
                        help="histogram bin size in output samples")
    _add_obs_arguments(inject)
    inject.set_defaults(func=cmd_inject)

    campaign = sub.add_parser(
        "campaign",
        help="parallel, resumable fault-injection sweep across the apps",
    )
    campaign.add_argument("--apps", default="all",
                          help="comma-separated registered app names "
                               "(default: all single-node apps)")
    _add_campaign_arguments(campaign)
    _add_obs_arguments(campaign)
    campaign.set_defaults(func=cmd_campaign)

    chaos = sub.add_parser(
        "chaos",
        help="run a campaign/batch under deterministic infrastructure "
             "fault injection and assert the convergence oracle",
    )
    chaos.add_argument("--faults", default="all",
                       help="comma-separated fault classes, or 'all' "
                            "(worker-crash, worker-hang, torn-manifest, "
                            "cache-corrupt, socket-drop, duplicate-shard, "
                            "slow-io)")
    chaos.add_argument("--rate", type=float, default=1.0,
                       help="injection probability per fault opportunity "
                            "(default: 1.0)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="one seed pins both the campaign plan and the "
                            "fault plan")
    chaos.add_argument("--sites", default=None, metavar="PREFIX,...",
                       help="restrict injection to sites with these "
                            "prefixes (default: everywhere)")
    chaos.add_argument("--max-fires", type=int, default=None,
                       help="total fault budget (default: unbounded)")
    chaos.add_argument("--hang-seconds", type=float, default=8.0,
                       help="how long a hung worker sleeps; set above "
                            "--shard-timeout so hangs are observed")
    chaos.add_argument("--slow-io-seconds", type=float, default=0.01,
                       help="latency per injected slow-io fault")
    chaos.add_argument("--work-dir", default=".repro-chaos",
                       help="scratch directory for manifests, the disk "
                            "cache, and the fault ledger")
    chaos.add_argument("--state-dir", default=None,
                       help="exactly-once fault ledger directory "
                            "(default: WORK_DIR/ledger; wiped at start)")
    chaos.add_argument("--batch", nargs="+", default=None,
                       metavar="DIR_OR_FILE",
                       help="exercise the batch/cache path over these .sj "
                            "files instead of running a campaign")
    chaos.add_argument("--apps", default="all",
                       help="comma-separated app names, single-node or "
                            "distributed (default: all)")
    chaos.add_argument("--mode",
                       choices=("exhaustive", "stratified", "uniform"),
                       default="stratified")
    chaos.add_argument("--trials", type=int, default=16,
                       help="per-app trials (default: 16 — chaos runs "
                            "everything twice)")
    chaos.add_argument("--strata", type=int, default=8)
    chaos.add_argument("--iterations", type=int, default=None)
    chaos.add_argument("--burst", type=int, default=1)
    chaos.add_argument("--shard-size", type=int, default=8)
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes; worker-crash/hang need "
                            "--jobs > 1 to fire")
    chaos.add_argument("--shard-timeout", type=float, default=None,
                       help="wall-clock seconds per shard (needs --jobs > 1)")
    chaos.add_argument("--max-retries", type=int, default=6,
                       help="shard retry budget under chaos (default: 6)")
    chaos.add_argument("--step-budget-factor", type=int, default=64)
    chaos.add_argument("--report", default=None,
                       help="also write the JSON chaos report to this file")
    chaos.add_argument("--json", action="store_true",
                       help="emit the versioned JSON chaos report on stdout")
    _add_obs_arguments(chaos)
    chaos.set_defaults(func=cmd_chaos)

    apps_cmd = sub.add_parser(
        "apps", help="list registered apps (single-node and distributed)"
    )
    apps_cmd.add_argument("--json", action="store_true",
                          help="emit the catalog as JSON")
    apps_cmd.add_argument("--no-sites", action="store_true",
                          help="skip counting injectable corruption sites "
                               "(faster: no reference runs)")
    apps_cmd.set_defaults(func=cmd_apps)

    dist = sub.add_parser(
        "dist",
        help="distributed fabric: run a multi-node app or campaign it",
    )
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    dist_run = dist_sub.add_parser(
        "run", help="simulate one distributed app on the fabric"
    )
    dist_run.add_argument("--app", required=True,
                          help="a distributed app name (see repro apps)")
    dist_run.add_argument("--topology", default=None,
                          help="topology spec, e.g. ring:5, line:7, grid:3x3 "
                               "(default: the app's registered topology)")
    dist_run.add_argument("--scheduler", default=None,
                          help="synchronous, round-robin, random, or biased "
                               "(default: the app's registered scheduler)")
    dist_run.add_argument("--rounds", type=int, default=None,
                          help="fabric rounds in the injection horizon "
                               "(default: the app's registered horizon)")
    dist_run.add_argument("--seed", type=int, default=0)
    dist_run.add_argument("--step-budget-factor", type=int, default=64)
    dist_run.add_argument("--inject", type=int, default=None, metavar="SITE",
                          help="run one injected trial at this composite "
                               "site instead of printing the reference")
    _add_obs_arguments(dist_run)
    dist_run.set_defaults(func=cmd_dist_run)
    dist_campaign = dist_sub.add_parser(
        "campaign",
        help="resumable fault-injection sweep across distributed apps",
    )
    dist_campaign.add_argument("--apps", default="all",
                               help="comma-separated distributed app names "
                                    "(default: all distributed apps)")
    _add_campaign_arguments(dist_campaign)
    _add_obs_arguments(dist_campaign)
    dist_campaign.set_defaults(func=cmd_dist_campaign)

    lattices = sub.add_parser("lattices", help="render location lattices")
    lattices.add_argument("file")
    lattices.add_argument("--format", choices=("ascii", "dot"),
                          default="ascii")
    lattices.set_defaults(func=cmd_lattices)

    batch = sub.add_parser(
        "batch", help="batch-check files/directories (cached, parallel)"
    )
    batch.add_argument("targets", nargs="+", metavar="DIR_OR_FILE",
                       help=".sj files or directories to scan recursively")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process, the default)")
    batch.add_argument("--timeout", type=float, default=None,
                       help="per-file timeout in seconds (needs --jobs > 1)")
    batch.add_argument("--cache-dir", default=None,
                       help="on-disk result cache directory "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    batch.add_argument("--json", action="store_true",
                       help="emit one JSON object with all results")
    _add_obs_arguments(batch)
    batch.set_defaults(func=cmd_batch)

    serve = sub.add_parser(
        "serve", help="run the checking daemon on a Unix socket"
    )
    serve.add_argument("--socket", default=None,
                       help="Unix socket path to listen on (default: "
                            "repro.sock in $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    serve.add_argument("--cache-dir", default=None,
                       help="on-disk result cache directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="also serve GET /metrics, /healthz and /events "
                            "over HTTP on this port (0 = ephemeral)")
    serve.add_argument("--http-host", default="127.0.0.1", metavar="ADDR",
                       help="bind address for --http-port "
                            "(default: 127.0.0.1)")
    serve.set_defaults(func=cmd_serve)

    metrics = sub.add_parser(
        "metrics",
        help="render a metrics/trace snapshot from a trace file or daemon",
    )
    metrics.add_argument("--trace", metavar="FILE", default=None,
                         help="aggregate a JSON-lines trace written by "
                              "--trace")
    metrics.add_argument("--socket", metavar="PATH", default=None,
                         help="query a running daemon's metrics registry")
    metrics.add_argument("--format", choices=("text", "json", "prometheus"),
                         default="text",
                         help="output format (prometheus needs --socket)")
    metrics.add_argument("--tree", action="store_true",
                         help="with --trace: print the span forest "
                              "(multi-process traces group per pid) "
                              "instead of the aggregate table")
    metrics.set_defaults(func=cmd_metrics)

    events = sub.add_parser(
        "events",
        help="tail/filter a structured event stream (file or daemon)",
    )
    events.add_argument("file", nargs="?", default=None,
                        help="JSONL event stream written by --events")
    events.add_argument("--socket", metavar="PATH", default=None,
                        help="read the in-memory buffer of a running "
                             "daemon instead of a file")
    events.add_argument("--level", choices=LEVELS, default=None,
                        help="minimum severity to show")
    events.add_argument("--name", metavar="SUBSTR", default=None,
                        help="only events whose name contains SUBSTR")
    events.add_argument("--trace-id", metavar="ID", default=None,
                        help="only events correlated with this trace")
    events.add_argument("--span-id", metavar="ID", type=int, default=None,
                        help="only events correlated with this span")
    events.add_argument("--tail", metavar="N", type=int, default=None,
                        help="show only the last N matching events")
    events.add_argument("--follow", action="store_true",
                        help="keep the FILE open and stream records as "
                             "they are appended (tail -f); Ctrl-C stops")
    events.add_argument("--poll", metavar="SECONDS", type=float, default=0.5,
                        help="idle re-read interval for --follow "
                             "(default: 0.5)")
    events.add_argument("--json", action="store_true",
                        help="print raw JSON envelopes, one per line")
    events.set_defaults(func=cmd_events)

    report = sub.add_parser(
        "report",
        help="render the single-file HTML campaign dashboard",
    )
    report.add_argument("--campaign", metavar="MANIFEST.json", default=None,
                        help="campaign checkpoint manifest "
                             "(written by campaign --checkpoint)")
    report.add_argument("--events", metavar="FILE", default=None,
                        help="JSONL event stream to summarize")
    report.add_argument("--bench", metavar="BENCH.json", action="append",
                        default=None,
                        help="bench payload for the trend table "
                             "(repeatable, in trend order)")
    report.add_argument("--html", metavar="OUT.html", required=True,
                        help="output path for the dashboard")
    report.add_argument("--title", default="Stabilization report")
    report.add_argument("--generated-at", metavar="STAMP", default=None,
                        help="embed this generation timestamp (omitted "
                             "by default so reports are byte-stable)")
    report.set_defaults(func=cmd_report)

    bench = sub.add_parser(
        "bench",
        help="run the benchmark suite, compare runs, report a trace, "
             "or attribute a shift",
    )
    bench.add_argument("--attribute", nargs=2,
                       metavar=("OLD.json", "NEW.json"), default=None,
                       help="rank which spans account for each "
                            "scenario's median shift between two bench "
                            "payloads carrying span tables (--spans)")
    bench.add_argument("--spans", action="store_true",
                       help="collect a per-scenario span self-time table "
                            "into the payload (feeds --attribute)")
    bench.add_argument("--suite", choices=("small", "full"), default="small",
                       help="scenario suite to run (default: small)")
    bench.add_argument("--scenario", action="append", metavar="NAME",
                       help="run only this scenario (repeatable; overrides "
                            "--suite)")
    bench.add_argument("--list", action="store_true",
                       help="list the suite's scenarios and exit")
    bench.add_argument("--warmup", type=int, default=1,
                       help="untimed runs per scenario (default: 1)")
    bench.add_argument("--repetitions", type=int, default=5,
                       help="timed runs per scenario (default: 5)")
    bench.add_argument("--output", metavar="FILE", default=None,
                       help="write the bench JSON here (default: "
                            "BENCH_<UTCSTAMP>.json in the current "
                            "directory)")
    bench.add_argument("--compare", metavar="OLD.json", default=None,
                       help="compare against this baseline after running; "
                            "exit 1 on regressions or missing scenarios")
    bench.add_argument("--against", metavar="NEW.json", default=None,
                       help="with --compare: skip running and compare the "
                            "two existing bench files instead")
    bench.add_argument("--threshold", type=float, default=10.0,
                       help="median shift percentage counted as a "
                            "regression when outside noise (default: 10)")
    bench.add_argument("--report", metavar="TRACE.jsonl", default=None,
                       help="print a flamegraph-style self-time table for "
                            "an existing JSONL trace instead of running")
    bench.add_argument("--mem", action="store_true",
                       help="collect memory telemetry while running: "
                            "per-rep allocation peaks (tracemalloc), peak "
                            "RSS, and GC pauses, into each scenario's "
                            "'memory' section")
    bench.add_argument("--mem-json", metavar="FILE", default=None,
                       help="also write the run-wide MEM_*.json resources "
                            "payload here (implies --mem)")
    bench.add_argument("--json", action="store_true",
                       help="emit the versioned JSON bench payload")
    _add_obs_arguments(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        # The LoggingBridge emits under the "repro" logger; a basicConfig
        # root handler on stderr makes `--log-level debug` work out of
        # the box while embedders keep whatever handlers they installed.
        logging.basicConfig(
            level=PY_LEVELS[args.log_level],
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FRONT_END_ERRORS as exc:
        print(f"front-end error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed downstream (e.g. `repro batch | head`);
        # redirect to devnull so interpreter shutdown doesn't complain.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
