"""What the four workloads share: paths, pinned parameters, known
answers, the failure tally, the percentile rule, seeded inputs, the
run fingerprint, cold-process probes, and the round-driven workload
base class."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from benchmarks.e2e.tracing import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
FIXTURES = HERE / "fixtures"

#: Separates a source from the seeded comment that makes it unique.
TAG = "\n// e2e-input "

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: One campaign or fabric trial in this many is re-run on the oracle.
ORACLE_ONE_IN = 16
#: Step budget of every injected run, as a multiple of the clean run's.
STEP_BUDGET_FACTOR = 64
#: The tail percentile, unless a run has too few samples for it.
TAIL_PERCENTILE = 99
#: Nominal seconds of one ``host_probe`` and of one bare interpreter
#: start (``python -c pass``).  Every timed sample is scaled by nominal
#: over the reference measured around it, so a number reads as it would
#: on a host that runs the reference in its nominal time.
PROBE_NOMINAL_S = 200e-6
INTERP_NOMINAL_S = 0.040


def load_params() -> dict:
    """Pinned workload sizes; the CLI has no size flags."""
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def load_expected() -> dict:
    """Known answers: verdicts of the bundled apps and the rejected
    programs (with their sources), and SInfer location totals."""
    expected = json.loads(
        (FIXTURES / "expected.json").read_text(encoding="utf-8")
    )
    for name, entry in expected["rejected"].items():
        entry["source"] = (FIXTURES / "rejected" / f"{name}.sj").read_text(
            encoding="utf-8"
        )
    return expected


def program_sources(expected: dict) -> tuple[dict, dict]:
    """The programs to check (every bundled app, then the rejected
    fixtures) and the annotation-stripped apps to infer, by name."""
    from repro.apps import app_source

    sources = {name: app_source(name) for name in expected["accepted"]}
    sources.update(
        {name: entry["source"] for name, entry in expected["rejected"].items()}
    )
    stripped = {
        app: app_source(app, annotated=False)
        for app in expected["sinfer_locations"]
    }
    return sources, stripped


def tagged(source: str, tag: str) -> str:
    return f"{source}{TAG}{tag}\n"


def untagged(source: str) -> str:
    return source.split(TAG, 1)[0]


class TokenCounter:
    """Tokens per source, counted by ``tokenize`` once per distinct
    text (the seeded tag is a comment and adds none)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def __call__(self, source: str) -> int:
        base = untagged(source)
        count = self.counts.get(base)
        if count is None:
            from repro.lang import tokenize

            count = self.counts[base] = len(tokenize(base))
        return count

    def parse_attrs(self, source: str, *args, **kwargs) -> dict:
        """Span attributes of a ``parse_program(source)`` call."""
        return {"tokens": self(source)}


# ---------------------------------------------------------------------------
# Outcomes and statistics
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Ops attempted and failed (exceptions, non-ok responses, wrong
    verdicts, oracle mismatches); the first few failures are kept."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank: the smallest value with
    at least ``q``% of the samples at or below it."""
    if not values:
        return 0.0
    rank = math.ceil(len(values) * q / 100.0 * (1 - 1e-12))
    return sorted(values)[max(0, rank - 1)]


def tail_percentile(samples: int) -> int:
    """The highest whole percentile, up to ``TAIL_PERCENTILE``, with at
    least ten samples beyond it; never below the median."""
    if samples <= 20:
        return 50
    # the nearest rank ceil(q*samples/100) must stay at most samples-10
    highest = 100 * (samples - 10) // samples
    return max(50, min(TAIL_PERCENTILE, highest))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Inputs and provenance
# ---------------------------------------------------------------------------


def sha256_of(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None outside a git work tree (the
    benchmark also runs from exported copies)."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env(scratch: Path) -> dict:
    """Environment for ``repro`` child processes: the checkout's sources
    first on the path, and any default cache inside the scratch dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
    return env


def run_timed(
    argv: list[str], scratch: Path, timeout: float = 120.0
) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child Python process to completion; wall seconds from
    spawn to exit."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], env=child_env(scratch),
        capture_output=True, text=True, timeout=timeout,
    )
    return time.perf_counter() - start, done


def interp_start(scratch: Path) -> float:
    """Seconds a bare interpreter start (``python -c pass``) takes."""
    return run_timed(["-c", "pass"], scratch)[0]


def cli_probes(scratch: Path, count: int, cold) -> dict:
    """The parts of a cold ``repro`` command: a bare interpreter start,
    ``import repro.cli`` on top of it, and the command's own work on top
    of that (``cold(index)`` runs the command).  Each of ``count`` trios
    runs back to back, so a part is the median of its differences
    within a trio, taken on one state of the machine."""
    bare, imports, work = [], [], []
    for index in range(count):
        start = interp_start(scratch)
        seconds, done = run_timed(["-c", "import repro.cli"], scratch)
        if done.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {done.stderr[-400:]}")
        command = cold(index)
        bare.append(start)
        imports.append(seconds - start)
        if command is not None:
            work.append(command - seconds)
    return {
        "interpreter_s": median(bare),
        "import_s": median(imports),
        "work_s": median(work),
    }


def resident_mb(pid: str = "self") -> float:
    """Current resident set size of a process, in MB: ``/proc`` where
    there is one, else this process's peak."""
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1e6
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak * (1.0 if sys.platform == "darwin" else 1024.0) / 1e6


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Context:
    seed: int
    seconds: float
    params: dict
    expected: dict
    scratch: Path
    tally: Tally = field(default_factory=Tally)
    recorder: Optional[Recorder] = None

    def op(self, kind: str):
        """The root span of one op in the traced pass; nothing otherwise."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(f"op.{kind}")


def _host_loop() -> None:
    table: dict = {}
    for i in range(2000):
        table[i % 211] = table.get(i % 211, 0) + i
    sorted(table.values())


def host_probe() -> float:
    """Seconds a fixed, standard-library-only loop takes on this CPU
    (median of three, with the collector off): how fast the machine runs
    Python at this moment, whatever the program under test allocated."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _host_loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


def host_probe_all() -> float:
    """``host_probe`` on each CPU this process may use, averaged: the
    reference for work spread over several processes (the daemon and
    its clients)."""
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:  # no affinity control on this platform
        return host_probe()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(host_probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def interp_scaled(action, scratch: Path):
    """``action`` with a bare interpreter start just before and just
    after each call; a call's result ``seconds`` (or a tuple of them, or
    None for a wrong output) comes back with the scale
    ``INTERP_NOMINAL_S`` over the mean of the two starts."""

    def call(index: int):
        before = interp_start(scratch)
        value = action(index)
        scale = INTERP_NOMINAL_S / statistics.mean(
            [before, interp_start(scratch)]
        )
        return value, scale

    return call


@dataclass
class Op:
    """One timed op, or one serve segment of concurrent requests."""

    group: str
    units: float
    seconds: float
    latencies_ms: list[float]
    #: ``PROBE_NOMINAL_S`` over the mean of the host probes just before
    #: and just after it (1 when the pass has no probe)
    scale: float


@dataclass
class Pass:
    """One measured pass: every op with its units of work (checks,
    requests, trials, activations), seconds and latencies, and the
    totals per group (app, fabric config).  With a ``probe``, each op
    also records how fast the host ran around it, as its scale."""

    probe: Optional[Callable[[], float]] = None
    ops: list[Op] = field(default_factory=list)
    units: float = 0.0
    busy: float = 0.0
    #: rounds, or serve loop segments, run
    rounds: int = 0
    #: per group: [units, seconds]
    groups: dict = field(default_factory=dict)
    _before: float = 0.0

    def start(self) -> None:
        """Probe the host before the first op of a round or segment."""
        if self.probe is not None:
            self._before = self.probe()

    def add(self, seconds: float, units: float, group: str = "",
            latency_units: float = 1.0,
            latencies: Optional[list[float]] = None) -> None:
        """One op of ``group``, with one latency of ``seconds`` over
        ``latency_units`` unless ``latencies`` are given."""
        self.units += units
        self.busy += seconds
        slot = self.groups.setdefault(group, [0.0, 0.0])
        slot[0] += units
        slot[1] += seconds
        scale = 1.0
        if self.probe is not None:
            after = self.probe()
            scale = PROBE_NOMINAL_S / statistics.mean([self._before, after])
            self._before = after
        self.ops.append(Op(
            group, units, seconds,
            [seconds * 1e3 / latency_units] if latencies is None else latencies,
            scale,
        ))


def spread(samples: list, count: int, action, start: float, seconds: float,
           final: bool = False) -> None:
    """Call ``action(index)`` until ``samples`` holds as many results as
    are due when ``count`` calls are spread evenly over a run of
    ``seconds`` that began at ``start`` (all of them when ``final``)."""
    elapsed = time.perf_counter() - start
    due = count if final or seconds <= 0 else min(
        count, 1 + int(count * elapsed / seconds)
    )
    while len(samples) < due:
        samples.append(action(len(samples)))


class Workload:
    """One workload.  Subclasses provide the set-up, the cold probe,
    the seeded rounds and how to run one round; the base class drives
    rounds until the run's seconds are spent."""

    name = ""
    #: The host reference for ops timed in this process: the CPU the op
    #: ran on.
    probe = staticmethod(host_probe)

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.p = ctx.params
        self.rounds: list = []
        #: per-layer counts from the first round of the traced pass
        self.first_round: dict = {}
        #: resident MB after each measured segment
        self.resident: list[float] = []

    # -- hooks -----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def cold_probe(self, index: int) -> Optional[float]:
        """Seconds one fresh ``repro`` process takes for this workload's
        smallest unit of work, or None when its output was wrong."""
        raise NotImplementedError

    def run_round(self, index: int, round_, result: Pass) -> None:
        raise NotImplementedError

    def targets(self) -> list[tuple]:
        """Functions to wrap with spans in the traced pass."""
        return []

    def layer_metrics(self, traced: Pass) -> dict:
        return {}

    # -- driving ---------------------------------------------------------

    def inputs(self):
        """Everything the seed generated, for ``inputs_sha256``."""
        return self.rounds

    def _timed_setup(self, index: int) -> float:
        """Set-up seconds, scaled by the host probes around it."""
        before = self.probe()
        start = time.perf_counter()
        self.setup()
        seconds = time.perf_counter() - start
        return seconds * PROBE_NOMINAL_S / statistics.mean([before, self.probe()])

    def run(self, seconds: float) -> tuple[list, list, Pass]:
        """Whole rounds until ``seconds`` have passed (at least one), with
        the ``SETUP_REPEATS`` set-ups and ``cold_probes`` cold probes
        spread evenly over the run, so one burst of machine noise cannot
        move all of them.  Returns the host-scaled set-up and cold-probe
        seconds and the measured rounds."""
        setups: list = []
        colds: list = []
        measured = Pass(probe=self.probe)
        cold_probe = interp_scaled(self.cold_probe, self.ctx.scratch)
        start = time.perf_counter()
        index = 0
        while True:
            spread(setups, SETUP_REPEATS, self._timed_setup, start, seconds)
            spread(colds, self.p["cold_probes"], cold_probe, start, seconds)
            if index == len(self.rounds) or (
                index and time.perf_counter() - start >= seconds
            ):
                break
            measured.start()
            self.run_round(index, self.rounds[index], measured)
            gc.collect()  # outside the timed ops: count live memory only
            self.resident.append(resident_mb())
            index += 1
        spread(setups, SETUP_REPEATS, self._timed_setup, start, seconds,
               final=True)
        spread(colds, self.p["cold_probes"], cold_probe, start, seconds,
               final=True)
        measured.rounds = index
        return setups, [
            cold * scale for cold, scale in colds if cold is not None
        ], measured

    def measure_traced(self, seconds: float, tracing) -> tuple[Pass, Pass]:
        """Each round twice, untraced then inside ``tracing()``, until
        ``seconds`` have passed; interleaving keeps machine drift out of
        the traced-versus-untraced comparison."""
        untraced, traced = Pass(), Pass()
        start = time.perf_counter()
        for index, round_ in enumerate(self.rounds):
            if index and time.perf_counter() - start >= seconds:
                break
            self.run_round(index, round_, untraced)
            with tracing():
                self.run_round(index, round_, traced)
            untraced.rounds = traced.rounds = index + 1
        return untraced, traced

    def shutdown(self) -> None:
        """Stop anything still running (daemons)."""
