"""serve: a closed loop of clients on one daemon, plus daemon cycles.

Each of ``clients`` client threads talks to one fresh daemon (fresh
``--cache-dir``) over its own connection and sends its next request
only when the last one returned.  Every block of requests mixes re-checks of a source the
client sent earlier (drawn uniformly from everything it sent so far, so
the pool outgrows the 512-entry memory tier and some re-checks hit the
disk tier), checks of fresh seeded edits (misses that store an entry)
and ``infer`` requests.  The op is one request.  Between loop segments,
``cold_probes`` daemon cycles spread over the run each spawn
``repro serve``, wait for the first ok check, send ``shutdown`` and
wait for the process to exit.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from repro.service.client import ReproClient

from benchmarks.e2e.support import (
    Pass,
    TokenCounter,
    Workload,
    child_env,
    host_probe_all,
    interp_scaled,
    program_sources,
    resident_mb,
    spread,
    tagged,
)

#: Daemon-side timing keys -> span names; other keys are infer phases.
SERVER_SPANS = {
    "parse": "lang.parse",
    "resolve": "lang.resolve",
    "typecheck": "lang.typecheck",
    "check": "core.check",
    "verify": "core.check_program",
    "cache_lookup": "service.cache_lookup",
}


def cycle_seconds(times: tuple[float, float], scale: float) -> tuple:
    """A daemon cycle's set-up and cold-start seconds from its (spawn to
    first ok, spawn to exit) times.  The host scale applies to the work
    up to the first answer; the rest is mostly the daemon's wait for its
    serve loop to poll, which a slower host does not lengthen, so it
    counts as measured."""
    first_ok, total = times
    return first_ok * scale, first_ok * scale + (total - first_ok)


class Serve(Workload):
    name = "serve"
    # The work runs in the daemon and the client threads, on every CPU.
    probe = staticmethod(host_probe_all)

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.procs: list[subprocess.Popen] = []
        self.cache_stats: dict = {}
        self.daemons = 0

    def setup(self) -> None:
        self.sources, self.stripped = program_sources(self.ctx.expected)
        if not self.rounds:
            self.rounds = [
                self._stream(client) for client in range(self.p["clients"])
            ]

    def _stream(self, client: int) -> list:
        """One client's seeded request stream.  Programs and apps are
        dealt from shuffled decks, so every one recurs equally often."""
        rng = random.Random(f"{self.ctx.seed}:serve:{client}")
        pools = {"fresh": list(self.sources), "infer": list(self.stripped)}
        decks: dict[str, list] = {"fresh": [], "infer": []}

        def deal(kind: str) -> str:
            if not decks[kind]:
                decks[kind] = list(pools[kind])
                rng.shuffle(decks[kind])
            return decks[kind].pop()

        block = [kind for kind, n in self.p["block"].items() for _ in range(n)]
        stream: list = []
        fresh: list[int] = []
        while len(stream) < self.p["max_requests_per_client"]:
            rng.shuffle(block)
            for kind in block:
                if kind == "recheck" and fresh:
                    stream.append(["recheck", fresh[rng.randrange(len(fresh))]])
                elif kind == "infer":
                    stream.append(["infer", deal("infer")])
                else:
                    fresh.append(len(stream))
                    stream.append([
                        "fresh", deal("fresh"),
                        f"{self.ctx.seed}:{client}:{len(stream)}",
                    ])
        return stream

    def run(self, seconds: float):
        """The closed loop for ``seconds``, paused between segments for
        the cold daemon cycles, which are spread evenly over the run.
        A cycle gives both a set-up sample (spawn to first ok) and a
        cold-start sample (spawn to exit)."""
        self.setup()
        cycles: list = []
        cycle = interp_scaled(self._cycle, self.ctx.scratch)
        start = time.perf_counter()
        measured = self._serve(seconds, probe=self.probe, between=lambda: (
            spread(cycles, self.p["cold_probes"], cycle, start, seconds)
        ))
        spread(cycles, self.p["cold_probes"], cycle, start, seconds,
               final=True)
        scaled = [
            cycle_seconds(times, scale) for times, scale in cycles
            if times is not None
        ]
        return [s for s, _ in scaled], [c for _, c in scaled], measured

    def cold_probe(self, index: int):
        cycle = self._cycle(index)
        return None if cycle is None else cycle[1]

    # -- daemons ---------------------------------------------------------

    def _spawn(self) -> tuple[subprocess.Popen, str]:
        self.daemons += 1
        base = self.ctx.scratch / f"daemon{self.daemons}"
        # Unix socket paths are short (~107 bytes): prefer the relative
        # form, which the daemon and this process both resolve from the
        # same working directory.
        socket_path = min(
            [str(base) + ".sock", os.path.relpath(str(base) + ".sock")], key=len
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path,
             "--cache-dir", str(base) + ".cache"],
            env=child_env(self.ctx.scratch),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.procs.append(proc)
        return proc, socket_path

    @staticmethod
    def _client(socket_path: str) -> ReproClient:
        # Retries poll for the socket every few ms until the daemon is up.
        return ReproClient(
            socket_path, timeout=60.0, connect_retries=None, op_deadline=60.0,
            connect_backoff=0.002, backoff_cap=0.005,
        )

    def _stop(self, proc: subprocess.Popen, client: ReproClient) -> bool:
        """Ask the daemon to shut down; True once it exited cleanly."""
        try:
            client.shutdown()
            return proc.wait(timeout=60) == 0
        except Exception as exc:
            self.ctx.tally.fail(f"daemon shutdown: {exc!r}")
            return False
        finally:
            client.close()

    def _cycle(self, index: int):
        """(spawn -> first ok check, spawn -> exit) seconds, or None."""
        names = self.ctx.expected["accepted"]
        name = names[(self.ctx.seed + index) % len(names)]
        start = time.perf_counter()
        proc, socket_path = self._spawn()
        try:
            client = self._client(socket_path)
            response = client.check(source=self.sources[name])
            first_ok = time.perf_counter() - start
            ok = self._check_ok(name, response) and self._stop(proc, client)
            total = time.perf_counter() - start
        except Exception as exc:
            self.ctx.tally.fail(f"daemon cycle {index}: {exc!r}")
            return None
        finally:
            self._reap(proc)
        if not self.ctx.tally.record(ok, f"daemon cycle {index}: wrong answer"):
            return None
        return first_ok, total

    def _reap(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def shutdown(self) -> None:
        for proc in self.procs:
            self._reap(proc)

    # -- the closed loop -------------------------------------------------

    def _check_ok(self, name: str, response: dict) -> bool:
        rejected = self.ctx.expected["rejected"].get(name)
        if rejected is None:
            return response.get("self_stabilizing") is True
        checks = sorted({
            d["check"] for d in response["report"]["diagnostics"]
            if d["severity"] == "error"
        })
        return response.get("self_stabilizing") is False and (
            checks == rejected["checks"]
        )

    def _infer_ok(self, app: str, response: dict) -> bool:
        return response.get("verified") is True and (
            response["summary"]["total_locations"]
            == self.ctx.expected["sinfer_locations"][app]
        )

    def _serve(self, seconds: float = 0.0, segments=None, between=None,
               probe=None) -> Pass:
        """A fresh daemon (empty cache) and the clients' closed loops on
        it, in segments of ``segment_requests`` requests per client,
        until ``seconds`` have passed or ``segments`` segments ran.
        ``between()`` runs before each segment, with the loop paused;
        ``probe`` times the host around each segment."""
        proc, socket_path = self._spawn()
        result = Pass(probe=probe)
        positions = [0] * len(self.rounds)
        size = self.p["segment_requests"]
        try:
            with self._client(socket_path) as client:
                client.status()  # up and answering
            start = time.perf_counter()
            while positions[0] + size <= len(self.rounds[0]):
                if between is not None:
                    between()
                if result.rounds and (
                    result.rounds == segments if segments is not None
                    else time.perf_counter() - start >= seconds
                ):
                    break
                self._segment(socket_path, positions, size, result)
                result.rounds += 1
                self.resident.append(resident_mb(str(proc.pid)))
            client = self._client(socket_path)
            self.cache_stats = client.status()["pool"]["cache"]
            self.ctx.tally.record(self._stop(proc, client), "daemon exit status")
        finally:
            self._reap(proc)
        return result

    def _segment(self, socket_path, positions, size, result) -> None:
        """Every client sends its next ``size`` requests."""
        outcomes: list[list] = [[] for _ in self.rounds]
        threads = [
            threading.Thread(target=self._client_loop, args=(
                client_id, socket_path, positions[client_id],
                positions[client_id] + size, outcomes[client_id],
            ))
            for client_id in range(len(self.rounds))
        ]
        result.start()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        requests, latencies = 0, []
        for client_id, client_outcomes in enumerate(outcomes):
            positions[client_id] += size
            requests += len(client_outcomes)
            for ok, what, seconds in client_outcomes:
                if self.ctx.tally.record(ok, what) and seconds is not None:
                    latencies.append(seconds * 1e3)
        result.add(wall, requests, latencies=latencies)

    def measure_traced(self, seconds: float, tracing) -> tuple[Pass, Pass]:
        """Half the run untraced, then the same requests traced, each on
        a fresh daemon with an empty cache."""
        untraced = self._serve(seconds / 2)
        with tracing():
            traced = self._serve(segments=untraced.rounds)
        return untraced, traced

    def _client_loop(self, client_id, socket_path, begin, end, out) -> None:
        """One closed-loop client; appends ``(ok, what, seconds)``."""
        stream = self.rounds[client_id]
        recorder = self.ctx.recorder
        tokens = self.tokens if recorder is not None else None
        try:
            client = self._client(socket_path).connect()
        except Exception as exc:
            out.append((False, f"client {client_id}: {exc!r}", None))
            return
        with client:
            for position in range(begin, end):
                kind, name, source = self._request(stream, stream[position])
                call = client.infer if kind == "infer" else client.check
                try:
                    with self.ctx.op("request"):
                        span = (
                            recorder.span("service.request")
                            if recorder is not None else nullcontext()
                        )
                        with span as open_span:
                            start = time.perf_counter()
                            response = call(source=source)
                            seconds = time.perf_counter() - start
                        if recorder is not None:
                            self._server_spans(
                                recorder, open_span, start, seconds, response,
                                tokens(source),
                            )
                except Exception as exc:
                    out.append((False, f"{kind} {name}: {exc!r}", None))
                    continue
                ok = (self._infer_ok if kind == "infer" else self._check_ok)(
                    name, response
                )
                out.append((ok, f"{kind} {name}: wrong answer", seconds))

    def _request(self, stream: list, item: list) -> tuple[str, str, str]:
        if item[0] == "recheck":
            item = stream[item[1]]
        if item[0] == "infer":
            return "infer", item[1], self.stripped[item[1]]
        return "check", item[1], tagged(self.sources[item[1]], item[2])

    @staticmethod
    def _server_spans(recorder, parent, start, seconds, response, tokens) -> None:
        """Lay the daemon's own ``timings`` out as children of the
        request span; what is left over is the wire, protocol and
        dispatch time of the service layer."""
        pieces: dict[str, float] = {}
        for key, value in response.get("timings", {}).items():
            if key != "total":
                name = SERVER_SPANS.get(key, "infer.run")
                pieces[name] = pieces.get(name, 0.0) + float(value)
        total = sum(pieces.values())
        scale = min(1.0, seconds / total) if total > 0 else 1.0
        cursor = start
        for name, value in pieces.items():
            width = value * scale
            attrs = {"tokens": tokens} if name == "lang.parse" else None
            recorder.add(parent, name, cursor, cursor + width, attrs)
            cursor += width

    # -- tracing ---------------------------------------------------------

    def targets(self) -> list[tuple]:
        self.tokens = TokenCounter()
        for source in [*self.sources.values(), *self.stripped.values()]:
            self.tokens(source)
        return []

    def layer_metrics(self, traced: Pass) -> dict:
        stats = self.cache_stats
        checks = stats.get("memory_hits", 0) + stats.get("disk_hits", 0) + (
            stats.get("misses", 0)
        )
        return {
            "service.hit_ratio": (
                (stats.get("memory_hits", 0) + stats.get("disk_hits", 0)) / checks
                if checks else 0.0
            ),
            **{
                f"service.{key}": stats.get(key, 0)
                for key in ("memory_hits", "disk_hits", "misses", "stores",
                            "evictions")
            },
            "service.failed": self.ctx.tally.failed,
        }
