"""Deterministic infrastructure fault injection.

:class:`~repro.runtime.injection.ErrorInjector` corrupts *program*
state; this module corrupts the *execution substrate* underneath it —
worker processes, checkpoint manifests, the disk cache, the daemon
socket — so the harness's own hardening is exercised the way the paper
exercises checked programs.  The "ideal stabilization" standard applies:
every reachable infrastructure state is a possible initial state, and a
seeded chaos run must converge to statistics identical to a fault-free
run (the convergence oracle in :mod:`repro.chaos.oracle`).

Fault classes (:data:`FAULTS`):

==================  ========================================================
``worker-crash``    SIGKILL a pool worker mid-shard (breaks the process pool)
``worker-hang``     a worker sleeps past its per-task timeout
``torn-manifest``   checkpoint write crashes mid-write (truncated final
                    file) or between write and rename (stale target)
``cache-corrupt``   a just-written disk-cache entry is truncated
``socket-drop``     the daemon connection is reset mid-request
``duplicate-shard`` a settled shard is delivered to the driver twice
``slow-io``         latency injected at an I/O site
==================  ========================================================

Every decision is a **pure function of** ``(seed, fault, site, key)`` —
a SHA-256 roll against ``rate`` — so the same chaos config plans the
same faults no matter how retries interleave.  Execution is
**exactly-once** per ``(fault, site, key)``: a marker ledger (an
in-memory set, or one file per fault under ``state_dir`` when faults
must survive the process boundary, e.g. a SIGKILLed worker's retry)
guarantees a planned fault fires on the first delivery only, which is
what lets a crashed shard's retry complete.

Like the tracer and the event log, the injector sits in a
:class:`~repro.obs.slot.Slot` whose default :class:`NullChaosInjector`
probes are no-ops — instrumented infrastructure paths pay one slot read
and a predicate call when chaos is off, pinned by a micro-benchmark in
``tests/chaos/test_injector.py``.

Every injected fault emits a ``chaos.<fault>`` event (level ``warn``)
and bumps ``repro_chaos_injected_total``; every recovery action the
hardened layers take emits ``chaos.recovery`` (via
:func:`chaos_recovery`, which fires whether or not an injector is
installed — a *real* torn manifest deserves the same telemetry as an
injected one).  See ``docs/ROBUSTNESS.md`` for the fault matrix and
``docs/OBSERVABILITY.md`` for the event schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.obs import global_registry
from repro.obs.events import get_event_log
from repro.obs.slot import Slot

#: The fault classes the injector can plan.
FAULTS = (
    "worker-crash",
    "worker-hang",
    "torn-manifest",
    "cache-corrupt",
    "socket-drop",
    "duplicate-shard",
    "slow-io",
)

#: Faults that must fire inside a pool *worker* process (and therefore
#: need a ``state_dir`` ledger so the retry after a kill sees the
#: marker the dying worker left behind).
WORKER_FAULTS = ("worker-crash", "worker-hang")


class ChaosError(ValueError):
    """A chaos configuration is invalid."""


def parse_faults(spec: str) -> tuple[str, ...]:
    """Parse a ``--faults`` value: ``all`` or a comma-separated subset
    of :data:`FAULTS`; unknown names fail loudly."""
    if spec.strip() == "all":
        return FAULTS
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    unknown = [name for name in names if name not in FAULTS]
    if unknown:
        raise ChaosError(f"unknown fault classes {unknown}; known: {FAULTS}")
    if not names:
        raise ChaosError("--faults needs at least one fault class (or 'all')")
    return names


@dataclass(frozen=True)
class ChaosConfig:
    """Everything that determines which faults fire where.

    Two equal configs plan identical faults: the plan is a pure function
    of the config, never of wall clock, pid, or retry order.
    """

    seed: int = 0
    #: Probability (per ``(fault, site, key)`` opportunity) in [0, 1].
    rate: float = 1.0
    faults: tuple[str, ...] = FAULTS
    #: Site prefixes to restrict injection to (empty: everywhere).
    sites: tuple[str, ...] = ()
    #: Cross-process exactly-once ledger directory; required for
    #: :data:`WORKER_FAULTS` to survive the pickle/SIGKILL boundary.
    state_dir: Optional[str] = None
    #: Total fault budget per injector (None: unbounded).
    max_fires: Optional[int] = None
    #: How long a hung worker sleeps; must exceed the pool's task
    #: timeout for the hang to be observed as one.
    hang_seconds: float = 30.0
    #: Injected latency per ``slow-io`` fault.
    slow_io_seconds: float = 0.05

    def __post_init__(self) -> None:
        unknown = [name for name in self.faults if name not in FAULTS]
        if unknown:
            raise ChaosError(
                f"unknown fault classes {unknown}; known: {FAULTS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ChaosError(f"rate must be in [0, 1], got {self.rate!r}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rate": self.rate,
            "faults": list(self.faults),
            "sites": list(self.sites),
            "state_dir": self.state_dir,
            "max_fires": self.max_fires,
            "hang_seconds": self.hang_seconds,
            "slow_io_seconds": self.slow_io_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosConfig":
        return cls(**{
            **data,
            "faults": tuple(data.get("faults", FAULTS)),
            "sites": tuple(data.get("sites", ())),
        })


def _event_name(fault: str) -> str:
    return "chaos." + fault.replace("-", "_")


def chaos_recovery(action: str, site: str, **attrs) -> None:
    """Record one recovery action: a ``chaos.recovery`` event plus the
    ``repro_chaos_recovered_total`` counter.  Hardened layers call this
    on *every* recovery, injected or organic, so the chaos report panel
    sees the full picture."""
    get_event_log().emit(
        "chaos.recovery", level="info", action=action, site=site, **attrs
    )
    global_registry().counter(
        "repro_chaos_recovered_total", "infrastructure recovery actions"
    ).inc()


class ChaosInjector:
    """Plans and executes infrastructure faults.

    The probe methods (:meth:`crash_point`, :meth:`hang_point`,
    :meth:`slow_point`, :meth:`corrupt_bytes`, :meth:`torn_write`,
    :meth:`fire`) are the instrumentation sites' whole API; each decides
    (purely), claims (exactly-once), records, and executes.  ``sleep``
    is injectable so tests never wait on real latency.
    """

    enabled = True

    def __init__(
        self,
        config: ChaosConfig,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self.sleep = sleep
        self._fired_local: set[str] = set()
        self._records: list[dict] = []
        self._fires = 0
        self._lock = threading.Lock()
        if config.state_dir is not None:
            Path(config.state_dir).mkdir(parents=True, exist_ok=True)

    # -- the pure plan ---------------------------------------------------

    def _roll(self, fault: str, site: str, key: str) -> float:
        blob = f"{self.config.seed}|{fault}|{site}|{key}".encode("utf-8")
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def decide(self, fault: str, site: str, key: str) -> bool:
        """Whether the plan includes this fault at this site/occurrence —
        a pure function of ``(seed, fault, site, key)``."""
        if fault not in self.config.faults:
            return False
        if self.config.sites and not any(
            site.startswith(prefix) for prefix in self.config.sites
        ):
            return False
        return self._roll(fault, site, key) < self.config.rate

    # -- exactly-once execution ------------------------------------------

    def _marker(self, fault: str, site: str, key: str) -> str:
        blob = f"{fault}|{site}|{key}".encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:32]

    def _claim(self, fault: str, site: str, key: str) -> bool:
        """Claim the right to execute this fault; False when a previous
        delivery (possibly in another process) already did."""
        marker = self._marker(fault, site, key)
        record = {"fault": fault, "site": site, "key": key, "pid": os.getpid()}
        if self.config.state_dir is None:
            with self._lock:
                if marker in self._fired_local:
                    return False
                if (
                    self.config.max_fires is not None
                    and self._fires >= self.config.max_fires
                ):
                    return False
                self._fired_local.add(marker)
                self._fires += 1
                self._records.append(record)
            return True
        with self._lock:
            if (
                self.config.max_fires is not None
                and self._fires >= self.config.max_fires
            ):
                return False
            path = Path(self.config.state_dir) / f"{marker}.json"
            try:
                with open(path, "x", encoding="utf-8") as fh:
                    fh.write(json.dumps(record))
                    fh.flush()
                    os.fsync(fh.fileno())
            except FileExistsError:
                return False
            except OSError:
                # An unwritable ledger must not break the harness; the
                # fault simply does not fire.
                return False
            self._fires += 1
            self._records.append(record)
        return True

    def fire(self, fault: str, site: str, key, **attrs) -> bool:
        """True when the caller must execute ``fault`` here and now:
        the plan includes it and no earlier delivery claimed it.  The
        ledger marker is durable *before* this returns, so even a fault
        that kills the process (``worker-crash``) is never re-executed
        on retry."""
        key = str(key)
        if not self.decide(fault, site, key):
            return False
        if not self._claim(fault, site, key):
            return False
        get_event_log().emit(
            _event_name(fault),
            level="warn",
            fault=fault,
            site=site,
            key=key,
            **attrs,
        )
        registry = global_registry()
        registry.counter(
            "repro_chaos_injected_total", "infrastructure faults injected"
        ).inc()
        registry.counter(
            f"repro_chaos_{fault.replace('-', '_')}_total",
            f"{fault} faults injected",
        ).inc()
        return True

    # -- probe helpers (the instrumentation-site API) --------------------

    def crash_point(self, site: str, key) -> None:
        """SIGKILL the current process when a ``worker-crash`` is
        planned here — the hard kill a real OOM/CRIU/preemption event
        delivers, not an exception the worker could catch."""
        if self.fire("worker-crash", site, key):
            os.kill(os.getpid(), signal.SIGKILL)

    def hang_point(self, site: str, key) -> None:
        """Sleep past the per-task timeout when a ``worker-hang`` is
        planned here."""
        if self.fire("worker-hang", site, key, seconds=self.config.hang_seconds):
            self.sleep(self.config.hang_seconds)

    def slow_point(self, site: str, key) -> None:
        """Inject ``slow_io_seconds`` of latency when planned."""
        if self.fire("slow-io", site, key, seconds=self.config.slow_io_seconds):
            self.sleep(self.config.slow_io_seconds)

    def corrupt_bytes(self, site: str, key, data: bytes) -> Optional[bytes]:
        """The truncated replacement for ``data`` when a
        ``cache-corrupt`` is planned here, else None."""
        if self.fire("cache-corrupt", site, key, size=len(data)):
            return data[: max(1, len(data) // 2)]
        return None

    def torn_write(self, site: str, key) -> Optional[str]:
        """How a ``torn-manifest`` should tear this write, when planned:
        ``"truncate"`` (crash mid-write of the final file) or
        ``"no-rename"`` (crash between write and rename — the target
        keeps its stale previous content).  The variant is itself a pure
        function of the plan."""
        key = str(key)
        if not self.fire("torn-manifest", site, key):
            return None
        variant = (
            "truncate"
            if self._roll("torn-manifest-variant", site, key) < 0.5
            else "no-rename"
        )
        get_event_log().emit(
            "chaos.torn_manifest_variant",
            level="debug",
            site=site,
            key=key,
            variant=variant,
        )
        return variant

    def duplicate_point(self, site: str, key) -> bool:
        """True when a settled delivery should be replayed once."""
        return self.fire("duplicate-shard", site, key)

    def drop_point(self, site: str, key) -> bool:
        """True when the connection should be reset here."""
        return self.fire("socket-drop", site, key)

    # -- introspection ---------------------------------------------------

    def fired(self) -> list[dict]:
        """Every fault this injector (and, with a ``state_dir``, every
        process sharing its ledger) has executed, as
        ``{"fault", "site", "key", "pid"}`` records sorted for
        determinism."""
        if self.config.state_dir is None:
            with self._lock:
                records = list(self._records)
        else:
            records = []
            for path in sorted(Path(self.config.state_dir).glob("*.json")):
                try:
                    records.append(
                        json.loads(path.read_text(encoding="utf-8"))
                    )
                except (OSError, ValueError):
                    continue  # a marker torn by the kill it recorded
        return sorted(
            records, key=lambda r: (r["fault"], r["site"], r["key"])
        )

    def summary(self) -> dict:
        """Fired-fault counts by class (the chaos report's numbers)."""
        counts: dict[str, int] = {}
        for record in self.fired():
            counts[record["fault"]] = counts.get(record["fault"], 0) + 1
        return {
            "injected": sum(counts.values()),
            "by_fault": dict(sorted(counts.items())),
        }

    def worker_payload(self) -> Optional[dict]:
        """The config dict shipped inside shard payloads so pool workers
        rebuild the injector on their side of the pickle boundary —
        None when no worker fault could ever fire (no worker faults
        enabled, or no cross-process ledger to keep them exactly-once)."""
        if self.config.state_dir is None:
            return None
        if not any(fault in self.config.faults for fault in WORKER_FAULTS):
            return None
        worker_faults = tuple(
            fault for fault in self.config.faults
            if fault in WORKER_FAULTS or fault == "slow-io"
        )
        return ChaosConfig(
            seed=self.config.seed,
            rate=self.config.rate,
            faults=worker_faults,
            sites=self.config.sites,
            state_dir=self.config.state_dir,
            hang_seconds=self.config.hang_seconds,
            slow_io_seconds=self.config.slow_io_seconds,
        ).to_dict()


class NullChaosInjector:
    """The disabled injector: every probe is a no-op.  Kept trivial —
    these probes sit on manifest writes, cache lookups, and the daemon
    request path, and must cost ~nothing when chaos is off."""

    enabled = False

    def decide(self, fault: str, site: str, key: str) -> bool:
        return False

    def fire(self, fault: str, site: str, key, **attrs) -> bool:
        return False

    def crash_point(self, site: str, key) -> None:
        return None

    def hang_point(self, site: str, key) -> None:
        return None

    def slow_point(self, site: str, key) -> None:
        return None

    def corrupt_bytes(self, site: str, key, data: bytes) -> Optional[bytes]:
        return None

    def torn_write(self, site: str, key) -> Optional[str]:
        return None

    def duplicate_point(self, site: str, key) -> bool:
        return False

    def drop_point(self, site: str, key) -> bool:
        return False

    def fired(self) -> list[dict]:
        return []

    def summary(self) -> dict:
        return {"injected": 0, "by_fault": {}}

    def worker_payload(self) -> Optional[dict]:
        return None


#: The process-wide injector instrumented infrastructure probes.
_CHAOS: Slot[ChaosInjector | NullChaosInjector] = Slot(NullChaosInjector())
get_chaos = _CHAOS.get
set_chaos = _CHAOS.set
installed_chaos = _CHAOS.installed
