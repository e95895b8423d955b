"""Content-addressed result cache for the checking service.

The key of a cache entry is the SHA-256 of the *source text* plus the
checker fingerprint (package version + protocol version), so a report is
reused only for byte-identical input checked by the same checker — an
unchanged file re-checks in O(hash) instead of re-running the front end
and all analyses (cf. bounding re-verification cost under repeated
checking, Tekken Valapil & Kulkarni).

Two layers:

* an in-memory LRU (bounded by ``max_entries``), for the daemon and for
  batch runs within one process;
* an optional on-disk store (one JSON file per digest under
  ``~/.cache/repro/`` by default, override with ``$REPRO_CACHE_DIR``),
  which survives process restarts and is shared by worker processes.

Disk entries embed the fingerprint; entries written by a different
checker version are treated as misses.  All disk I/O failures degrade to
cache misses — the cache must never make checking less reliable.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import repro
from repro.chaos.injector import chaos_recovery, get_chaos
from repro.core.checker import CheckReport
from repro.service.protocol import PROTOCOL_VERSION

#: Bump when the on-disk entry layout changes.
CACHE_SCHEMA = 1


def checker_fingerprint() -> str:
    """Identifies the checker that produced a cached report."""
    return f"repro-{repro.__version__}/proto-{PROTOCOL_VERSION}/schema-{CACHE_SCHEMA}"


def source_key(source: str) -> str:
    """Content address of one source text under the current checker."""
    digest = hashlib.sha256()
    digest.update(checker_fingerprint().encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def default_disk_dir() -> Path:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def to_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


@dataclass
class ResultCache:
    """LRU of :class:`CheckReport` keyed by source digest, with an
    optional disk tier.  ``disk_dir=None`` keeps the cache memory-only."""

    max_entries: int = 512
    disk_dir: Optional[Path] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: "OrderedDict[str, CheckReport]" = field(default_factory=OrderedDict)
    #: Serialized size per memory-tier entry, for occupancy telemetry.
    _sizes: dict = field(default_factory=dict)

    # -- lookup ----------------------------------------------------------

    def get(self, source: str) -> Optional[CheckReport]:
        key = source_key(source)
        report = self._memory.get(key)
        if report is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return report
        report = self._disk_get(key)
        if report is not None:
            self._remember(key, report)
            self.stats.disk_hits += 1
            return report
        self.stats.misses += 1
        return None

    def put(self, source: str, report: CheckReport) -> None:
        key = source_key(source)
        self._remember(key, report)
        self._disk_put(key, report)
        self.stats.stores += 1

    def __len__(self) -> int:
        return len(self._memory)

    # -- memory tier -----------------------------------------------------

    def _remember(self, key: str, report: CheckReport) -> None:
        self._memory[key] = report
        self._memory.move_to_end(key)
        try:
            self._sizes[key] = len(json.dumps(report.to_dict()))
        except (TypeError, ValueError):  # unserializable: count entry only
            self._sizes[key] = 0
        while len(self._memory) > self.max_entries:
            evicted, _ = self._memory.popitem(last=False)
            self._sizes.pop(evicted, None)
            self.stats.evictions += 1

    def occupancy(self) -> dict:
        """Entries and serialized bytes per cache tier — the shape the
        resource monitor's ``watch_cache`` suppliers, the daemon's
        ``/healthz`` document, and the ``repro_cache_*`` occupancy
        gauges report.  Disk-tier I/O errors degrade to zeros: telemetry
        must never make checking less reliable."""
        tiers = {
            "memory": {
                "entries": len(self._memory),
                "bytes": sum(self._sizes.values()),
            },
        }
        if self.disk_dir is not None:
            entries = 0
            total = 0
            try:
                for path in self.disk_dir.glob("*.json"):
                    try:
                        total += path.stat().st_size
                    except OSError:
                        continue
                    entries += 1
            except OSError:
                pass
            tiers["disk"] = {"entries": entries, "bytes": total}
        return tiers

    # -- disk tier -------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{key}.json"

    def _disk_get(self, key: str) -> Optional[CheckReport]:
        if self.disk_dir is None:
            return None
        path = self._entry_path(key)
        get_chaos().slow_point("cache.read", key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("cache entry must be a JSON object")
            if entry.get("fingerprint") != checker_fingerprint():
                # A different checker version wrote this (or the entry
                # predates fingerprinting): a miss, but not garbage —
                # leave it for whichever version owns it.
                return None
            report_data = entry["report"]
            # CheckReport.from_dict is lenient (missing keys default to
            # empty), so a wrong-shaped report would deserialize as a
            # falsely *clean* verdict — require the real shape first.
            if not isinstance(report_data, dict) or not (
                {"diagnostics", "checked_scope"} <= report_data.keys()
            ):
                raise ValueError("malformed cache entry report")
            return CheckReport.from_dict(report_data)
        except (ValueError, KeyError, TypeError, AttributeError):
            # Truncated/zero-byte/malformed JSON, or a structurally
            # broken report: treat as a miss and quarantine the file so
            # the slot heals on the next store instead of failing every
            # lookup.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            chaos_recovery(
                "cache-entry-quarantined", "cache.entry", key=key
            )
            return None

    def _disk_put(self, key: str, report: CheckReport) -> None:
        if self.disk_dir is None:
            return
        entry = {
            "fingerprint": checker_fingerprint(),
            "version": PROTOCOL_VERSION,
            "report": report.to_dict(),
        }
        path = self._entry_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        chaos = get_chaos()
        chaos.slow_point("cache.write", key)
        blob = json.dumps(entry).encode("utf-8")
        # A planned cache-corrupt fault truncates the entry *after* the
        # atomic rename — the bit-rot / torn-page case the quarantine
        # path in _disk_get exists for.
        corrupted = chaos.corrupt_bytes("cache.entry", key, blob)
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob if corrupted is None else corrupted)
            os.replace(tmp, path)  # atomic: readers never see partial JSON
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
