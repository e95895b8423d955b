"""The codec the BENCH, PROFILE and MEM payloads share.

Each is one JSON document behind the same envelope: ``schema`` (the
layout version), ``kind``, ``created_utc`` and the environment
``fingerprint`` it was measured in.  This module builds and checks that
envelope and reads and writes the ``<PREFIX>_<UTCSTAMP>.json`` files;
each payload module keeps its own body checks and error type, which it
passes in.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable, Optional

_FINGERPRINT_KEYS = (
    "python", "implementation", "platform", "machine", "cpu_count", "git_sha",
)


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_fingerprint() -> dict:
    """Where a payload was measured — enough to judge whether two
    payloads are comparable at all."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def envelope(
    schema: int,
    kind: str,
    *,
    fingerprint: Optional[dict] = None,
    created_utc: Optional[str] = None,
) -> dict:
    """The envelope fields of a new payload.  The fingerprint and
    timestamp default to the live ones and are injectable for
    byte-stable golden tests."""
    return {
        "schema": schema,
        "kind": kind,
        "created_utc": created_utc if created_utc is not None else utc_now(),
        "fingerprint": (
            fingerprint if fingerprint is not None
            else environment_fingerprint()
        ),
    }


def check_envelope(
    payload, schema: int, kind: str, error: type[ValueError]
) -> None:
    """Raise ``error`` unless ``payload`` is a JSON object with this
    ``schema`` and ``kind``, a string timestamp and a full fingerprint."""
    if not isinstance(payload, dict):
        raise error(f"{kind} payload must be a JSON object")
    if payload.get("schema") != schema:
        raise error(
            f"unsupported {kind} schema {payload.get('schema')!r} "
            f"(speaking {schema})"
        )
    if payload.get("kind") != kind:
        raise error(f"unknown {kind} kind {payload.get('kind')!r}")
    if not isinstance(payload.get("created_utc"), str):
        raise error("created_utc must be a string")
    fingerprint = payload.get("fingerprint")
    if not isinstance(fingerprint, dict):
        raise error("fingerprint must be an object")
    missing = [key for key in _FINGERPRINT_KEYS if key not in fingerprint]
    if missing:
        raise error(f"fingerprint missing keys {missing}")


def read_payload(
    path: str | Path,
    validate: Callable[[dict], dict],
    error: type[ValueError],
) -> dict:
    """Parse one payload file and ``validate`` it; a torn file or an
    invalid payload raises ``error`` prefixed with the path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    try:
        return validate(payload)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


def dumps_payload(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_payload(
    payload: dict, path: str | Path | None, prefix: str
) -> Path:
    """Write ``payload`` to ``path``, defaulting to
    ``<prefix>_<UTCSTAMP>.json`` in the current directory, so repeated
    runs never overwrite each other."""
    if path is None:
        stamp = payload["created_utc"].replace("-", "").replace(":", "")
        path = Path.cwd() / f"{prefix}_{stamp}.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_payload(payload), encoding="utf-8")
    return path
