"""Versioned JSON wire protocol for the checking service.

Every payload the service emits — ``repro check --json``, ``repro batch
--json``, daemon responses — is a JSON object carrying a ``version``
field so clients can reject envelopes they do not understand.  The
schema is documented in ``docs/SERVICE.md``; :func:`validate_check_payload`
is the executable version of that document.

Payload kinds:

* ``check`` — verdict of one :class:`~repro.core.checker.CheckReport`
  (:func:`check_payload` / :func:`report_from_payload`);
* ``infer`` — an inference run summary (:func:`infer_payload`);
* ``error`` — a front-end or service failure (:func:`error_payload`);
* ``campaign`` — the aggregate report of a fault-injection campaign
  (:func:`campaign_payload`; schema in ``docs/ROBUSTNESS.md``,
  enforced by :func:`validate_campaign_payload`).

Serialization is newline-delimited: :func:`dumps` produces exactly one
line (no interior newlines), which is what the daemon speaks over its
Unix socket.

Daemon **requests** may carry one optional envelope field on top of the
per-op fields: ``trace``, a W3C-traceparent-style string
(``"00-<trace_id>-<span_id>-01"``, see :mod:`repro.obs.propagate`)
naming the calling client's active span.  The daemon then records that
span as the remote parent of its ``op.<name>`` span, stitching daemon
work into the client's distributed trace.  The field is additive and
optional: requests without it are handled exactly as before (old
clients stay byte-compatible), and a malformed value is answered with
an ``ok: false`` response, never a dropped connection.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.core.errors import Check, Severity

if TYPE_CHECKING:
    from repro.core.checker import CheckReport

#: Bump the minor version for additive changes, the major version for
#: breaking ones.  Cache entries embed this, so any bump invalidates the
#: on-disk result store.
PROTOCOL_VERSION = "1.0"


class ProtocolError(ValueError):
    """A payload violated the documented schema."""


def dumps(payload: dict) -> str:
    """Compact, single-line, key-sorted JSON — the wire form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(line: str) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# Payload constructors
# ---------------------------------------------------------------------------


def check_payload(
    report: CheckReport,
    *,
    file: Optional[str] = None,
    elapsed_seconds: Optional[float] = None,
    timings: Optional[dict] = None,
    cached: bool = False,
) -> dict:
    payload = {
        "version": PROTOCOL_VERSION,
        "kind": "check",
        "self_stabilizing": report.self_stabilizing,
        "error_count": len(report.errors),
        "warning_count": len(report.warnings),
        "report": report.to_dict(),
        "cached": cached,
    }
    if file is not None:
        payload["file"] = file
    if elapsed_seconds is not None:
        payload["elapsed_seconds"] = elapsed_seconds
    if timings is not None:
        payload["timings"] = timings
    return payload


def report_from_payload(payload: dict) -> CheckReport:
    # Imported here so that building payloads never loads the checker.
    from repro.core.checker import CheckReport

    validate_check_payload(payload)
    return CheckReport.from_dict(payload["report"])


def infer_payload(
    summary: dict,
    *,
    file: Optional[str] = None,
    timings: Optional[dict] = None,
) -> dict:
    """Wrap :meth:`InferenceResult.summary_dict` in a versioned envelope.

    With ``timings`` (from :func:`repro.infer.timed_infer`),
    ``elapsed_seconds`` is their ``total``: like a check payload's, it
    covers the whole run, front end and verification included, where
    the summary's own figure is SInfer's time alone (Table 6.1)."""
    payload = {"version": PROTOCOL_VERSION, "kind": "infer", **summary}
    if file is not None:
        payload["file"] = file
    if timings is not None:
        payload["timings"] = timings
        payload["elapsed_seconds"] = timings["total"]
    return payload


def campaign_payload(summary: dict) -> dict:
    """Wrap a campaign report (``CampaignReport.to_dict``) in the
    versioned envelope.  The summary stays a plain dict so this module
    never imports the runtime layer."""
    return {"version": PROTOCOL_VERSION, "kind": "campaign", **summary}


def chaos_payload(summary: dict) -> dict:
    """Wrap a chaos report (:func:`repro.chaos.run_campaign_oracle` /
    ``run_batch_oracle`` output) in the versioned envelope.  Plain dict
    in, so this module never imports the chaos layer."""
    return {"version": PROTOCOL_VERSION, "kind": "chaos", **summary}


def bench_payload(document: dict) -> dict:
    """Wrap a bench document (:func:`repro.obs.bench.bench_payload`,
    already schema-versioned on its own) in the versioned envelope, so
    ``repro bench --json`` speaks the same protocol as every other
    ``--json`` command."""
    return {"version": PROTOCOL_VERSION, **document}


def validate_bench_payload(payload: dict) -> None:
    """Raise :class:`ProtocolError` unless ``payload`` is a well-formed
    ``bench`` envelope (the inner document is checked by
    :func:`repro.obs.bench.validate_bench`)."""
    from repro.obs.bench import BenchError, validate_bench

    validate_version(payload)
    _require(payload.get("kind") == "bench",
             f"expected kind 'bench', got {payload.get('kind')!r}")
    try:
        validate_bench({k: v for k, v in payload.items() if k != "version"})
    except BenchError as exc:
        raise ProtocolError(str(exc)) from exc


def error_payload(
    message: str, *, file: Optional[str] = None, error: str = "front-end"
) -> dict:
    """A failure that produced no report (syntax/resolve/type errors,
    worker crashes, timeouts)."""
    payload = {
        "version": PROTOCOL_VERSION,
        "kind": "error",
        "error": error,
        "message": message,
    }
    if file is not None:
        payload["file"] = file
    return payload


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_SEVERITIES = {s.value for s in Severity}
_CHECKS = {c.value for c in Check}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def validate_version(payload: dict) -> None:
    version = payload.get("version")
    _require(isinstance(version, str), "missing protocol version")
    major = version.split(".", 1)[0]
    _require(
        major == PROTOCOL_VERSION.split(".", 1)[0],
        f"unsupported protocol version {version!r} "
        f"(speaking {PROTOCOL_VERSION})",
    )


def validate_diagnostic(entry: dict) -> None:
    _require(isinstance(entry, dict), "diagnostic must be an object")
    _require(entry.get("severity") in _SEVERITIES,
             f"bad severity {entry.get('severity')!r}")
    _require(entry.get("check") in _CHECKS,
             f"bad check kind {entry.get('check')!r}")
    _require(isinstance(entry.get("message"), str), "diagnostic needs a message")
    for field in ("line", "col"):
        _require(isinstance(entry.get(field), int), f"diagnostic needs int {field}")
    _require(isinstance(entry.get("context"), str), "diagnostic needs context")


def validate_check_payload(payload: dict) -> None:
    """Raise :class:`ProtocolError` unless ``payload`` is a well-formed
    ``check`` envelope (the schema in ``docs/SERVICE.md``)."""
    validate_version(payload)
    _require(payload.get("kind") == "check",
             f"expected kind 'check', got {payload.get('kind')!r}")
    _require(isinstance(payload.get("self_stabilizing"), bool),
             "self_stabilizing must be a bool")
    for field in ("error_count", "warning_count"):
        _require(isinstance(payload.get(field), int), f"{field} must be an int")
    report = payload.get("report")
    _require(isinstance(report, dict), "missing report object")
    _require(isinstance(report.get("self_stabilizing"), bool),
             "report.self_stabilizing must be a bool")
    diagnostics = report.get("diagnostics")
    _require(isinstance(diagnostics, list), "report.diagnostics must be a list")
    for entry in diagnostics:
        validate_diagnostic(entry)
    _require(
        payload["error_count"]
        == sum(1 for d in diagnostics if d["severity"] == "error"),
        "error_count disagrees with diagnostics",
    )
    _require(
        payload["self_stabilizing"] == (payload["error_count"] == 0),
        "self_stabilizing disagrees with error_count",
    )
    scope = report.get("checked_scope")
    _require(isinstance(scope, list), "report.checked_scope must be a list")
    for pair in scope:
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(p, str) for p in pair),
            "checked_scope entries must be [class, method] string pairs",
        )


_CAMPAIGN_MODES = ("exhaustive", "stratified", "uniform")
_CAMPAIGN_APP_COUNTS = (
    "sites_total", "trials", "injected", "masked", "recovered",
    "diverged", "timeout", "not_injected",
)
_CAMPAIGN_APP_RATES = ("mask_rate", "divergence_rate", "timeout_rate")


def validate_campaign_app(entry: dict) -> None:
    _require(isinstance(entry, dict), "campaign app entry must be an object")
    _require(isinstance(entry.get("app"), str), "campaign app needs a name")
    for field in _CAMPAIGN_APP_COUNTS:
        _require(
            isinstance(entry.get(field), int) and entry[field] >= 0,
            f"campaign app {field} must be a non-negative int",
        )
    _require(
        entry["injected"] + entry["not_injected"] == entry["trials"],
        "injected + not_injected must equal trials",
    )
    _require(
        entry["masked"] + entry["recovered"] + entry["diverged"]
        + entry["timeout"] == entry["injected"],
        "per-verdict counts must sum to injected",
    )
    for field in _CAMPAIGN_APP_RATES:
        value = entry.get(field)
        _require(
            isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
            f"campaign app {field} must be a rate in [0, 1]",
        )
    histogram = entry.get("recovery_histogram")
    _require(isinstance(histogram, dict), "recovery_histogram must be an object")
    for bucket, count in histogram.items():
        _require(
            isinstance(bucket, str) and isinstance(count, int) and count >= 0,
            "recovery_histogram maps bucket strings to counts",
        )
    for field in ("recovery_iterations_p50", "recovery_iterations_p95"):
        value = entry.get(field)
        _require(
            value is None or isinstance(value, int),
            f"{field} must be an int or null",
        )


def validate_campaign_payload(payload: dict) -> None:
    """Raise :class:`ProtocolError` unless ``payload`` is a well-formed
    ``campaign`` envelope (the schema in ``docs/ROBUSTNESS.md``)."""
    validate_version(payload)
    _require(payload.get("kind") == "campaign",
             f"expected kind 'campaign', got {payload.get('kind')!r}")
    _require(payload.get("mode") in _CAMPAIGN_MODES,
             f"bad campaign mode {payload.get('mode')!r}")
    _require(isinstance(payload.get("seed"), int), "campaign needs an int seed")
    _require(isinstance(payload.get("complete"), bool),
             "campaign needs a complete flag")
    shards = payload.get("shards")
    _require(isinstance(shards, dict), "campaign needs a shards object")
    for field in ("planned", "completed", "infra_failed"):
        _require(
            isinstance(shards.get(field), int) and shards[field] >= 0,
            f"shards.{field} must be a non-negative int",
        )
    apps = payload.get("apps")
    _require(isinstance(apps, list) and apps, "campaign needs app entries")
    for entry in apps:
        validate_campaign_app(entry)
