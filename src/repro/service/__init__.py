"""The checking service: batch, cache, daemon, wire protocol.

The single-shot CLI re-runs the front end and all six analyses per
invocation; this package turns the checker into infrastructure that can
serve sustained traffic (see ``docs/SERVICE.md``):

* :mod:`repro.service.protocol` — versioned JSON payloads for
  diagnostics, reports and inference summaries;
* :mod:`repro.service.cache` — content-addressed result cache
  (in-memory LRU + on-disk store), keyed by SHA-256 of source +
  checker version;
* :mod:`repro.service.pool` — process-pool batch checking with
  per-task timeouts and graceful in-process degradation;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  long-lived Unix-socket daemon speaking newline-delimited JSON.

CLI entry points: ``repro batch``, ``repro serve``, and ``--json`` on
``repro check`` / ``repro infer``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cache": ("ResultCache", "checker_fingerprint", "source_key"),
    "client": (
        "ReproClient", "ServiceError", "StaleSocketError",
        "remove_stale_socket", "socket_is_live",
    ),
    "pool": ("BatchResult", "CheckerPool", "ResilientPool", "TaskFailure"),
    "protocol": ("PROTOCOL_VERSION", "ProtocolError"),
    "server": ("ReproServer", "serve"),
})
