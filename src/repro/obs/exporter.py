"""A dependency-free HTTP observability plane.

:class:`MetricsExporter` runs a stdlib :mod:`http.server` on a daemon
thread and serves three read-only endpoints:

* ``GET /metrics`` — the Prometheus text exposition of a
  :class:`~repro.obs.metrics.MetricsRegistry`.  An optional ``prepare``
  callback runs first (the daemon passes its cache-stats sync), so the
  body is **byte-equal** to the daemon's socket ``metrics`` op with
  ``format="prometheus"`` — CI diffs the two;
* ``GET /healthz`` — a small JSON liveness document from the ``health``
  callback (the daemon reports pid, uptime, in-flight requests from its
  drain accounting, requests served);
* ``GET /events?level=&name=&limit=`` — JSON from the ``events``
  callback (the daemon's in-memory event ring), filtered through
  :func:`repro.obs.events.filter_events` exactly like the socket
  ``events`` op.

Attach points: ``repro serve --http-port`` and ``repro campaign
--http-port`` (long drives export the process-wide registry).  Like
every obs layer, the off state is a null object —
:func:`maybe_exporter` returns a :class:`NullExporter` when no port is
configured, and a micro-benchmark pins its zero cost.

Binding defaults to ``127.0.0.1`` (the plane is observability, not an
API; put a real reverse proxy in front to expose it).  ``port=0`` binds
an ephemeral port, published as :attr:`MetricsExporter.port` — tests
use it.  A Prometheus scrape-config example lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.events import EventError, filter_events
from repro.obs.metrics import MetricsRegistry

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ExporterError(RuntimeError):
    """The exporter could not bind or is used before :meth:`start`."""


class _Handler(BaseHTTPRequestHandler):
    # Responses are tiny; one HTTP/1.0-style response per connection
    # keeps the handler trivial and scraper-compatible.
    server: "_Server"

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        exporter = self.server.exporter
        url = urlparse(self.path)
        if url.path == "/metrics":
            self._send(200, PROMETHEUS_CONTENT_TYPE, exporter.metrics_text())
        elif url.path == "/healthz":
            self._send_json(200, exporter.health_document())
        elif url.path == "/events":
            self._events(parse_qs(url.query))
        else:
            self._send_json(
                404,
                {"ok": False, "message": f"unknown path {url.path!r}; "
                 f"endpoints: /metrics /healthz /events"},
            )

    def _events(self, query: dict[str, list[str]]) -> None:
        exporter = self.server.exporter
        if exporter.events is None:
            self._send_json(
                404,
                {"ok": False,
                 "message": "no event ring attached to this exporter"},
            )
            return
        limit_text = query.get("limit", [None])[0]
        limit: Optional[int] = None
        if limit_text is not None:
            try:
                limit = int(limit_text)
                if limit < 0:
                    raise ValueError
            except ValueError:
                self._send_json(
                    400,
                    {"ok": False,
                     "message": f"limit must be a non-negative int, "
                     f"got {limit_text!r}"},
                )
                return
        try:
            selected = filter_events(
                exporter.events(),
                min_level=query.get("level", [None])[0],
                name=query.get("name", [None])[0],
                tail=limit,
            )
        except EventError as exc:
            self._send_json(400, {"ok": False, "message": str(exc)})
            return
        self._send_json(200, {"ok": True, "events": selected})

    def _send_json(self, status: int, document: dict) -> None:
        self._send(
            status,
            "application/json",
            json.dumps(document, sort_keys=True) + "\n",
        )

    def _send(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the scraper went away mid-response; not our problem

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes every few seconds must not spam stderr


class PromptShutdownMixin:
    """Makes a :mod:`socketserver` server's :meth:`shutdown` wake
    :meth:`serve_forever` at once; list it before the server class.
    The stock loop sees a shutdown only when its ``select()`` times out
    (``poll_interval``, 0.5 s by default); this one also selects on a
    socket pair that :meth:`shutdown` writes a byte to."""

    def __init__(self, *args, **kwargs) -> None:
        # Made first: a failed bind inside the server's __init__ calls
        # server_close(), which closes the pair.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._stop_requested = False
        self._stopped = threading.Event()
        super().__init__(*args, **kwargs)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_recv, selectors.EVENT_READ)
                while not self._stop_requested:
                    ready = selector.select(poll_interval)
                    if self._stop_requested:
                        break
                    for key, _ in ready:
                        if key.fileobj is self:
                            self._handle_request_noblock()
                        else:  # a wake byte left by an earlier shutdown
                            self._wake_recv.recv(64)
                    self.service_actions()
        finally:
            self._stop_requested = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stop_requested = True
        try:
            self._wake_send.send(b"\0")
        except OSError:  # server_close() ran, so the loop has stopped
            pass
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_recv.close()
        self._wake_send.close()


class _Server(PromptShutdownMixin, ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    exporter: "MetricsExporter"


class MetricsExporter:
    """Serves a registry (plus optional health/events callbacks) over
    HTTP from a daemon thread.  Construct, :meth:`start`, :meth:`close`
    — or use :func:`maybe_exporter`."""

    enabled = True

    def __init__(
        self,
        *,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        prepare: Optional[Callable[[], None]] = None,
        events: Optional[Callable[[], list]] = None,
        health: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.requested_port = port
        self.prepare = prepare
        self.events = events
        self.health = health
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    # -- the three documents ---------------------------------------------

    def metrics_text(self) -> str:
        """What ``/metrics`` serves — the exact bytes the socket
        ``metrics`` op returns in ``metrics_text``."""
        if self.prepare is not None:
            self.prepare()
        return self.registry.render_prometheus()

    def health_document(self) -> dict:
        document = {"ok": True}
        if self.health is not None:
            document.update(self.health())
        return document

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None:
            raise ExporterError("exporter is not started")
        return self._server.server_address[1]

    def start(self) -> "MetricsExporter":
        if self._server is not None:
            return self
        try:
            server = _Server((self.host, self.requested_port), _Handler)
        except OSError as exc:
            raise ExporterError(
                f"cannot bind http exporter to "
                f"{self.host}:{self.requested_port}: {exc}"
            ) from exc
        server.exporter = self
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, daemon=True,
            name="repro-http-exporter",
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class NullExporter:
    """The disabled exporter: every lifecycle call is a no-op.  Servers
    and campaign drivers hold one of these when no ``--http-port`` was
    given, so the off state costs an attribute lookup and a call —
    pinned by a micro-benchmark in ``tests/obs/test_propagate.py``."""

    enabled = False
    port = None

    def start(self) -> "NullExporter":
        return self

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullExporter":
        return self

    def __exit__(self, *exc) -> None:
        return None


def maybe_exporter(
    port: Optional[int],
    *,
    registry: MetricsRegistry,
    host: str = "127.0.0.1",
    prepare: Optional[Callable[[], None]] = None,
    events: Optional[Callable[[], list]] = None,
    health: Optional[Callable[[], dict]] = None,
) -> MetricsExporter | NullExporter:
    """A started :class:`MetricsExporter` when ``port`` is set, the
    shared-shape :class:`NullExporter` when it is ``None``."""
    if port is None:
        return NullExporter()
    return MetricsExporter(
        registry=registry, host=host, port=port,
        prepare=prepare, events=events, health=health,
    ).start()
