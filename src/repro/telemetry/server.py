"""Live campaign observability over HTTP (``fuzz --serve-metrics``).

A stdlib-only (:mod:`http.server`) daemon thread serving three
endpoints while a campaign runs:

``/metrics``
    The telemetry registry's counters, gauges and phase times in
    Prometheus text exposition format (:mod:`repro.telemetry.metrics`),
    plus server-side gauges (``repro_telemetry_io_errors_total``,
    ``repro_server_events_seen``, ``repro_server_uptime_s``).  Renders a
    fresh snapshot per scrape; if a render races a mutating campaign
    thread, the last good exposition is served instead (stale snapshot,
    never a 500).

``/status``
    One JSON campaign frame: model/seed/workers, current phase, live
    coverage, plateau state, engine backend, and a per-worker map with
    heartbeat ages — the :class:`CampaignStatus` the engine and the
    parallel supervisor update as they go.

``/events``
    The tail of the live trace (``?n=`` caps the count, default 128) as
    a JSON array.  Fed by a telemetry *listener*, independent of the
    JSONL sink — so the endpoint keeps answering after ``io_errors``
    degrades the sink to no-trace.

The server is read-only and campaign-scoped: it binds to loopback by
default, starts before the campaign and is closed (cleanly: listener
removed, socket closed, thread joined) when the campaign ends.

The HTTP plumbing lives in :class:`HttpEndpoint`, a reusable base (bind,
daemon thread, clean shutdown, method dispatch) shared with the campaign
service's job API (:mod:`repro.service.api`) — the service multiplexes
this module's per-campaign frame across many jobs on the same plumbing.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .core import Telemetry
from .metrics import render_prometheus

__all__ = ["CampaignStatus", "HttpEndpoint", "MetricsServer"]

#: default /events tail length (ring size is the hard cap)
_DEFAULT_TAIL = 128


class CampaignStatus:
    """Thread-safe live view of one campaign, JSON-serializable.

    Campaign-level fields are free-form (``update``); per-worker entries
    track the last heartbeat (monotonic, so ages survive clock steps),
    the worker's phase, and its latest reported stats.  Both the
    single-process engine (as worker 0) and the parallel supervisor
    write here; the ``/status`` handler reads.  The campaign service
    keeps one instance per job, so ``GET /jobs/<id>`` serves the same
    frame this class renders for a standalone campaign.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._campaign: Dict[str, object] = {}
        self._workers: Dict[int, Dict[str, object]] = {}
        self._started = time.monotonic()

    def update(self, **fields) -> None:
        """Merge campaign-level fields (model, phase, covered, ...)."""
        with self._lock:
            self._campaign.update(fields)

    def worker_update(self, worker: int, heartbeat: bool = True, **fields) -> None:
        """Merge one worker's fields; ``heartbeat`` refreshes its age."""
        with self._lock:
            entry = self._workers.setdefault(int(worker), {})
            entry.update(fields)
            if heartbeat:
                entry["_hb_mt"] = time.monotonic()

    def as_dict(self) -> Dict[str, object]:
        now = time.monotonic()
        with self._lock:
            frame = dict(self._campaign)
            workers = {}
            for worker, entry in sorted(self._workers.items()):
                view = {k: v for k, v in entry.items() if not k.startswith("_")}
                hb = entry.get("_hb_mt")
                if hb is not None:
                    view["heartbeat_age_s"] = round(now - hb, 3)
                workers[str(worker)] = view
        frame["uptime_s"] = round(now - self._started, 3)
        frame["workers_detail"] = workers
        return frame


class _Handler(BaseHTTPRequestHandler):
    """Parses the request line and hands off to the endpoint's dispatch."""

    server_version = "repro-metrics"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: D102 - silence stderr
        pass

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, method: str) -> None:
        endpoint = self.server.endpoint  # type: ignore[attr-defined]
        url = urlparse(self.path)
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        code, content_type, payload = endpoint.dispatch(
            method, url.path, parse_qs(url.query), body
        )
        self._send(code, payload, content_type)

    def do_GET(self):  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self):  # noqa: N802 - http.server API
        self._handle("POST")

    def do_DELETE(self):  # noqa: N802 - http.server API
        self._handle("DELETE")


class HttpEndpoint:
    """A loopback HTTP endpoint on one daemon thread, cleanly closable.

    Subclasses implement :meth:`dispatch` (method + path + parsed query
    + raw body -> status, content type, payload) and get binding
    (``port=0`` = ephemeral), threaded serving, idempotent shutdown and
    the context-manager protocol for free.  Both the per-campaign
    :class:`MetricsServer` and the campaign service's job API are built
    on this class.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1"):
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # --------------------------- dispatch ------------------------------ #
    def dispatch(
        self, method: str, path: str, query: Dict, body: bytes
    ) -> Tuple[int, str, bytes]:
        """Route one request; the base knows nothing and 404s."""
        return self.not_found()

    # response helpers shared by every endpoint
    @staticmethod
    def json_response(payload, code: int = 200) -> Tuple[int, str, bytes]:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return code, "application/json", body

    @staticmethod
    def text_response(
        text: str, code: int = 200, content_type: str = "text/plain"
    ) -> Tuple[int, str, bytes]:
        return code, content_type, text.encode("utf-8")

    @staticmethod
    def not_found(message: str = "not found") -> Tuple[int, str, bytes]:
        return 404, "text/plain", (message + "\n").encode("utf-8")

    @staticmethod
    def error_response(code: int, message: str) -> Tuple[int, str, bytes]:
        body = json.dumps({"error": message}).encode("utf-8")
        return code, "application/json", body

    # --------------------------- lifecycle ----------------------------- #
    def start(self) -> "HttpEndpoint":
        """Bind the socket and start the serving thread (idempotent)."""
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        httpd.daemon_threads = True
        httpd.endpoint = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-http-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def close(self) -> None:
        """Stop serving: accept loop halted, socket closed, thread joined.

        Idempotent and safe before :meth:`start`.
        """
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "HttpEndpoint":
        return self.start()

    def __exit__(self, *exc):
        self.close()
        return False


class MetricsServer(HttpEndpoint):
    """The campaign observability endpoint: one daemon HTTP thread.

    ``port=0`` binds an ephemeral port (the bound port is on
    :attr:`port` after :meth:`start`).  Attaches itself to the telemetry
    registry: events flow into the ``/events`` ring via a listener, and
    ``telemetry.status`` is pointed at :attr:`status` so the engine and
    the parallel supervisor publish live state without new plumbing.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        port: int = 0,
        host: str = "127.0.0.1",
        events_tail: int = 512,
    ):
        super().__init__(port=port, host=host)
        self.telemetry = telemetry
        self.status = CampaignStatus()
        self._ring = collections.deque(maxlen=events_tail)
        self._ring_lock = threading.Lock()
        self._events_seen = 0
        self._started = time.monotonic()
        self._last_metrics = "# (no scrape rendered yet)\n"

    # ------------------------- telemetry feed ------------------------- #
    def _on_event(self, event: Dict) -> None:
        with self._ring_lock:
            self._events_seen += 1
            self._ring.append(event)

    def event_tail(self, n: int = _DEFAULT_TAIL):
        with self._ring_lock:
            events = list(self._ring)
        if n >= 0:
            events = events[-n:] if n else []
        return events

    # --------------------------- rendering ---------------------------- #
    def render_metrics(self) -> str:
        tel = self.telemetry
        extra = {
            "telemetry.io_errors": tel.io_errors,
            "server.events_seen": self._events_seen,
            "server.uptime_s": round(time.monotonic() - self._started, 3),
        }
        try:
            text = render_prometheus(tel.snapshot(), extra=extra)
        except RuntimeError:
            # a scrape raced a campaign thread growing the registry;
            # serve the last good exposition instead of failing the poll
            return self._last_metrics
        self._last_metrics = text
        return text

    def render_status(self) -> Dict[str, object]:
        frame = self.status.as_dict()
        tel = self.telemetry
        frame["sink"] = {
            "io_errors": tel.io_errors,
            "degraded": tel.io_errors > 0,
            "trace_path": tel.trace_path,
        }
        frame["events_seen"] = self._events_seen
        return frame

    # --------------------------- dispatch ------------------------------ #
    def dispatch(
        self, method: str, path: str, query: Dict, body: bytes
    ) -> Tuple[int, str, bytes]:
        if method != "GET":
            return self.not_found()
        if path == "/metrics":
            return self.text_response(
                self.render_metrics(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/status":
            return self.json_response(self.render_status())
        if path == "/events":
            try:
                n = int(query.get("n", [_DEFAULT_TAIL])[0])
            except ValueError:
                n = _DEFAULT_TAIL
            return self.json_response(self.event_tail(n))
        return self.not_found()

    # --------------------------- lifecycle ----------------------------- #
    def start(self) -> "MetricsServer":
        """Bind the socket, register the listener, start serving."""
        if self._httpd is not None:
            return self
        super().start()
        self.telemetry.add_listener(self._on_event)
        self.telemetry.status = self.status
        return self

    def close(self) -> None:
        """Stop serving and detach from the telemetry registry.

        Clean by construction: the listener is removed (no dangling
        callbacks into a dead ring), the accept loop is stopped, the
        socket closed, and the serving thread joined.
        """
        self.telemetry.remove_listener(self._on_event)
        if self.telemetry.status is self.status:
            self.telemetry.status = None
        super().close()
