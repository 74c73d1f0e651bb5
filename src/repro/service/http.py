"""A minimal threaded HTTP/1.1 front for the job manager.

Standard library only (``http.server.ThreadingHTTPServer``): each
connection's daemon thread calls the :class:`JobManager` directly, so a
blocking call holds up only its own client.  The protocol subset is
deliberately small and documented in docs/SERVICE.md:

* one request per connection, ``Connection: close`` on every response;
* JSON request and response bodies (``Content-Length`` framed);
* the event stream (``GET /jobs/<id>/events``) is close-delimited
  ``application/x-ndjson``: one telemetry record per line, written as
  the job produces them, connection closed when the trace is complete.

Routes::

    GET    /healthz            liveness + job/queue/cache/tier stats + counters
    POST   /jobs               submit a job (docs/SERVICE.md schema)
    GET    /jobs               all jobs, oldest first
    GET    /jobs/<id>          one job's status/result
    DELETE /jobs/<id>          cancel a queued job / preempt a running run
    GET    /jobs/<id>/events   live telemetry stream (ndjson)
    POST   /shutdown           graceful stop (drains in-flight jobs)

Error codes: 400 (malformed request line or ``Content-Length``, bad
JSON / bad spec / unknown circuit), 404 (unknown job or path), 405 (bad
method), 413 (oversized body), 429 (queue full — carries a
``Retry-After`` header, and nothing was ledgered), 500 (handler bug).
Every error body is ``{"error": "<message>"}``, the errors the stdlib
parser raises itself included.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .jobs import JobManager, JobValidationError, QueueFullError

#: Largest accepted request body (a big fsim vector file is ~MBs).
MAX_BODY_BYTES = 32 * 1024 * 1024


class HttpError(Exception):
    """Terminate a request with ``status`` and a JSON error body, plus
    extra response ``headers`` (429 carries ``Retry-After``)."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class ServiceServer(ThreadingHTTPServer):
    """The HTTP front over one JobManager: binds on construction (the
    real port is :attr:`port`), then :meth:`serve` runs it.  ``manager``
    may be ``None`` at construction and set before :meth:`serve`, so a
    caller can bind before it builds the manager."""

    #: Closing must not wait for handler threads: a client holding an
    #: event stream open would hold up shutdown.
    block_on_close = False

    def __init__(self, manager: Optional[JobManager], host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.manager = manager
        super().__init__((host, port), _Handler)
        self.host = host
        self.port = self.server_address[1]

    def serve(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain: in-flight
        jobs finish, queued jobs stay ledgered for the next start."""
        try:
            self.serve_forever()
        finally:
            self.server_close()
            self.manager.close()

    def request_shutdown(self) -> None:
        """Make :meth:`serve` return, from any thread or signal handler:
        ``shutdown()`` waits for the serving loop, so it needs a thread
        of its own (on the serving thread it would deadlock)."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def healthz(self) -> dict:
        counters = {}
        if self.manager.collector.enabled:
            counters = self.manager.collector.counters
        return {
            "status": "ok",
            "jobs": self.manager.stats(),
            "queue": self.manager.queue_stats(),
            "tier": self.manager.tier_stats(),
            "cache": self.manager.registry.stats(),
            "counters": counters,
        }


class _Handler(BaseHTTPRequestHandler):
    """One connection: parse (the stdlib's), route, answer in JSON."""

    server: ServiceServer
    protocol_version = "HTTP/1.1"
    # A request line without a version still gets a full error response.
    default_request_version = "HTTP/1.1"
    # Headers and body are two writes: no Nagle delay between them.
    disable_nagle_algorithm = True

    def __getattr__(self, name: str):
        # Every method reaches the router, which answers 405 for a
        # wrong one (the stdlib would answer 501 for a missing do_X).
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client hung up; there is nobody to answer

    def log_message(self, format: str, *args) -> None:
        pass  # no per-request lines on stderr

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib parser's own errors, as JSON like every other."""
        self._reply(code, {"error": message or self.responses[code][0]})

    def _reply(self, status: int, body: dict,
               headers: Optional[Dict[str, str]] = None) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self) -> None:
        try:
            self._route(self.command, self.path.split("?", 1)[0],
                        self._read_body())
        except HttpError as exc:
            self._reply(exc.status, {"error": exc.message}, exc.headers)
        except Exception as exc:  # pragma: no cover - handler bug guard
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _read_body(self) -> Optional[dict]:
        raw_length = self.headers.get("Content-Length", "0")
        length = int(raw_length) if raw_length.strip().isdecimal() else -1
        if length < 0:
            raise HttpError(400, f"bad Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if not length:
            return None
        try:
            return json.loads(self.rfile.read(length))
        except ValueError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    # -- routing -------------------------------------------------------

    def _route(self, method: str, path: str, body: Optional[dict]) -> None:
        manager = self.server.manager
        if path == "/healthz":
            _require_method(method, "GET")
            self._reply(200, self.server.healthz())
            return
        if path == "/shutdown":
            _require_method(method, "POST")
            self._reply(200, {"status": "shutting-down"})
            self.server.request_shutdown()
            return
        if path == "/jobs":
            if method == "POST":
                job, coalesced = _submit(manager, body)
                response = job.to_json()
                response["coalesced_onto"] = coalesced
                self._reply(200, response)
                return
            _require_method(method, "GET")
            self._reply(200, {"jobs": [j.to_json() for j in manager.jobs()]})
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                _require_method(method, "GET")
                self._stream_events(rest[: -len("/events")].rstrip("/"))
                return
            if method == "DELETE":
                status = manager.cancel(rest)
                if status is None:
                    raise HttpError(404, f"no such job: {rest!r}")
                self._reply(200, {"id": rest, "status": status})
                return
            _require_method(method, "GET")
            job = manager.get(rest)
            if job is None:
                raise HttpError(404, f"no such job: {rest!r}")
            self._reply(200, job.to_json())
            return
        raise HttpError(404, f"no such endpoint: {path!r}")

    def _stream_events(self, job_id: str) -> None:
        job = self.server.manager.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id!r}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        position = 0
        done = False
        while not done:
            records, done = job.collector.stream_read(position, 0.5)
            if records:
                self.wfile.write(
                    "".join(json.dumps(r) + "\n" for r in records).encode()
                )
            position += len(records)


def _require_method(method: str, expected: str) -> None:
    if method != expected:
        raise HttpError(405, f"use {expected}")


def _submit(manager: JobManager, body: Optional[dict]):
    if body is None:
        raise HttpError(400, "POST /jobs requires a JSON body")
    try:
        return manager.submit(body)
    except JobValidationError as exc:
        raise HttpError(400, str(exc))
    except QueueFullError as exc:
        raise HttpError(
            429, str(exc),
            headers={"Retry-After": str(exc.retry_after)},
        )
