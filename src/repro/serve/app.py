"""``repro serve`` — the persistent campaign daemon.

A small hand-rolled HTTP/1.1 JSON service on stdlib ``asyncio`` streams
(no ``http.server``, no third-party framework): requests parse in the
event loop, campaign execution happens on the :class:`JobQueue`
dispatcher thread over ONE warm :class:`~repro.parallel.CampaignRunner`
pool, and the two sides meet through thread-safe waits bridged with
``asyncio.to_thread``.

API (all JSON unless noted):

===========================  ==================================================
``POST /jobs``               submit a campaign spec; 200 with the job document
                             (``"cached": true`` + full result on a cache hit),
                             400 on a malformed spec or ``Content-Length``,
                             503 when the queue is full
``GET /jobs``                all jobs, submission order
``GET /jobs/<id>``           one job; ``?wait=1[&timeout_s=N][&cursor=N]``
                             long-polls until new heartbeats or completion;
                             400 when ``timeout_s`` or ``cursor`` is not a
                             non-negative number
``GET /metrics``             Prometheus text: ``repro_serve_*`` counters/gauges
``GET /healthz``             liveness + pool/cache facts
===========================  ==================================================

Any request: 413 when its body is over ``MAX_BODY_BYTES``, 431 when it
has more than ``MAX_HEADER_LINES`` header lines, 501 when it carries
``Transfer-Encoding`` (the daemon frames bodies by ``Content-Length``
only), 400 when its ``Content-Length`` headers disagree.

Connections are persistent (HTTP/1.1 keep-alive).  The daemon closes one
after any non-200 response, after an HTTP/1.0 request and after a request
that says ``Connection: close``.  A client that has not finished its next
request line and headers within ``HEAD_TIMEOUT_S`` -- idle between
requests or stalled mid-head -- is dropped without a response.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigError, ReproError
from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.parallel import CampaignRunner
from repro.serve.cache import ResultCache
from repro.serve.jobs import Job, JobQueue
from repro.serve.spec import parse_spec

#: Reject request bodies past this size: campaign specs are small; a
#: huge body is a mistake or abuse, not a campaign.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Most header lines one request may carry; one more answers 431.
MAX_HEADER_LINES = 100

#: Seconds a client has to deliver its request line and headers,
#: counted from the end of the previous response on a kept-alive
#: connection: the idle timeout too.  A client that stalls longer is
#: dropped without a response.
HEAD_TIMEOUT_S = 10.0

#: Hard cap on one long-poll wait step, so a vanished client can hold a
#: connection open for at most this long.
MAX_WAIT_S = 120.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


_JSON = "application/json"


def _response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = _JSON,
    close: bool = False,
) -> bytes:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def _error_bytes(status: int, message: str) -> bytes:
    """An error response; every one closes its connection."""
    return _response_bytes(status, _json_bytes({"error": message}), close=True)


def _json_bytes(payload: Any) -> bytes:
    # Compact: ``indent`` would force the stdlib's pure-Python encoder.
    return (json.dumps(payload, default=str) + "\n").encode("utf-8")


def _non_negative(text: str, name: str, kind: Callable[[str], Any]) -> Any:
    """``kind(text)`` when it is a finite number >= 0, else a 400."""
    try:
        value = kind(text)
    except ValueError:
        raise _HttpError(400, f"{name} must be a number, got {text!r}") from None
    if not 0 <= value < math.inf:
        raise _HttpError(400, f"{name} must be finite and >= 0, got {text!r}")
    return value


class ReproServer:
    """The daemon: one warm campaign pool, a job queue, a result cache,
    and the HTTP surface that exposes them.

    ``port=0`` binds an ephemeral port (tests); the bound port is in
    :attr:`port` once the server is running.  Use either
    :meth:`serve_forever` (blocking, the CLI path) or
    :meth:`start_background` / :meth:`close` (embedding and tests).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8723,
        *,
        workers: Optional[int] = None,
        cache_dir: Union[str, Path] = ".repro-cache",
        cache_max_entries: Optional[int] = None,
        cache_ttl_s: Optional[float] = None,
        results_dir: Optional[Union[str, Path]] = None,
        max_queued: int = 64,
        task_timeout_s: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.started_unix = time.time()
        self.registry = MetricsRegistry()
        self.cache = ResultCache(
            cache_dir, max_entries=cache_max_entries, ttl_s=cache_ttl_s
        )
        runner = CampaignRunner(
            workers=workers,
            results_dir=results_dir,
            task_timeout_s=task_timeout_s,
        )
        self.queue = JobQueue(
            runner, self.cache, max_queued=max_queued, on_event=self._on_job_event
        )
        self._install_metrics()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._closed = False
        #: Live connection handlers and their writers (event loop only).
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- metrics ---------------------------------------------------------------

    def _install_metrics(self) -> None:
        registry = self.registry
        self._jobs_accepted = registry.counter("repro_serve_jobs_accepted_total")
        self._jobs_completed = registry.counter("repro_serve_jobs_completed_total")
        self._jobs_failed = registry.counter("repro_serve_jobs_failed_total")
        self._cache_hits = registry.counter("repro_serve_cache_hits_total")
        self._cache_misses = registry.counter("repro_serve_cache_misses_total")
        self._jobs_coalesced = registry.counter("repro_serve_jobs_coalesced_total")
        self._requests = registry.counter("repro_serve_http_requests_total")
        self._connections_total = registry.counter(
            "repro_serve_http_connections_total"
        )
        registry.bind(
            "repro_serve_queue_depth", self.queue.queue_depth, kind="gauge"
        )
        registry.bind(
            "repro_serve_jobs_running", self.queue.running_count, kind="gauge"
        )
        registry.bind(
            "repro_serve_uptime_seconds",
            lambda: time.time() - self.started_unix,
            kind="gauge",
        )
        registry.bind(
            "repro_serve_cache_entries", lambda: len(self.cache), kind="gauge"
        )
        registry.bind(
            "repro_serve_cache_evictions_total", lambda: self.cache.evictions
        )

    def _on_job_event(self, event: str, job: Job) -> None:
        if event == "accepted":
            self._jobs_accepted.inc()
            self._cache_misses.inc()
        elif event == "cache_hit":
            self._jobs_accepted.inc()
            self._cache_hits.inc()
        elif event == "coalesced":
            self._jobs_coalesced.inc()
        elif event == "finished":
            if job.state == "failed":
                self._jobs_failed.inc()
            else:
                self._jobs_completed.inc()

    # -- lifecycle -------------------------------------------------------------

    async def _start_async(self) -> None:
        self.queue.start()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` foreground path)."""
        await self._start_async()
        assert self._server is not None
        try:
            async with self._server:
                await self._server.serve_forever()
        finally:
            await self._close_connections()

    def start_background(self) -> tuple[str, int]:
        """Run the server on a daemon thread; returns ``(host, port)``
        once the socket is bound."""

        def runner() -> None:
            asyncio.run(self._run_until_closed())

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ReproError("repro serve failed to bind within 30 s")
        return self.host, self.port

    async def _run_until_closed(self) -> None:
        await self._start_async()
        assert self._server is not None
        async with self._server:
            while not self._closed:
                await asyncio.sleep(0.05)
        await self._close_connections()

    async def _close_connections(self) -> None:
        """Close every kept-alive connection once the listener is shut,
        so that each handler reads EOF and returns before the loop stops
        (a handler still pending then would be cancelled mid-read).  A
        handler inside a long-poll reads nothing until its wait ends, so
        the wait for the handlers is bounded."""
        for writer in self._connections.values():
            writer.transport.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=1.0)

    def close(self) -> None:
        """Stop accepting connections, close the open ones and shut the
        pool down."""
        self._closed = True
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.queue.close()

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections_total.inc()
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            keep_open = True
            while keep_open:
                answer = await self._handle_request(reader)
                if answer is None:
                    break
                response, keep_open = answer
                writer.write(response)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # the daemon must survive any request
            try:
                writer.write(_error_bytes(500, str(exc)))
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            del self._connections[task]
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[tuple[bytes, bool]]:
        """Read and answer one request: ``(response, keep_open)``, or
        ``None`` when the client closed or stalled before a full head."""
        try:
            async with asyncio.timeout(HEAD_TIMEOUT_S):
                request_line = await reader.readline()
                if not request_line:
                    return None
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    return _error_bytes(400, "malformed request"), False
                method, target, version = parts
                headers: dict[str, str] = {}
                lengths: set[str] = set()
                for _ in range(MAX_HEADER_LINES + 1):
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    name, value = name.strip().lower(), value.strip()
                    headers[name] = value
                    if name == "content-length":
                        lengths.add(value)
                else:
                    return _error_bytes(431, "too many header lines"), False
        except TimeoutError:
            return None
        if "transfer-encoding" in headers:
            return _error_bytes(501, "Transfer-Encoding is not supported"), False
        if len(lengths) > 1:
            return _error_bytes(400, "conflicting Content-Length headers"), False
        keep_open = version == "HTTP/1.1" and "close" not in {
            token.strip() for token in headers.get("connection", "").lower().split(",")
        }
        body = b""
        try:
            length = _non_negative(
                headers.get("content-length") or "0", "Content-Length", int
            )
            if length > MAX_BODY_BYTES:
                return _error_bytes(413, "body too large"), False
            if length:
                body = await reader.readexactly(length)
            self._requests.inc()
            url = urlsplit(target)
            query = {
                key: values[-1] for key, values in parse_qs(url.query).items()
            }
            payload, content_type = await self._route(method, url.path, query, body)
        except _HttpError as exc:
            return _error_bytes(exc.status, str(exc)), False
        response = _response_bytes(
            200, payload, content_type=content_type, close=not keep_open
        )
        return response, keep_open

    # -- routing ---------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        body: bytes,
    ) -> tuple[bytes, str]:
        """The 200 answer's body and content type; errors raise."""
        if path == "/healthz" and method == "GET":
            return _json_bytes(self._health()), _JSON
        if path == "/metrics" and method == "GET":
            return (
                to_prometheus(self.registry).encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if path == "/jobs" and method == "POST":
            return self._submit(body), _JSON
        if path == "/jobs" and method == "GET":
            return _json_bytes({"jobs": self.queue.list_jobs()}), _JSON
        if path.startswith("/jobs/"):
            if method != "GET":
                raise _HttpError(405, f"{method} not supported on job resources")
            return await self._job_status(path[len("/jobs/"):], query), _JSON
        raise _HttpError(404, f"no route for {method} {path}")

    def _health(self) -> dict[str, Any]:
        return {
            "ok": True,
            "uptime_s": time.time() - self.started_unix,
            "workers": self.queue.runner.workers,
            "pool_started": self.queue.runner.started,
            "queue_depth": self.queue.queue_depth(),
            "jobs": len(self.queue.jobs),
            "cache": self.cache.stats(),
        }

    def _submit(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        try:
            spec = parse_spec(payload)
        except ConfigError as exc:
            raise _HttpError(400, str(exc))
        try:
            job = self.queue.submit(spec)
        except ReproError as exc:
            raise _HttpError(503, str(exc))
        return _json_bytes(self._job_document(job))

    def _job_document(self, job: Job) -> dict[str, Any]:
        document = job.summary()
        if job.state == "done":
            document["result"] = job.result
        return document

    async def _job_status(self, job_id: str, query: dict[str, str]) -> bytes:
        job = self.queue.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if query.get("wait") in ("1", "true", "yes"):
            timeout_s = min(
                _non_negative(query.get("timeout_s", "30"), "timeout_s", float),
                MAX_WAIT_S,
            )
            requested = _non_negative(query.get("cursor", "0"), "cursor", int)
            job, cursor = await asyncio.to_thread(
                self.queue.wait, job_id, beat_cursor=requested, timeout_s=timeout_s
            )
            if job is None:  # pragma: no cover - job vanished mid-wait
                raise _HttpError(404, f"unknown job {job_id!r}")
            document = self._job_document(job)
            document["cursor"] = cursor
            # Only beats the client has not seen, capped so a long-idle
            # client cannot request an unbounded payload.
            document["heartbeats"] = job.beats[max(requested, cursor - 32):cursor]
            return _json_bytes(document)
        return _json_bytes(self._job_document(job))
