"""A small stdlib client for the ``repro serve`` API.

``repro submit`` is built on this; scripts can use it directly:

    from repro.serve import ServeClient

    client = ServeClient("127.0.0.1", 8723)
    job = client.submit({"kind": "sweep", "algorithm": "dcqcn",
                         "grid": [{"rate_ai_bps": 1e9}]})
    final = client.wait(job["job_id"], on_heartbeat=print)
    print(final["result"]["points"])
    client.close()

Each instance keeps one persistent :class:`http.client.HTTPConnection`
and sends its requests over it in turn, so use one instance per thread.
It reconnects when the daemon answers ``Connection: close``, and retries
a request once on a fresh connection when a *reused* one fails before
any response byte (the daemon drops a connection idle for longer than
its ``HEAD_TIMEOUT_S``).  :meth:`ServeClient.close` closes it.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Optional

from repro.errors import ReproError


class ServeError(ReproError):
    """The daemon rejected a request (carries the HTTP status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Synchronous JSON client for one ``repro serve`` endpoint."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8723, *, timeout_s: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._connection: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # -- plumbing --------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[dict[str, Any]] = None
    ) -> Any:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        reused = self._connection is not None
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            self.close()
            if not reused:
                raise
            return self._request(method, path, payload)  # on a new connection
        except BaseException:
            self.close()
            raise
        try:
            raw = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        if response.status != 200:
            try:
                message = json.loads(raw).get("error", raw.decode("utf-8", "replace"))
            except (json.JSONDecodeError, AttributeError):
                message = raw.decode("utf-8", "replace")
            raise ServeError(response.status, message)
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            return json.loads(raw)
        return raw.decode("utf-8")

    # -- API -------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition."""
        return self._request("GET", "/metrics")

    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Submit a campaign spec; returns the job document (with the
        full result inline when it was a cache hit)."""
        return self._request("POST", "/jobs", payload=spec)

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        *,
        timeout_s: Optional[float] = None,
        poll_timeout_s: float = 30.0,
        on_heartbeat: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> dict[str, Any]:
        """Long-poll until the job finishes; returns the final document.

        ``on_heartbeat`` receives each heartbeat row exactly once, in
        order — the ``repro submit --wait`` progress stream.  Raises
        :class:`ServeError` on timeout or if the job fails server-side
        (the failed document is attached for inspection).
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        cursor = 0
        while True:
            step = poll_timeout_s
            if deadline is not None:
                step = min(step, max(deadline - time.monotonic(), 0.1))
            document = self._request(
                "GET",
                f"/jobs/{job_id}?wait=1&timeout_s={step:.1f}&cursor={cursor}",
            )
            if on_heartbeat is not None:
                for row in document.get("heartbeats", []):
                    on_heartbeat(row)
            cursor = document.get("cursor", cursor)
            if document["state"] in ("done", "failed"):
                if document["state"] == "failed":
                    error = ServeError(500, document.get("error") or "job failed")
                    error.document = document  # type: ignore[attr-defined]
                    raise error
                return document
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeError(
                    408, f"job {job_id} still {document['state']} after {timeout_s} s"
                )
