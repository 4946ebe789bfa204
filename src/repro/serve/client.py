"""Thin standard-library client for the simulation service.

:class:`ServeClient` speaks the ``repro serve`` JSON API over
``http.client`` — one kept-alive connection for all of its requests, plus
a streaming connection per :meth:`ServeClient.watch` (Server-Sent
Events).  Nothing here sleeps: :meth:`ServeClient.wait` asks the server to
hold a status request until the job ends (``GET /jobs/{id}?wait=S``).  The
``repro client`` CLI (see :mod:`repro.cli`) is a thin shell around this
class; tests and scripts can use it directly.

A repeat of a finished job is answered in its ``POST /jobs`` response; the
client keeps that answer, so :meth:`ServeClient.wait` and
:meth:`ServeClient.result` for it send nothing.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import ReproError
from .config import MAX_HOLD, default_server_url
from .jobs import TERMINAL


class ServeClientError(ReproError):
    """The server rejected a request or could not be reached."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class ServeClient:
    """Client for one ``repro serve`` endpoint.

    Holds one connection open across requests (not thread-safe: give each
    thread its own client); :meth:`close` it, or use it as a context
    manager.

    Also holds the answer of its latest submission when that was born
    ``done`` (a reuse), and only that one: :meth:`status`, :meth:`wait`
    and :meth:`result` answer it without a request.  That is exact — a
    born-done job's record never changes, and its payload is its twin's.
    """

    def __init__(self, base_url: Optional[str] = None,
                 tenant: str = "anon", timeout: float = 30.0) -> None:
        self.base_url = (base_url or default_server_url()).rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ServeClientError(
                f"server URL must be http://host:port, got {self.base_url!r}"
            )
        self._host = split.hostname
        self._port = split.port or 80
        self.tenant = tenant
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None
        #: ``{job, payload}`` of the latest submission, if it was born done.
        self._held: Optional[dict] = None

    def close(self) -> None:
        """Drop the kept-alive connection (the next request opens one)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------
    def _connect(self, timeout: Optional[float] = None):
        return http.client.HTTPConnection(
            self._host, self._port, timeout=timeout or self.timeout
        )

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 timeout: Optional[float] = None) -> Tuple[int, dict]:
        """One request on the kept-alive connection.

        Any error drops the connection.  A request that fails on a
        *reused* connection before any response byte — the server closed
        it while idle — goes once more on a fresh one.
        """
        body = None
        headers = {"X-Repro-Tenant": self.tenant}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        while True:
            reused = self._conn is not None
            if not reused:
                self._conn = self._connect()
            conn = self._conn
            conn.timeout = timeout or self.timeout
            if conn.sock is not None:
                conn.sock.settimeout(conn.timeout)
            response = None
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                if (reused and response is None
                        and isinstance(exc, ConnectionError)):
                    continue
                raise ServeClientError(
                    f"cannot reach {self.base_url}: {exc}"
                ) from exc
            if response.will_close:
                self.close()
            break
        try:
            data = json.loads(raw) if raw else {}
        except ValueError:
            data = {"error": raw.decode("utf-8", "replace")}
        return response.status, data

    def _checked(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 timeout: Optional[float] = None) -> dict:
        status, data = self._request(method, path, payload, timeout)
        if status >= 400:
            raise ServeClientError(
                data.get("error", f"HTTP {status}"), status=status
            )
        return data

    # -- API -------------------------------------------------------------
    def healthz(self) -> dict:
        return self._checked("GET", "/healthz")

    def stats(self) -> dict:
        return self._checked("GET", "/stats")

    def submit(self, spec: dict) -> Tuple[dict, bool]:
        """Submit a job payload; returns ``(job, coalesced)``.

        Drops the answer held for the previous submission, and holds this
        one's when the response carries it.
        """
        self._held = None
        data = self._checked("POST", "/jobs", payload=spec)
        if "payload" in data:
            self._held = {"job": data["job"], "payload": data["payload"]}
        return data["job"], bool(data.get("coalesced"))

    def _held_for(self, job_id: str) -> Optional[dict]:
        held = self._held
        if held is not None and held["job"]["id"] == job_id:
            return held
        return None

    def jobs(self) -> list:
        return self._checked("GET", "/jobs")["jobs"]

    def status(self, job_id: str, wait: float = 0.0) -> dict:
        """The job's status record.

        ``wait > 0`` lets the server hold the request for up to that many
        seconds (it clamps to ``MAX_HOLD``) and answer the moment the job
        turns terminal; the record returned is the current one either way.
        """
        held = self._held_for(job_id)
        if held is not None:
            return held["job"]
        if wait > 0:
            # The socket allowance is the usual one on top of the hold.
            return self._checked("GET", f"/jobs/{job_id}?wait={wait:.3f}",
                                 timeout=wait + self.timeout)["job"]
        return self._checked("GET", f"/jobs/{job_id}")["job"]

    def result(self, job_id: str) -> dict:
        """``{job, payload}`` of a finished job (raises until it is done)."""
        held = self._held_for(job_id)
        if held is not None:
            return held
        return self._checked("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._checked("DELETE", f"/jobs/{job_id}")["job"]

    def pause(self) -> dict:
        return self._checked("POST", "/queue/pause")

    def resume(self) -> dict:
        return self._checked("POST", "/queue/resume")

    def shutdown(self, drain: bool = True) -> dict:
        return self._checked("POST", "/shutdown", payload={"drain": drain})

    # -- waiting / streaming --------------------------------------------
    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Block until the job is terminal; returns its status record.

        A loop of held status requests, each answered by the server when
        the job ends or the hold (at most ``MAX_HOLD`` seconds) runs out:
        a job that finishes within one hold costs exactly one request, and
        a held answer (see :meth:`submit`) none.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            job = self.status(job_id, wait=min(remaining, MAX_HOLD))
            if job["state"] in TERMINAL:
                return job
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"timed out after {timeout:g}s waiting for {job_id} "
                    f"(state {job['state']})"
                )

    def watch(self, job_id: str,
              timeout: float = 600.0) -> Iterator[Dict]:
        """Stream the job's SSE progress records as dicts.

        Yields every record (history first, then live) and returns after
        the terminal ``complete`` record.
        """
        conn = self._connect(timeout=timeout)
        try:
            try:
                conn.request("GET", f"/jobs/{job_id}/events",
                             headers={"X-Repro-Tenant": self.tenant})
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeClientError(
                    f"cannot reach {self.base_url}: {exc}"
                ) from exc
            if response.status != 200:
                raw = response.read()
                try:
                    message = json.loads(raw).get("error", "")
                except ValueError:
                    message = raw.decode("utf-8", "replace")
                raise ServeClientError(message or f"HTTP {response.status}",
                                       status=response.status)
            for record in _parse_sse(response):
                yield record
                if record.get("kind") == "complete":
                    return
        finally:
            conn.close()


def _parse_sse(stream) -> Iterator[dict]:
    """Decode ``data:`` payloads from a Server-Sent-Events byte stream."""
    data_lines = []
    for raw in stream:
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if line == "":
            if data_lines:
                try:
                    yield json.loads("\n".join(data_lines))
                except ValueError:
                    pass
                data_lines = []
            continue
        if line.startswith("data:"):
            data_lines.append(line[5:].lstrip())
