"""The asyncio simulation service (``repro serve``).

One process, one event loop, three moving parts:

* an ``asyncio.start_server`` HTTP/1.1 front end (hand-rolled request
  parsing — the service speaks a deliberately small JSON API and takes no
  dependency beyond the standard library) that keeps each connection open
  for the client's next request;
* a dispatch loop draining the :class:`~repro.serve.jobs.JobQueue` into a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers call
  :func:`repro.serve.worker.execute_job`;
* per-job monitor tasks tailing the worker's progress file and fanning
  records out to Server-Sent-Events subscribers.

API (all JSON unless noted)::

    POST   /jobs              submit (or coalesce into, or reuse) a job; a
                              reused job's response carries its payload
    GET    /jobs              list known jobs
    GET    /jobs/{id}         job status; ``?wait=S`` holds the request until
                              the job is terminal or S seconds pass
    GET    /jobs/{id}/result  result payload (409 until done)
    GET    /jobs/{id}/events  SSE progress stream (text/event-stream)
    DELETE /jobs/{id}         cancel a queued job
    GET    /stats             queue, coalescing, and cache metrics
    GET    /healthz           liveness probe
    POST   /queue/pause       hold dispatch (admission continues)
    POST   /queue/resume      resume dispatch
    POST   /shutdown          graceful shutdown: drain jobs, then exit

Back-pressure surfaces as HTTP 503 + ``Retry-After`` (queue full or
draining) and per-tenant limits as HTTP 429; both are admission-time
rejections, not buffering.  See ``docs/serving.md`` for the full
semantics, ``repro client`` for the CLI that speaks this API, and
:class:`ServerThread` for the embeddable form the tests and smoke script
use.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import multiprocessing
import time
from pathlib import Path
from typing import Dict, List, Optional
from urllib.parse import parse_qsl

from ..errors import WorkerCrashError
from .config import MAX_HOLD, ServerConfig
from .jobs import (
    Job,
    JobQueue,
    JobSpec,
    JobSpecError,
    QueueFull,
    QuotaExceeded,
    TERMINAL,
)
from .progress import read_new_records
from .worker import execute_job

#: Reason phrases for the handful of statuses the API uses.
_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}
#: Largest request body the server will read.
_MAX_BODY = 8 * 1024 * 1024
#: Seconds allowed for a client to present its request head and body; also
#: how long a kept-alive connection may sit idle before the server closes it.
_READ_TIMEOUT = 30.0
#: Seconds shutdown lets responses already under way reach their clients.
_FLUSH_TIMEOUT = 5.0


def _hold_seconds(query: Dict[str, str], accepts_wait: bool) -> float:
    """Validate a request's query string; seconds to hold it (0: answer now).

    ``wait`` is the only parameter the API has, and only job status takes
    it.  Raises :class:`ValueError` naming the offending parameter; a value
    above :data:`~repro.serve.config.MAX_HOLD` is clamped, not refused.
    """
    unknown = sorted(set(query) - ({"wait"} if accepts_wait else set()))
    if unknown:
        raise ValueError(f"unknown query parameter(s): {', '.join(unknown)}")
    raw = query.get("wait")
    if raw is None:
        return 0.0
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not seconds >= 0:  # NaN compares false
        raise ValueError(
            f"query parameter 'wait' must be a non-negative number of "
            f"seconds, got {raw!r}"
        )
    return min(seconds, MAX_HOLD)


class _BadRequest(Exception):
    """A request head the server cannot act on: answered with ``status``,
    then the connection is closed (its byte stream is not trustworthy)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _error_text(exc: Exception) -> str:
    """``job.error`` form of an exception, the way the worker writes it."""
    return f"{type(exc).__name__}: {exc}"


def _worker_died(job: Job) -> str:
    """``job.error`` for a job whose executor process died under it."""
    pid = next((r.get("pid") for r in reversed(job.progress)
                if r.get("kind") == "started"), None)
    who = f"worker process {pid}" if pid else "its worker process"
    return _error_text(WorkerCrashError(
        f"{who} died while running job {job.id}; the pool was rebuilt, "
        f"resubmit the job"
    ))


class ReproServer:
    """One service instance; create, :meth:`start`, then :meth:`serve_forever`."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.queue = JobQueue(
            max_queue=self.config.max_queue,
            tenant_quota=self.config.tenant_quota,
            on_terminal=self._on_terminal,
        )
        #: HTTP requests read in full, and connections accepted (``/stats``
        #: reports both: their ratio is how often keep-alive pays).
        self.requests = 0
        self.connections = 0
        self.paused = False
        self.draining = False
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._monitors: Dict[str, asyncio.Task] = {}
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        #: job id -> futures of the ``?wait=`` requests parked on it.
        self._holders: Dict[str, List[asyncio.Future]] = {}
        self._connections: set = set()
        #: Writers of connections waiting for their next request head.
        self._idle: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket, spin up the executor and the dispatch loop."""
        self.started_at = time.time()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._executor = self._new_executor()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )
        self._scheduler_task = asyncio.ensure_future(self._scheduler())

    def _new_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        try:
            # Fork keeps executor start-up cheap (workers inherit the
            # already-imported simulator); other platforms fall back to
            # their default start method.
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            mp_context = None
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.config.workers, mp_context=mp_context
        )

    def _rebuild_pool(self, broken) -> None:
        """Replace ``broken`` — once, however many of its jobs report it."""
        if self._executor is broken:
            broken.shutdown(wait=False)
            self._executor = self._new_executor()

    @property
    def port(self) -> int:
        """Actual bound port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Block until a shutdown completes."""
        assert self._stopped is not None
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (the graceful path) first refuses new submissions,
        then lets every queued and running job finish, then closes.
        ``drain=False`` cancels queued jobs and waits only for the jobs
        already executing (executor processes are never killed mid-run —
        a half-written cache entry is impossible anyway, but a wasted
        simulation is not).
        """
        self.draining = True
        self.paused = False  # a paused queue must still drain
        if not drain:
            for job in list(self.queue.jobs.values()):
                if job.state == "queued":
                    self.queue.cancel(job.id)
        while True:
            # Dispatch here rather than through the scheduler task, so
            # "no monitors" below means "nothing left", not "not yet woken".
            self._dispatch_ready()
            if not self._monitors:
                break
            await asyncio.wait(list(self._monitors.values()),
                               return_when=asyncio.FIRST_COMPLETED)
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        if self._server is not None:
            self._server.close()
            # A kept-alive client that is between requests gets EOF now,
            # not at the idle limit.
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
        if self._connections:
            # Held waits were released and SSE feeds closed by the last
            # ``complete``; let them be written before the loop goes away.
            await asyncio.wait(set(self._connections), timeout=_FLUSH_TIMEOUT)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        assert self._stopped is not None
        self._stopped.set()

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _spool_dir(self) -> Path:
        from ..experiments import result_cache

        base = (Path(self.config.cache_dir) if self.config.cache_dir
                else result_cache.cache_dir())
        return base / "serve"

    def _progress_path(self, job_id: str) -> Path:
        return self._spool_dir() / f"{job_id}.progress.jsonl"

    async def _scheduler(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._dispatch_ready()

    def _dispatch_ready(self) -> None:
        if self.paused:
            return
        assert self._executor is not None
        while True:
            free = self.config.workers - self.queue.running_count()
            if free <= 0:
                return
            allow_batch = (
                self.queue.running_batch_count() < self.config.batch_slots
            )
            job = self.queue.pop(allow_batch=allow_batch)
            if job is None:
                return
            try:
                future = self._submit(job)
            except Exception as exc:  # the scheduler outlives any one job
                self.queue.finish(job, error=_error_text(WorkerCrashError(
                    f"job {job.id} could not be handed to a worker "
                    f"({_error_text(exc)})"
                )))
                continue
            self._broadcast(job, {"kind": "dispatched", "job": job.id})
            self._monitors[job.id] = asyncio.ensure_future(
                self._monitor(job, future, self._executor)
            )

    def _submit(self, job) -> asyncio.Future:
        """Hand ``job`` to the pool; a pool found broken is rebuilt first."""
        args = (execute_job, job.spec.to_payload(),
                str(self._progress_path(job.id)), self.config.cache_dir)
        loop = asyncio.get_event_loop()
        try:
            return loop.run_in_executor(self._executor, *args)
        except concurrent.futures.BrokenExecutor:
            # (BrokenProcessPool's base class: naming the subclass would
            # import multiprocessing along with this module.)
            # A worker died while idle: no job was lost, so just go on.
            self._rebuild_pool(self._executor)
            return loop.run_in_executor(self._executor, *args)

    async def _monitor(self, job, future, executor) -> None:
        """Tail the worker's progress file until the executor future
        resolves — waking on the future, not on the next poll — then
        record the outcome (:meth:`_on_terminal` announces it)."""
        progress_path = self._progress_path(job.id)
        offset = 0
        try:
            while not future.done():
                offset = self._relay(job, progress_path, offset)
                await asyncio.wait({future}, timeout=self.config.progress_poll)
            self._relay(job, progress_path, offset)
            result = error = None
            try:
                result = future.result()
            except concurrent.futures.BrokenExecutor:
                self._rebuild_pool(executor)
                error = _worker_died(job)
            except Exception as exc:
                error = str(exc)
            self.queue.finish(job, result=result, error=error)
        finally:
            self._monitors.pop(job.id, None)
            self._evict_finished()
            self._kick()

    def _relay(self, job, progress_path: Path, offset: int) -> int:
        records, offset = read_new_records(progress_path, offset)
        for record in records:
            self._broadcast(job, record)
        return offset

    def _on_terminal(self, job) -> None:
        """Announce a job's end — finish, failure, cancel — exactly once:
        the SSE ``complete`` record, and every held ``?wait=`` request."""
        self._broadcast(job, dict(
            job.timing(), kind="complete", state=job.state, error=job.error,
        ))
        for released in self._holders.pop(job.id, ()):
            if not released.done():
                released.set_result(None)

    async def _hold(self, job, seconds: float, reader) -> bool:
        """Park a status request until ``job`` is terminal or ``seconds``
        pass.  False when the peer sent anything meanwhile: EOF means nobody
        is left to answer, and a byte of a pipelined request cannot be put
        back, so either way the connection is closed unanswered."""
        released = asyncio.get_event_loop().create_future()
        holders = self._holders.setdefault(job.id, [])
        holders.append(released)
        gone = asyncio.ensure_future(reader.read(1))
        try:
            await asyncio.wait({released, gone}, timeout=seconds,
                               return_when=asyncio.FIRST_COMPLETED)
            return not gone.done()
        finally:
            if not gone.cancel():
                gone.exception()  # retrieved: a reset is a hang-up too
            if released in holders:
                holders.remove(released)

    def _broadcast(self, job, record: dict) -> None:
        job.progress.append(record)
        for sub in self._subscribers.get(job.id, ()):  # never blocks: unbounded
            sub.put_nowait(record)

    def _evict_finished(self) -> None:
        before = set(self.queue.jobs)
        self.queue.evict_finished(self.config.keep_finished)
        for job_id in sorted(before - set(self.queue.jobs)):
            self._subscribers.pop(job_id, None)
            try:
                self._progress_path(job_id).unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Answer the connection's requests in turn, until the client hangs
        up or asks to close, idles past ``_READ_TIMEOUT``, takes the SSE
        route or breaks a hold, sends a malformed head, or the server
        drains."""
        task = asyncio.current_task()
        self._connections.add(task)
        self.connections += 1
        try:
            # Draining is checked after each answer as well: a response
            # still being written when shutdown swept the idle connections
            # must not wait for a next request afterwards.
            while (await self._handle_request(reader, writer)
                   and not self.draining):
                pass
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            pass
        except Exception as exc:  # defensive: one bad request != one crash
            status = exc.status if isinstance(exc, _BadRequest) else 500
            try:
                await self._send_json(writer, status, {"error": str(exc)},
                                      keep=False)
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            self._connections.discard(task)

    async def _handle_request(self, reader, writer) -> bool:
        """Read one request and answer it; True to keep the connection."""
        self._idle.add(writer)
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          timeout=_READ_TIMEOUT)
        except asyncio.IncompleteReadError:
            return False  # EOF between requests (or a head cut short)
        except asyncio.LimitOverrunError:
            raise _BadRequest(431, "request head too large") from None
        finally:
            self._idle.discard(writer)
        request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
        try:
            method, target, version = request_line.strip().split(" ", 2)
        except ValueError:
            raise _BadRequest(400, "bad request line") from None
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadRequest(
                400, f"invalid Content-Length header: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _BadRequest(413, "body too large")
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=_READ_TIMEOUT
            )
        self.requests += 1
        path, _, raw_query = target.partition("?")
        query = dict(parse_qsl(raw_query, keep_blank_values=True))
        reply = await self._route(method.upper(), path, query, headers, body,
                                  reader, writer)
        if reply is None:
            return False  # answered on its own terms, or nobody to answer
        tokens = {t.strip().lower()
                  for t in headers.get("connection", "").split(",")}
        keep = (version == "HTTP/1.1" and "close" not in tokens
                and not self.draining)
        await self._send_json(writer, *reply, keep=keep)
        return keep

    async def _route(self, method: str, path: str, query: Dict[str, str],
                     headers: dict, body: bytes, reader,
                     writer) -> Optional[tuple]:
        """Act on one request; returns ``(status, payload[, headers])`` to
        answer with, or ``None`` when the route answered itself (SSE) or a
        held request's client hung up."""
        parts = [p for p in path.split("/") if p]
        is_status = method == "GET" and len(parts) == 2 and parts[0] == "jobs"
        try:
            hold = _hold_seconds(query, accepts_wait=is_status)
        except ValueError as exc:
            return 400, {"error": str(exc)}

        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/stats":
            return 200, self._stats()
        if method == "POST" and path == "/jobs":
            return self._post_jobs(headers, body)
        if method == "GET" and path == "/jobs":
            jobs = [j.to_dict() for j in self.queue.jobs.values()]
            jobs.sort(key=lambda j: j["created"])
            return 200, {"jobs": jobs}
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.queue.jobs.get(parts[1])
            if job is None:
                return 404, {"error": f"no job {parts[1]!r}"}
            if is_status:
                if hold and job.state not in TERMINAL:
                    if not await self._hold(job, hold, reader):
                        return None
                return 200, {"job": job.to_dict()}
            if method == "DELETE" and len(parts) == 2:
                return self._cancel(job)
            if method == "GET" and parts[2:] == ["result"]:
                if job.state == "done":
                    return 200, {"job": job.to_dict(), "payload": job.result}
                error = job.error if job.state == "failed" else (
                    f"job is {job.state}")
                return 409, {"error": error, "job": job.to_dict()}
            if method == "GET" and parts[2:] == ["events"]:
                await self._stream_events(job, writer)
                return None
            return 405, {"error": "unsupported"}
        if method == "POST" and path == "/queue/pause":
            self.paused = True
            return 200, {"paused": True}
        if method == "POST" and path == "/queue/resume":
            self.paused = False
            self._kick()
            return 200, {"paused": False}
        if method == "POST" and path == "/shutdown":
            try:
                request = json.loads(body or b"{}")
            except ValueError:
                return 400, {"error": "body is not JSON"}
            if not isinstance(request, dict):
                return 400, {"error": "shutdown body must be a JSON object"}
            drain = request.get("drain", True)
            if not isinstance(drain, bool):
                return 400, {"error": f"'drain' must be true or false, "
                                      f"got {drain!r}"}
            asyncio.ensure_future(self.shutdown(drain=drain))
            return 202, {"shutting_down": True, "drain": drain}
        return 404, {"error": f"no route {method} {path}"}

    def _post_jobs(self, headers: dict, body: bytes) -> tuple:
        if self.draining:
            return 503, {"error": "server is draining"}, {"Retry-After": "5"}
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            return 400, {"error": "body is not JSON"}
        tenant = (payload.get("tenant") if isinstance(payload, dict)
                  else None) or headers.get("x-repro-tenant") or "anon"
        try:
            spec = JobSpec.from_payload(payload)
            job, coalesced = self.queue.submit(spec, tenant=str(tenant))
        except JobSpecError as exc:
            return 400, {"error": str(exc)}
        except QuotaExceeded as exc:
            return 429, {"error": str(exc)}
        except QueueFull as exc:
            return 503, {"error": str(exc)}, {"Retry-After": "1"}
        answer = {"job": job.to_dict(), "coalesced": coalesced}
        if job.reused_from is not None:
            # Born done: the answer rides the admission response.
            answer["payload"] = job.result
            self._evict_finished()
        else:
            if not coalesced:
                self._broadcast(job, {"kind": "queued", "job": job.id,
                                      "priority": job.priority})
            self._kick()
        return 200, answer

    def _cancel(self, job) -> tuple:
        try:
            self.queue.cancel(job.id)
        except JobSpecError as exc:
            return 409, {"error": str(exc)}
        return 200, {"job": job.to_dict()}

    def _stats(self) -> dict:
        from ..experiments import result_cache
        from ..trace import store as trace_store

        stats = self.queue.stats()
        stats["holding"] = sum(len(h) for h in self._holders.values())
        stats["server"] = {
            "requests": self.requests,
            "connections": self.connections,
            "workers": self.config.workers,
            "batch_slots": self.config.batch_slots,
            "max_queue": self.config.max_queue,
            "tenant_quota": self.config.tenant_quota,
            "paused": self.paused,
            "draining": self.draining,
            "uptime": time.time() - (self.started_at or time.time()),
        }
        stats["cache"] = {
            "results": result_cache.stats(),
            "traces": trace_store.stats(),
        }
        return stats

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    async def _stream_events(self, job, writer) -> None:
        """Server-Sent-Events feed: full history, then live records.

        The snapshot and subscription are taken in one event-loop step
        (no ``await`` in between), so no record can be missed or
        duplicated across the hand-off.  The stream ends after the
        ``complete`` record.
        """
        sub: asyncio.Queue = asyncio.Queue()
        history = list(job.progress)
        live = job.state not in TERMINAL
        if live:
            self._subscribers.setdefault(job.id, []).append(sub)
        try:
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1"))
            for record in history:
                await self._send_sse(writer, record)
            if not live:
                if not history or history[-1].get("kind") != "complete":
                    await self._send_sse(
                        writer, {"kind": "complete", "state": job.state,
                                 "error": job.error},
                    )
                return
            while True:
                record = await sub.get()
                await self._send_sse(writer, record)
                if record.get("kind") == "complete":
                    return
        finally:
            subs = self._subscribers.get(job.id)
            if subs and sub in subs:
                subs.remove(sub)

    async def _send_sse(self, writer, record: dict) -> None:
        data = json.dumps(record, sort_keys=True)
        writer.write(f"event: progress\ndata: {data}\n\n".encode("utf-8"))
        await writer.drain()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    async def _send_json(self, writer, status: int, payload: dict,
                         extra_headers: Optional[dict] = None,
                         keep: bool = True) -> None:
        """One JSON response; ``keep=False`` tells the client the server
        closes the connection after it."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if not keep:
            lines.append("Connection: close")
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def run_server(config: Optional[ServerConfig] = None,
                     ready=None) -> None:
    """Start a server and run it until shutdown (the CLI entry point).

    Installs SIGINT/SIGTERM handlers for graceful draining where the
    platform supports them.  ``ready`` (if given) is called with the
    started :class:`ReproServer` — the smoke script uses it to learn the
    ephemeral port.
    """
    import signal

    server = ReproServer(config)
    await server.start()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.shutdown())
            )
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    if ready is not None:
        ready(server)
    print(f"repro serve: listening on {server.base_url} "
          f"({server.config.workers} worker(s))", flush=True)
    await server.serve_forever()
    print("repro serve: drained and stopped", flush=True)


class ServerThread:
    """Run a :class:`ReproServer` on a private event loop in a thread.

    The embeddable form: tests and host applications start a real service
    (real sockets, real executor processes) without blocking the caller::

        handle = ServerThread(ServerConfig(port=0, workers=1))
        handle.start()
        ... talk to handle.base_url ...
        handle.stop()
    """

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig(port=0)
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self._ready = None

    def start(self, timeout: float = 30.0) -> "ServerThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("repro serve thread failed to start")
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = ReproServer(self.config)

        async def _run():
            await self.server.start()
            assert self._ready is not None
            self._ready.set()
            await self.server.serve_forever()

        try:
            loop.run_until_complete(_run())
        finally:
            loop.close()

    @property
    def base_url(self) -> str:
        assert self.server is not None
        return self.server.base_url

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(drain=drain), self._loop
            )
        self._thread.join(timeout)
