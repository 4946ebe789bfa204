"""Job model and priority queue for the simulation service.

Everything here is synchronous, single-threaded data-structure code — the
asyncio server (:mod:`repro.serve.server`) calls it only from the event
loop, and the unit tests (``tests/test_serve_queue.py``) exercise it with
no sockets at all.  Four policies live in :class:`JobQueue`:

* **Admission control / back-pressure** — at most ``max_queue`` jobs may
  wait; beyond that submission raises :class:`QueueFull` (HTTP 503), which
  tells clients to retry later instead of buffering unbounded work.
* **Per-tenant quotas** — each tenant may have at most ``tenant_quota``
  in-flight (queued + running) jobs; beyond that :class:`QuotaExceeded`
  (HTTP 429).  Coalesced joins are exempt: they add zero work.
* **Request coalescing** — every spec has a content-addressed
  :meth:`JobSpec.fingerprint` built on the same
  :meth:`~repro.config.GPUConfig.fingerprint` machinery as the result
  cache.  Submitting a spec whose fingerprint matches a queued or running
  job *joins* that job instead of creating a new one; all subscribers see
  the same progress stream and receive the identical result payload.  A
  coalesced interactive join escalates a batch primary's priority (the
  work is now interactive for someone).
* **Reuse of finished answers** — a spec whose fingerprint matches a
  retained ``done`` job (and which does not stream ``events``) becomes a
  new job that is born ``done``, sharing that job's payload, with
  ``reused_from`` naming it.  Like a coalesced join it adds no work, so
  it is checked before quotas and back-pressure, and it needs no worker.

Priority is two-class — ``interactive`` before ``batch`` — with FIFO
order inside each class.  The executor-slot reservation that stops batch
jobs from starving interactive ones lives in the server's dispatch loop
(see :attr:`repro.serve.config.ServerConfig.batch_slots`); the queue just
answers "best eligible job, please" via :meth:`JobQueue.pop`.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..errors import ReproError

#: Job kinds the service executes.
KINDS = ("run", "sweep", "figure")
#: Priority classes, in dispatch order.
PRIORITIES = ("interactive", "batch")
#: Numeric priority values (lower dispatches first).
_PRIORITY_VALUE = {"interactive": 0, "batch": 10}

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = (DONE, FAILED, CANCELLED)


class JobSpecError(ReproError):
    """A job payload failed validation (HTTP 400)."""


class QuotaExceeded(ReproError):
    """Tenant has too many in-flight jobs (HTTP 429)."""


class QueueFull(ReproError):
    """Queue is at its admission bound (HTTP 503 + Retry-After)."""


@dataclass(frozen=True)
class JobSpec:
    """Validated, immutable description of one requested execution."""

    kind: str
    workloads: Tuple[str, ...]
    schemes: Tuple[str, ...]
    scale: float = 1.0
    figure: int = 0
    fermi: bool = False
    check: bool = True
    events: bool = False
    priority: str = "interactive"

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Build and validate a spec from a request body.

        Raises :class:`JobSpecError` with a client-addressable message on
        any problem; never lets a malformed payload reach the simulator.
        """
        from ..core.cawa import SCHEMES
        from ..workloads import positive_scale, workload_names

        if not isinstance(payload, dict):
            raise JobSpecError("job payload must be a JSON object")
        if "device" in payload:
            raise JobSpecError(
                "the 'device' field was removed: its one knob, sampling, "
                "is no longer a job option; jobs run the base device "
                "('fermi' picks Table 1's)")
        known = {"kind", "workload", "workloads", "scheme", "schemes",
                 "scale", "figure", "fermi", "check", "events", "priority",
                 "tenant"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(f"unknown job field(s): {', '.join(unknown)}")

        kind = payload.get("kind", "run")
        if kind not in KINDS:
            raise JobSpecError(
                f"kind must be one of {'/'.join(KINDS)}, got {kind!r}"
            )

        def _names(single_key: str, plural_key: str, default=None):
            if single_key in payload and plural_key in payload:
                raise JobSpecError(
                    f"give either {single_key!r} or {plural_key!r}, not both"
                )
            if single_key in payload:
                return (str(payload[single_key]),)
            if plural_key in payload:
                raw = payload[plural_key]
                if isinstance(raw, str):
                    raw = [s for s in raw.split(",") if s]
                if not isinstance(raw, (list, tuple)) or not raw:
                    raise JobSpecError(
                        f"{plural_key!r} must be a non-empty list"
                    )
                return tuple(str(x) for x in raw)
            return default

        valid_workloads = set(workload_names(include_synthetic=True))
        valid_schemes = set(SCHEMES)

        figure = 0
        if kind == "figure":
            figure = payload.get("figure")
            if isinstance(figure, bool) or not isinstance(figure, int):
                raise JobSpecError(
                    f"figure jobs need an integer 'figure', got {figure!r}")
            from ..experiments import FIGURES

            if figure not in FIGURES:
                raise JobSpecError(
                    f"no module for figure {figure}; available: {FIGURES}"
                )
            workloads: Tuple[str, ...] = ()
            schemes: Tuple[str, ...] = ()
        elif kind == "run":
            workloads = _names("workload", "workloads")
            schemes = _names("scheme", "schemes", ("rr",))
            if workloads is None:
                raise JobSpecError("run jobs need a 'workload'")
            if len(workloads) != 1 or len(schemes) != 1:
                raise JobSpecError(
                    "run jobs take exactly one workload and one scheme; "
                    "use kind='sweep' for grids"
                )
        else:  # sweep
            workloads = _names("workload", "workloads") or tuple(
                workload_names()
            )
            schemes = _names("scheme", "schemes", ("rr", "gto", "cawa"))

        for name in workloads:
            if name not in valid_workloads:
                raise JobSpecError(f"unknown workload {name!r}")
        for name in schemes:
            if name not in valid_schemes:
                raise JobSpecError(f"unknown scheme {name!r}")

        try:
            scale = positive_scale(payload.get("scale", 1.0))
        except ValueError as exc:
            raise JobSpecError(str(exc)) from None
        flags = {name: payload.get(name, default) for name, default
                 in (("fermi", False), ("check", True), ("events", False))}
        for name, value in flags.items():
            if not isinstance(value, bool):
                raise JobSpecError(f"{name!r} must be true or false, got {value!r}")

        priority = payload.get("priority", "auto")
        if priority == "auto":
            # Small single-cell runs are interactive; grids and figures
            # are batch.  Callers can always override explicitly.
            priority = "interactive" if kind == "run" else "batch"
        if priority not in PRIORITIES:
            raise JobSpecError(
                f"priority must be one of {'/'.join(PRIORITIES)} or 'auto', "
                f"got {priority!r}"
            )

        return cls(
            kind=kind,
            workloads=workloads,
            schemes=schemes,
            scale=scale,
            figure=figure,
            priority=priority,
            **flags,
        )

    def build_config(self) -> GPUConfig:
        """Materialize the base :class:`GPUConfig` for this job."""
        return GPUConfig.fermi_gtx480() if self.fermi else GPUConfig.default_sim()

    @property
    def priority_value(self) -> int:
        return _PRIORITY_VALUE[self.priority]

    def fingerprint(self) -> str:
        """Content-addressed identity for request coalescing.

        Built on the same config fingerprints that key the result cache,
        so "identical request" here means exactly "identical simulated
        outcome".  Tenant and priority are deliberately excluded — two
        tenants asking the same question share one execution (that is the
        multi-tenant shared cache).  The ``events`` flag *is* included:
        subscribers of an obs-streaming job are promised obs records in
        their SSE feed, which a non-streaming execution would not emit.
        """
        from ..core.cawa import apply_scheme

        base = self.build_config()
        cells = sorted(
            {(w, apply_scheme(base, s).fingerprint())
             for w in self.workloads for s in self.schemes}
        )
        payload = json.dumps(
            {
                "kind": self.kind,
                "cells": cells,
                "scale": self.scale,
                "figure": self.figure,
                "check": self.check,
                "events": self.events,
                "base": base.fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]

    def to_payload(self) -> dict:
        """Round-trippable wire form (what the executor process receives)."""
        out = {
            "kind": self.kind,
            "scale": self.scale,
            "fermi": self.fermi,
            "check": self.check,
            "events": self.events,
            "priority": self.priority,
        }
        if self.kind == "figure":
            out["figure"] = self.figure
        else:
            out["workloads"] = list(self.workloads)
            out["schemes"] = list(self.schemes)
        return out

    def describe(self) -> str:
        """One-line human label for logs and listings."""
        if self.kind == "figure":
            return f"figure {self.figure} @ scale {self.scale:g}"
        cells = f"{'x'.join(self.workloads)} / {'x'.join(self.schemes)}"
        return f"{self.kind} {cells} @ scale {self.scale:g}"


@dataclass
class Job:
    """One admitted execution and its service-side bookkeeping."""

    id: str
    spec: JobSpec
    tenant: str
    fingerprint: str
    state: str = QUEUED
    priority: str = "interactive"
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Coalesced subscribers beyond the original submitter.
    waiters: int = 0
    #: Progress records relayed from the executor (see serve.progress).
    progress: List[dict] = field(default_factory=list)
    result: Optional[dict] = None
    error: Optional[str] = None
    #: Id of the finished job whose answer this one was born with.
    reused_from: Optional[str] = None

    @property
    def priority_value(self) -> int:
        return _PRIORITY_VALUE[self.priority]

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Seconds between admission and dispatch (``None``: never ran)."""
        if self.started is None:
            return None
        return self.started - self.created

    @property
    def exec_s(self) -> Optional[float]:
        """Seconds between dispatch and the recorded outcome."""
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def timing(self) -> dict:
        """Where the job's time went, plus how many submitters share it."""
        return {
            "queue_wait_s": self.queue_wait_s,
            "exec_s": self.exec_s,
            "fan_in": self.waiters + 1,
        }

    def to_dict(self, with_progress: bool = False) -> dict:
        out = {
            "id": self.id,
            "kind": self.spec.kind,
            "describe": self.spec.describe(),
            "state": self.state,
            "priority": self.priority,
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "waiters": self.waiters,
            "events": self.spec.events,
            "error": self.error,
            "has_result": self.result is not None,
            "reused_from": self.reused_from,
        }
        out.update(self.timing())
        if with_progress:
            out["progress"] = list(self.progress)
        return out


class JobQueue:
    """Priority queue with admission control, quotas, coalescing and reuse."""

    def __init__(self, max_queue: int = 64, tenant_quota: int = 8,
                 on_terminal: Optional[Callable[[Job], None]] = None) -> None:
        self.max_queue = max_queue
        self.tenant_quota = tenant_quota
        #: Called once per job, at the one place a job turns terminal
        #: (:meth:`_retire`): the server releases held requests and emits
        #: the ``complete`` record from it.
        self.on_terminal = on_terminal
        self.jobs: Dict[str, Job] = {}
        #: Heap of (priority_value, seq, job_id); stale entries (priority
        #: escalated or job no longer queued) are skipped lazily on pop.
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        #: fingerprint -> job id, for jobs still queued or running.
        self._active_by_fp: Dict[str, str] = {}
        #: fingerprint -> id of the newest retained job that ran to ``done``
        #: (never an ``events`` one): written at :meth:`finish`, dropped
        #: when that job is evicted, so it is bounded by ``keep_finished``.
        self._done_by_fp: Dict[str, str] = {}
        #: ``executions`` counts jobs that produced their own answer (ran
        #: in a worker, or were reused); ``reused`` the latter alone.
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "coalesced": 0,
            "executions": 0,
            "reused": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected_quota": 0,
            "rejected_queue_full": 0,
        }

    # -- admission -------------------------------------------------------
    def submit(self, spec: JobSpec, tenant: str = "anon") -> Tuple[Job, bool]:
        """Admit ``spec``; returns ``(job, coalesced)``.

        Coalescing and then reuse are checked *before* quotas and
        back-pressure: joining an active identical job, or answering from
        a finished one, adds no work, so it must never be rejected for
        capacity reasons.  A reused job comes back already ``done``.
        """
        fingerprint = spec.fingerprint()
        active_id = self._active_by_fp.get(fingerprint)
        if active_id is not None:
            job = self.jobs[active_id]
            job.waiters += 1
            self.counters["coalesced"] += 1
            if (job.state == QUEUED
                    and spec.priority_value < job.priority_value):
                # An interactive subscriber joined a batch job: the work
                # is interactive for someone now, so escalate.
                job.priority = spec.priority
                self._push(job)
            return job, True
        twin_id = self._done_by_fp.get(fingerprint)
        if twin_id is not None:
            return self._reuse(spec, tenant, self.jobs[twin_id]), False

        if self.tenant_inflight(tenant) >= self.tenant_quota:
            self.counters["rejected_quota"] += 1
            raise QuotaExceeded(
                f"tenant {tenant!r} already has {self.tenant_quota} "
                f"in-flight job(s); wait for one to finish"
            )
        if self.queued_count() >= self.max_queue:
            self.counters["rejected_queue_full"] += 1
            raise QueueFull(
                f"job queue is full ({self.max_queue} queued); retry later"
            )

        job = self._new_job(spec, tenant, fingerprint)
        self._active_by_fp[fingerprint] = job.id
        self._push(job)
        return job, False

    def _new_job(self, spec: JobSpec, tenant: str, fingerprint: str) -> Job:
        self._seq += 1
        job = Job(
            id=f"j{self._seq:06d}-{fingerprint[:8]}",
            spec=spec,
            tenant=tenant,
            fingerprint=fingerprint,
            priority=spec.priority,
        )
        self.jobs[job.id] = job
        self.counters["submitted"] += 1
        return job

    def _reuse(self, spec: JobSpec, tenant: str, twin: Job) -> Job:
        """A new job born ``done`` with ``twin``'s payload (shared, not
        copied): sound because equal fingerprints mean equal outcomes."""
        job = self._new_job(spec, tenant, twin.fingerprint)
        job.created = job.started = job.finished = time.time()
        job.reused_from = twin.id
        job.progress.append({"kind": "reused", "job": job.id,
                             "reused_from": twin.id})
        job.state, job.result = DONE, twin.result
        for counter in ("executions", "reused", "done"):
            self.counters[counter] += 1
        self._retire(job)
        return job

    def _push(self, job: Job) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (job.priority_value, self._seq, job.id))

    # -- dispatch --------------------------------------------------------
    def pop(self, allow_batch: bool = True) -> Optional[Job]:
        """Best eligible queued job, or ``None``.

        ``allow_batch=False`` restricts the answer to interactive jobs
        (the server uses this to keep one executor slot reserved).  Stale
        heap entries — cancelled jobs, superseded priorities — are
        discarded as they surface.
        """
        skipped: List[Tuple[int, int, str]] = []
        found: Optional[Job] = None
        while self._heap:
            pvalue, seq, job_id = heapq.heappop(self._heap)
            job = self.jobs.get(job_id)
            if job is None or job.state != QUEUED or job.priority_value != pvalue:
                continue  # stale entry
            if not allow_batch and job.priority == "batch":
                skipped.append((pvalue, seq, job_id))
                continue
            found = job
            break
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        if found is not None:
            found.state = RUNNING
            found.started = time.time()
            self.counters["executions"] += 1
        return found

    # -- state transitions ----------------------------------------------
    def finish(self, job: Job, result: Optional[dict] = None,
               error: Optional[str] = None) -> None:
        """Move a running job to ``done`` or ``failed``."""
        job.finished = time.time()
        if error is None:
            job.state = DONE
            job.result = result
            self.counters["done"] += 1
            if not job.spec.events:  # its subscribers are promised a live run
                self._done_by_fp[job.fingerprint] = job.id
        else:
            job.state = FAILED
            job.error = error
            self.counters["failed"] += 1
        self._retire(job)

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job (running jobs are never killed)."""
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if job.state != QUEUED:
            raise JobSpecError(
                f"job {job_id} is {job.state}; only queued jobs can be "
                f"cancelled"
            )
        job.state = CANCELLED
        job.finished = time.time()
        self.counters["cancelled"] += 1
        self._retire(job)
        return job

    def _retire(self, job: Job) -> None:
        if self._active_by_fp.get(job.fingerprint) == job.id:
            del self._active_by_fp[job.fingerprint]
        if self.on_terminal is not None:
            self.on_terminal(job)

    def evict_finished(self, keep: int) -> int:
        """Drop all but the newest ``keep`` terminal jobs; returns count."""
        terminal = [j for j in self.jobs.values() if j.state in TERMINAL]
        terminal.sort(key=lambda j: j.finished or 0.0)
        evicted = 0
        for job in terminal[: max(0, len(terminal) - keep)]:
            del self.jobs[job.id]
            if self._done_by_fp.get(job.fingerprint) == job.id:
                del self._done_by_fp[job.fingerprint]
            evicted += 1
        return evicted

    # -- introspection ---------------------------------------------------
    def queued_count(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == QUEUED)

    def running_count(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == RUNNING)

    def running_batch_count(self) -> int:
        return sum(1 for j in self.jobs.values()
                   if j.state == RUNNING and j.priority == "batch")

    def tenant_inflight(self, tenant: str) -> int:
        return sum(1 for j in self.jobs.values()
                   if j.tenant == tenant and j.state in (QUEUED, RUNNING))

    def stats(self) -> dict:
        tenants: Dict[str, int] = {}
        for job in self.jobs.values():
            if job.state in (QUEUED, RUNNING):
                tenants[job.tenant] = tenants.get(job.tenant, 0) + 1
        ran = [j for j in self.jobs.values()
               if j.exec_s is not None and j.reused_from is None]
        return {
            "queued": self.queued_count(),
            "running": self.running_count(),
            "tenants": tenants,
            "counters": dict(self.counters),
            "latency": {
                "queue_wait_s": _distribution([j.queue_wait_s for j in ran]),
                "exec_s": _distribution([j.exec_s for j in ran]),
            },
        }


def _distribution(values: List[float]) -> dict:
    """``n`` / ``p50`` / ``p90`` / ``max`` (nearest rank) of ``values``."""
    if not values:
        return {"n": 0, "p50": None, "p90": None, "max": None}
    ordered = sorted(values)

    def rank(q: float) -> float:
        return ordered[max(0, math.ceil(len(ordered) * q) - 1)]

    return {"n": len(ordered), "p50": rank(0.5), "p90": rank(0.9),
            "max": ordered[-1]}
