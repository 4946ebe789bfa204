"""Server-side configuration for :mod:`repro.serve`.

Kept separate from :class:`repro.config.GPUConfig` on purpose: a
:class:`ServerConfig` describes the *service* (bind address, worker pool,
admission limits), never the simulated device — a job's payload picks
its device (``fermi``; see :class:`repro.serve.jobs.JobSpec`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError

#: Default TCP port (unassigned in the IANA registry; "GPUB" on a phone pad).
DEFAULT_PORT = 8642
#: Environment variable the client CLI reads for the server base URL.
ENV_SERVER_URL = "REPRO_SERVE_URL"
#: Longest time, in seconds, one ``GET /jobs/{id}?wait=`` request is held
#: open; larger values are clamped.  Kept below the client's default
#: socket timeout (30 s) so a full hold never looks like a dead server.
MAX_HOLD = 20.0


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one ``repro serve`` instance.

    Attributes:
        host: bind address (loopback by default — put a real proxy in
            front before exposing the service beyond one machine).
        port: TCP port; ``0`` binds an ephemeral port (the chosen one is
            reported by :meth:`repro.serve.server.ReproServer.port`).
        workers: executor processes simulating jobs.  One slot is held
            back from batch jobs whenever ``workers > 1`` so a small
            interactive run never waits behind a wall of sweeps.
        max_queue: admission-control bound on queued (not yet running)
            jobs; submissions beyond it are rejected with HTTP 503 +
            ``Retry-After`` (back-pressure, not buffering).
        tenant_quota: per-tenant cap on in-flight (queued + running)
            jobs; beyond it submissions get HTTP 429.  Coalesced joins
            are free — they add no work.
        progress_poll: seconds between progress-file polls while relaying
            worker progress to SSE subscribers.  Only the cadence of that
            tail: a job's completion is an event from the executor future
            and is not delayed by (or rounded up to) this interval.
        keep_finished: completed/failed jobs retained for status queries
            before being evicted oldest-first.
        cache_dir: explicit ``.repro_cache`` override handed to executor
            processes (``None``: workers inherit the server's resolution).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2
    max_queue: int = 64
    tenant_quota: int = 8
    progress_poll: float = 0.05
    keep_finished: int = 256
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if self.max_queue <= 0:
            raise ConfigError(
                f"max_queue must be positive, got {self.max_queue}"
            )
        if self.tenant_quota <= 0:
            raise ConfigError(
                f"tenant_quota must be positive, got {self.tenant_quota}"
            )
        if not 0 < self.progress_poll <= 5.0:
            raise ConfigError(
                f"progress_poll must be in (0, 5] seconds, "
                f"got {self.progress_poll}"
            )
        if self.keep_finished < 0:
            raise ConfigError("keep_finished must be non-negative")

    @property
    def batch_slots(self) -> int:
        """Executor slots batch jobs may occupy (interactive reservation)."""
        return self.workers - 1 if self.workers > 1 else 1


def default_server_url() -> str:
    """Base URL the client CLI targets (env override > local default)."""
    return os.environ.get(
        ENV_SERVER_URL, f"http://127.0.0.1:{DEFAULT_PORT}"
    ).rstrip("/")
