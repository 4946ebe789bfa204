"""Simulation-as-a-service: the ``repro serve`` subsystem.

Wraps the existing library machinery — :func:`repro.experiments.runner`
runs and sweeps, the content-addressed result/trace caches, and the
:mod:`repro.obs` event bus — in a long-lived asyncio HTTP service with a
priority job queue, per-tenant quotas and back-pressure, and request
coalescing keyed on the same config fingerprints that key the result
cache (so concurrent identical requests share one execution and every
subscriber receives the identical result payload).

Public surface:

* :class:`ServerConfig` / :class:`ReproServer` / :func:`run_server` /
  :class:`ServerThread` — the service itself;
* :class:`ServeClient` — the standard-library client the ``repro
  client`` CLI wraps;
* :class:`JobSpec` / :class:`JobQueue` — the job model, importable
  without pulling in asyncio plumbing.

See ``docs/serving.md`` for the API reference and semantics.  The names
load on first use (module ``__getattr__``): the client pulls in
``http.client`` and the server asyncio, neither of which building the
command line needs.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule defining it.
_EXPORTS = {
    "ServeClient": "client",
    "ServeClientError": "client",
    "DEFAULT_PORT": "config",
    "ServerConfig": "config",
    "default_server_url": "config",
    "Job": "jobs",
    "JobQueue": "jobs",
    "JobSpec": "jobs",
    "JobSpecError": "jobs",
    "QueueFull": "jobs",
    "QuotaExceeded": "jobs",
    "ReproServer": "server",
    "ServerThread": "server",
    "run_server": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
