"""repro — a reproduction of CAWA (ISCA 2015).

Criticality-aware warp scheduling and cache prioritization for GPGPU
workloads, built on a from-scratch cycle-level SIMT GPU simulator.

Public API highlights::

    from repro import GPU, GPUConfig, KernelBuilder, apply_scheme

    config = apply_scheme(GPUConfig.default_sim(), "cawa")
    gpu = GPU(config)
    result = gpu.launch(kernel, grid_dim=8, block_dim=256)
    print(result.ipc, result.l1_mpki)
"""

from .config import CacheConfig, GPUConfig
from .core import SCHEMES, apply_scheme
from .errors import (
    ConfigError,
    DeadlockError,
    KernelBuildError,
    KernelValidationError,
    LaunchError,
    ReproError,
    SimulationError,
    TraceError,
    TraceFormatError,
    TraceInvarianceError,
    TraceMismatchError,
)
from .gpu import GPU
from .isa import CmpOp, Kernel, KernelBuilder, MemSpace, Opcode, Special
from .stats import RunResult

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CmpOp",
    "ConfigError",
    "DeadlockError",
    "GPU",
    "GPUConfig",
    "Kernel",
    "KernelBuildError",
    "KernelBuilder",
    "KernelValidationError",
    "LaunchError",
    "MemSpace",
    "Opcode",
    "ReproError",
    "RunResult",
    "SCHEMES",
    "SimulationError",
    "Special",
    "TraceError",
    "TraceFormatError",
    "TraceInvarianceError",
    "TraceMismatchError",
    "apply_scheme",
    "__version__",
]
