"""Exception hierarchy for the CAWA reproduction simulator."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class KernelBuildError(ReproError):
    """Raised when a kernel is malformed (bad labels, unbalanced blocks...)."""


class KernelValidationError(ReproError):
    """Raised when a finalized kernel fails static validation."""


class SimulationError(ReproError):
    """Raised when the simulator reaches an inconsistent state."""


class CPLBoundsError(SimulationError):
    """Raised when a branch's dynamic CPL ``nInst`` delta escapes the
    static path-length envelope of the instructions a warp can execute
    between the branch and its reconvergence point."""


class ConfigError(ReproError):
    """Raised for invalid simulator configurations."""


class DeadlockError(SimulationError):
    """Raised when no warp can ever make progress again."""


class LaunchError(ReproError):
    """Raised for invalid kernel launch parameters."""


class TraceError(ReproError):
    """Base class for trace record, store and replay errors (:mod:`repro.trace`)."""


class TraceFormatError(TraceError):
    """Raised when a trace file is corrupt, truncated, or uses an
    incompatible trace-format version."""


class TraceMismatchError(TraceError):
    """Raised when a structurally valid trace does not match the current
    run: wrong functional config fingerprint, kernel, launch geometry, or
    an exhausted / missing launch sequence."""


class TraceInvarianceError(TraceError):
    """Raised by the recorder's functional pass when a warp's stream
    depends on another warp's timing — it loads a word another warp stored,
    or stores to one another warp loaded, in the same launch with no
    barrier of their block in between — so one recording could not stand
    for every scheme.  Nothing is stored."""


class WorkerCrashError(ReproError):
    """A ``repro serve`` executor process died (or could not be handed a
    job) while a job was assigned to it.  The job is failed with this
    error's text, the pool is rebuilt, and the job may be resubmitted."""
