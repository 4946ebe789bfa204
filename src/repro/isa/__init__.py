"""A small PTX-like SIMT instruction set and kernel-building DSL.

This subpackage is the stand-in for NVIDIA's PTX ISA that GPGPU-sim consumes:
workloads are authored against :class:`~repro.isa.kernel.KernelBuilder`, which
emits :class:`~repro.isa.instructions.Instruction` streams with explicit
reconvergence points so the SIMT core can model branch divergence exactly the
way the paper's criticality analysis requires.
"""

from .instructions import CmpOp, FuncUnit, Instruction, MemSpace, Opcode, Special
from .kernel import Kernel, KernelBuilder
from .program import validate_kernel

__all__ = [
    "CmpOp",
    "FuncUnit",
    "Instruction",
    "Kernel",
    "KernelBuilder",
    "MemSpace",
    "Opcode",
    "Special",
    "validate_kernel",
]
