"""Static validation of finalized kernels.

The SIMT stack relies on structural invariants that the builder establishes;
this module re-checks them so hand-constructed kernels (tests, fuzzing) fail
fast instead of corrupting simulation state.
"""

from __future__ import annotations

from ..errors import KernelValidationError
from .cfg import CFG
from .instructions import Opcode


def validate_kernel(kernel) -> None:
    """Validate structural invariants of ``kernel``.

    Checks:
      * the kernel ends with EXIT;
      * every branch target / reconvergence PC is in range;
      * conditional branches carry a reconvergence point that is a RECONV
        instruction located at or after the branch target (forward branch);
      * unconditional branches carry no reconvergence point;
      * SETP instructions have a comparison operator;
      * divergence regions are properly nested: a branch inside another
        branch's region must reconverge at or before the outer region's
        reconvergence point (the SIMT stack pops innermost-first);
      * nested branches do not share a reconvergence PC (only sibling
        loop breaks, whose target *is* their reconvergence point, may);
      * every if-style branch dominates its reconvergence point, so the
        SIMT stack entry pushed at the branch is always popped (loop
        breaks are exempt: the loop *header* dominates the loop exit).

    Raises:
        KernelValidationError: when any invariant is violated.
    """
    insts = kernel.instructions
    if not insts:
        raise KernelValidationError(f"kernel {kernel.name!r} is empty")
    if insts[-1].op is not Opcode.EXIT:
        raise KernelValidationError(f"kernel {kernel.name!r} must end with EXIT")

    n = len(insts)
    for inst in insts:
        if inst.op is Opcode.BRA:
            if not 0 <= inst.target_pc < n:
                raise KernelValidationError(
                    f"kernel {kernel.name!r}: branch at pc={inst.pc} targets "
                    f"out-of-range pc {inst.target_pc}"
                )
            if inst.pred is not None:
                if not 0 <= inst.reconv_pc < n:
                    raise KernelValidationError(
                        f"kernel {kernel.name!r}: conditional branch at "
                        f"pc={inst.pc} lacks a reconvergence point"
                    )
                if insts[inst.reconv_pc].op is not Opcode.RECONV:
                    raise KernelValidationError(
                        f"kernel {kernel.name!r}: reconvergence pc "
                        f"{inst.reconv_pc} of branch at pc={inst.pc} is not a "
                        "RECONV instruction"
                    )
                if inst.target_pc <= inst.pc:
                    raise KernelValidationError(
                        f"kernel {kernel.name!r}: conditional branch at "
                        f"pc={inst.pc} must branch forward (structured "
                        "control flow), but targets pc "
                        f"{inst.target_pc}"
                    )
                if inst.reconv_pc < inst.target_pc:
                    raise KernelValidationError(
                        f"kernel {kernel.name!r}: reconvergence pc "
                        f"{inst.reconv_pc} precedes branch target "
                        f"{inst.target_pc} at pc={inst.pc}"
                    )
        elif inst.op is Opcode.SETP:
            if inst.cmp is None:
                raise KernelValidationError(
                    f"kernel {kernel.name!r}: SETP at pc={inst.pc} has no "
                    "comparison operator"
                )
            if inst.dst is None or not 0 <= inst.dst < kernel.num_preds:
                raise KernelValidationError(
                    f"kernel {kernel.name!r}: SETP at pc={inst.pc} writes "
                    f"bad predicate {inst.dst}"
                )
        if inst.pred is not None and not 0 <= inst.pred < kernel.num_preds:
            raise KernelValidationError(
                f"kernel {kernel.name!r}: pc={inst.pc} guarded by "
                f"out-of-range predicate {inst.pred}"
            )
        if inst.writes_register and not 0 <= inst.dst < kernel.num_regs:
            raise KernelValidationError(
                f"kernel {kernel.name!r}: pc={inst.pc} writes out-of-range "
                f"register {inst.dst}"
            )
        for src in inst.srcs:
            if not 0 <= src < kernel.num_regs:
                raise KernelValidationError(
                    f"kernel {kernel.name!r}: pc={inst.pc} reads "
                    f"out-of-range register {src}"
                )

    # ---- structural nesting of divergence regions --------------------
    sites = [i for i in insts if i.op is Opcode.BRA and i.pred is not None]
    for outer in sites:
        for inner in sites:
            if not outer.pc < inner.pc < outer.reconv_pc:
                continue
            if inner.reconv_pc > outer.reconv_pc:
                raise KernelValidationError(
                    f"kernel {kernel.name!r}: branch at pc={inner.pc} "
                    f"reconverges at {inner.reconv_pc}, outside the region "
                    f"of the enclosing branch at pc={outer.pc} (which "
                    f"reconverges at {outer.reconv_pc}); divergence "
                    "regions must nest"
                )
            if (
                inner.reconv_pc == outer.reconv_pc
                and inner.target_pc != inner.reconv_pc
            ):
                raise KernelValidationError(
                    f"kernel {kernel.name!r}: nested branches at pc="
                    f"{outer.pc} and pc={inner.pc} share reconvergence pc "
                    f"{inner.reconv_pc}; only sibling loop breaks (branch "
                    "target == reconvergence point) may share one"
                )

    # ---- reconvergence dominance (CFG-based) -------------------------
    if sites:
        cfg = CFG(kernel)
        for site in cfg.branches:
            if site.is_loop_break:
                continue
            if not cfg.pc_dominates(site.pc, site.reconv_pc):
                raise KernelValidationError(
                    f"kernel {kernel.name!r}: reconvergence pc "
                    f"{site.reconv_pc} of the branch at pc={site.pc} is "
                    "reachable without executing the branch; the SIMT "
                    "stack entry pushed there may never be popped"
                )
