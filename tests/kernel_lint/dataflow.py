"""Dataflow analyses over the kernel CFG.

Four classic analyses, all at instruction granularity inside basic blocks
and block granularity across the CFG:

* **definite assignment** (forward) — flags register/predicate reads that
  some entry path reaches before any write.  Register files are
  zero-initialized, so such reads are defined behaviour (they see ``0.0``)
  but almost always a kernel-authoring bug; predicated defs count as defs
  because the compute-under-predicate / store-under-predicate idiom is the
  standard way these kernels handle partial warps.
* **liveness** (backward) — detects dead writes: definitions whose value
  no path can ever observe.  Predicated defs do not *kill* liveness (lanes
  whose guard is false keep the old value), but a predicated def of a
  never-read register is still dead.
* **uniformity / divergence** (forward) — computes which registers and
  predicates are provably *block-uniform* (equal across every thread of a
  block): immediates and CTAID/NTID/NCTAID are uniform, TID/GTID/LANEID/
  WARPID and loaded values are varying, and any value defined under
  divergent control flow (inside the region of a branch whose condition is
  varying) or under a varying guard is varying.  The barrier-divergence
  lint (BAR001) keys off the resulting set of divergent PCs.
* **affine addresses** (forward) — abstract interpretation of address
  arithmetic as affine forms ``c0 + sum(ci * special_i)``, which yields the
  per-lane stride of every LD/ST (for the coalescing lint MEM001) and the
  constant addresses needed by the out-of-bounds lint (MEM002).

The uniformity and divergence facts are mutually recursive (a branch is
divergent iff its predicate is varying; a value is varying if defined under
a divergent branch), so :func:`analyze_dataflow` iterates the pair to a
fixpoint — monotone in the set of varying branches, hence terminating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.isa.cfg import CFG
from repro.isa.instructions import Instruction, Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.kernel import Kernel

# Definite-assignment lattice: never / on-some-paths / on-all-paths.
_BOT, _MAYBE, _DEF = 0, 1, 2

#: Specials that differ between the threads of one block.
_VARYING_SPECIALS = frozenset({"tid", "gtid", "laneid", "warpid"})
#: Specials whose per-lane step is 1 within a warp (define the lane stride).
_LANE_SPECIALS = ("tid", "gtid", "laneid")

Affine = Optional[Dict[str, float]]  # None = unknown; key "" = constant term


@dataclass
class MemAccess:
    """Static facts about one LD/ST site."""

    pc: int
    space: str
    is_load: bool
    #: Affine form of the effective byte address (base register + immediate
    #: offset), or ``None`` when the address is not statically affine.
    address: Affine
    #: Per-lane byte stride (d address / d lane), when statically known.
    lane_stride: Optional[float] = None
    #: Constant byte address, when the affine form has no varying term.
    const_address: Optional[float] = None


@dataclass
class DataflowResult:
    """Everything the lint rules need from the dataflow pass."""

    #: (pc, kind, index, never): reads possibly preceding any write.
    #: ``kind`` is ``"reg"`` or ``"pred"``; ``never`` is True when *no*
    #: write of the register exists on any entry path (vs. only on some).
    uninit_reads: List[Tuple[int, str, int, bool]] = field(default_factory=list)
    #: (pc, kind, index): writes whose value no path observes.
    dead_writes: List[Tuple[int, str, int]] = field(default_factory=list)
    #: PCs of conditional branches whose condition is not provably uniform.
    varying_branch_pcs: FrozenSet[int] = frozenset()
    #: PCs inside the region of at least one varying conditional branch.
    divergent_pcs: FrozenSet[int] = frozenset()
    #: Static facts for every LD/ST site, keyed by PC.
    mem_accesses: Dict[int, MemAccess] = field(default_factory=dict)

    def is_divergent(self, pc: int) -> bool:
        """May ``pc`` execute with a partially-active warp?"""
        return pc in self.divergent_pcs


# ----------------------------------------------------------------------
# Per-instruction use/def helpers
# ----------------------------------------------------------------------
def _uses(inst: Instruction) -> List[Tuple[str, int]]:
    """Registers and predicates ``inst`` reads, as (kind, index) pairs."""
    uses: List[Tuple[str, int]] = [("reg", s) for s in inst.srcs]
    if inst.pred is not None:
        uses.append(("pred", inst.pred))
    return uses


def _def(inst: Instruction) -> Optional[Tuple[str, int]]:
    """The register or predicate ``inst`` writes, if any."""
    if inst.writes_predicate:
        return ("pred", inst.dst)
    if inst.writes_register:
        return ("reg", inst.dst)
    return None


# ----------------------------------------------------------------------
# Generic forward block fixpoint
# ----------------------------------------------------------------------
def _forward_fixpoint(cfg: CFG, entry_state, transfer, join, clone):
    """Iterate ``transfer`` over reachable blocks until in-states stabilize.

    ``transfer(block, state)`` mutates and returns the out-state;
    ``join(a, b)`` merges two states into a fresh one; ``clone`` copies.
    Unreached predecessors contribute nothing to a join (optimistic
    initialization), which is the standard treatment for loop back edges.
    """
    in_states = {0: entry_state}
    out_states: Dict[int, object] = {}
    order = [b.bid for b in cfg.blocks if b.bid in cfg.reachable]
    pending = set(order)
    while pending:
        for bid in order:
            if bid not in pending:
                continue
            pending.discard(bid)
            state = in_states.get(bid)
            if state is None:
                continue
            out = transfer(cfg.blocks[bid], clone(state))
            if bid in out_states and out_states[bid] == out:
                continue
            out_states[bid] = out
            for sid in cfg.blocks[bid].succs:
                merged = (
                    clone(out)
                    if sid not in in_states
                    else join(in_states[sid], out)
                )
                if sid not in in_states or merged != in_states[sid]:
                    in_states[sid] = merged
                    pending.add(sid)
    return in_states


# ----------------------------------------------------------------------
# Definite assignment
# ----------------------------------------------------------------------
def _assignment_states(cfg: CFG, kernel):
    nr, np_ = kernel.num_regs, kernel.num_preds

    def transfer(block, state):
        regs, preds = state
        for pc in block.pcs:
            inst = kernel.instructions[pc]
            d = _def(inst)
            if d is not None:
                (regs if d[0] == "reg" else preds)[d[1]] = _DEF
        return (regs, preds)

    def join(a, b):
        return (
            [x if x == y else _MAYBE for x, y in zip(a[0], b[0])],
            [x if x == y else _MAYBE for x, y in zip(a[1], b[1])],
        )

    def clone(state):
        return (list(state[0]), list(state[1]))

    entry = ([_BOT] * nr, [_BOT] * np_)
    return _forward_fixpoint(cfg, entry, transfer, join, clone)


def _collect_uninit_reads(cfg: CFG, kernel, in_states, result: DataflowResult):
    # Does the register get written anywhere at all?  Distinguishes the
    # "never written in the whole kernel" message from "written only on
    # some paths".
    written: Set[Tuple[str, int]] = set()
    for inst in kernel.instructions:
        d = _def(inst)
        if d is not None:
            written.add(d)

    seen: Set[Tuple[int, str, int]] = set()
    for block in cfg.blocks:
        if block.bid not in cfg.reachable or block.bid not in in_states:
            continue
        regs, preds = list(in_states[block.bid][0]), list(in_states[block.bid][1])
        for pc in block.pcs:
            inst = kernel.instructions[pc]
            for kind, idx in _uses(inst):
                status = (regs if kind == "reg" else preds)[idx]
                if status is not _DEF and status != _DEF:
                    key = (pc, kind, idx)
                    if key not in seen:
                        seen.add(key)
                        result.uninit_reads.append(
                            (pc, kind, idx, (kind, idx) not in written)
                        )
            d = _def(inst)
            if d is not None:
                (regs if d[0] == "reg" else preds)[d[1]] = _DEF


# ----------------------------------------------------------------------
# Liveness / dead writes
# ----------------------------------------------------------------------
def _collect_dead_writes(cfg: CFG, kernel, result: DataflowResult) -> None:
    live_in: Dict[int, FrozenSet[Tuple[str, int]]] = {}

    def block_live_in(bid: int, live_out: Set[Tuple[str, int]]):
        live = set(live_out)
        for pc in reversed(cfg.blocks[bid].pcs):
            inst = kernel.instructions[pc]
            d = _def(inst)
            # A predicated def does not kill: inactive lanes keep the old
            # value, so it may still be observed downstream.
            if d is not None and inst.pred is None:
                live.discard(d)
            for u in _uses(inst):
                live.add(u)
        return frozenset(live)

    reachable = [b.bid for b in cfg.blocks if b.bid in cfg.reachable]
    changed = True
    while changed:
        changed = False
        for bid in reversed(reachable):
            out: Set[Tuple[str, int]] = set()
            for sid in cfg.blocks[bid].succs:
                out |= live_in.get(sid, frozenset())
            new = block_live_in(bid, out)
            if live_in.get(bid) != new:
                live_in[bid] = new
                changed = True

    for bid in reachable:
        live: Set[Tuple[str, int]] = set()
        for sid in cfg.blocks[bid].succs:
            live |= live_in.get(sid, frozenset())
        for pc in reversed(cfg.blocks[bid].pcs):
            inst = kernel.instructions[pc]
            d = _def(inst)
            if d is not None and d not in live:
                result.dead_writes.append((pc, d[0], d[1]))
            if d is not None and inst.pred is None:
                live.discard(d)
            for u in _uses(inst):
                live.add(u)


# ----------------------------------------------------------------------
# Uniformity / divergence
# ----------------------------------------------------------------------
def _divergent_pcs_for(cfg: CFG, varying_branches: Set[int]) -> Set[int]:
    pcs: Set[int] = set()
    for site in cfg.branches:
        if site.pc in varying_branches:
            pcs.update(range(site.pc + 1, site.reconv_pc))
    return pcs


def _uniformity(cfg: CFG, kernel) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Fixpoint over (varying values) x (divergent branches)."""
    varying_branches: Set[int] = set()
    while True:
        divergent = _divergent_pcs_for(cfg, varying_branches)

        def transfer(block, state):
            regs, preds = state
            for pc in block.pcs:
                inst = kernel.instructions[pc]
                d = _def(inst)
                if d is None:
                    continue
                var = pc in divergent
                if inst.pred is not None and inst.pred in preds:
                    var = True
                if inst.op is Opcode.LD:
                    var = True
                elif inst.op is Opcode.SREG:
                    var = var or inst.special.value in _VARYING_SPECIALS
                else:
                    if any(s in regs for s in inst.srcs):
                        var = True
                kind, idx = d
                target = regs if kind == "reg" else preds
                if var:
                    target.add(idx)
                else:
                    target.discard(idx)
            return (regs, preds)

        def join(a, b):
            return (a[0] | b[0], a[1] | b[1])

        def clone(state):
            return (set(state[0]), set(state[1]))

        in_states = _forward_fixpoint(cfg, (set(), set()), transfer, join, clone)

        new_varying: Set[int] = set()
        for site in cfg.branches:
            bid = cfg.block_of[site.pc]
            if bid not in in_states:
                continue
            regs, preds = clone(in_states[bid])
            for pc in cfg.blocks[bid].pcs:
                if pc == site.pc:
                    break
                # Re-run the block transfer up to the branch so the check
                # sees the predicate's status *at* the branch.
                inst = kernel.instructions[pc]
                d = _def(inst)
                if d is None:
                    continue
                var = pc in divergent
                if inst.pred is not None and inst.pred in preds:
                    var = True
                if inst.op is Opcode.LD:
                    var = True
                elif inst.op is Opcode.SREG:
                    var = var or inst.special.value in _VARYING_SPECIALS
                elif any(s in regs for s in inst.srcs):
                    var = True
                kind, idx = d
                target = regs if kind == "reg" else preds
                (target.add if var else target.discard)(idx)
            branch = kernel.instructions[site.pc]
            if branch.pred in preds:
                new_varying.add(site.pc)

        if new_varying == varying_branches:
            return (
                frozenset(varying_branches),
                frozenset(_divergent_pcs_for(cfg, varying_branches)),
            )
        varying_branches = new_varying


# ----------------------------------------------------------------------
# Affine address analysis
# ----------------------------------------------------------------------
def _aff_const(value: float) -> Dict[str, float]:
    return {"": float(value)} if value else {}


def _aff_add(a: Affine, b: Affine, sign: float = 1.0) -> Affine:
    if a is None or b is None:
        return None
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + sign * v
        if out[k] == 0.0:
            del out[k]
    return out


def _aff_scale(a: Affine, factor: float) -> Affine:
    if a is None:
        return None
    if factor == 0.0:
        return {}
    return {k: v * factor for k, v in a.items()}


def _aff_as_const(a: Affine) -> Optional[float]:
    if a is None:
        return None
    if all(k == "" for k in a):
        return a.get("", 0.0)
    return None


def _affine_transfer(inst: Instruction, regs: Dict[int, Affine]) -> None:
    """Update the affine abstract state for one instruction."""
    if not inst.writes_register:
        return

    def src(i: int) -> Affine:
        return regs.get(inst.srcs[i], None) if i < len(inst.srcs) else None

    op = inst.op
    value: Affine = None
    if op is Opcode.MOV:
        value = _aff_const(inst.imm) if inst.imm is not None else src(0)
    elif op is Opcode.SREG:
        value = {inst.special.value: 1.0}
    elif op in (Opcode.ADD, Opcode.SUB):
        sign = 1.0 if op is Opcode.ADD else -1.0
        rhs = _aff_const(inst.imm) if inst.imm is not None else src(1)
        value = _aff_add(src(0), rhs, sign)
    elif op is Opcode.MUL:
        if inst.imm is not None:
            value = _aff_scale(src(0), inst.imm)
        else:
            ca, cb = _aff_as_const(src(0)), _aff_as_const(src(1))
            if cb is not None:
                value = _aff_scale(src(0), cb)
            elif ca is not None:
                value = _aff_scale(src(1), ca)
    elif op is Opcode.MAD:
        # Encoding (see KernelBuilder.mad): 3 srcs = a*b + c, or
        # 2 srcs + imm = srcs[0]*imm + srcs[1].
        if inst.imm is not None and len(inst.srcs) == 2:
            value = _aff_add(_aff_scale(src(0), inst.imm), src(1))
        elif len(inst.srcs) == 3:
            ca, cb = _aff_as_const(src(0)), _aff_as_const(src(1))
            prod: Affine = None
            if cb is not None:
                prod = _aff_scale(src(0), cb)
            elif ca is not None:
                prod = _aff_scale(src(1), ca)
            value = _aff_add(prod, regs.get(inst.srcs[2], None))
    elif op is Opcode.SHL:
        shift = inst.imm if inst.imm is not None else _aff_as_const(src(1))
        if shift is not None and float(shift).is_integer():
            value = _aff_scale(src(0), float(2 ** int(shift)))
    elif op is Opcode.NEG:
        value = _aff_scale(src(0), -1.0)
    # Everything else (loads, SFU ops, SELP, comparisons...) -> unknown.

    if inst.pred is not None:
        # Predicated def merges with the incumbent value.
        old = regs.get(inst.dst, None)
        value = value if value == old else None
    regs[inst.dst] = value


def _collect_mem_accesses(cfg: CFG, kernel, result: DataflowResult) -> None:
    def transfer(block, regs):
        for pc in block.pcs:
            _affine_transfer(kernel.instructions[pc], regs)
        return regs

    def join(a, b):
        return {
            r: (a.get(r) if a.get(r) == b.get(r) else None)
            for r in sorted(set(a) | set(b))
        }

    def clone(state):
        return dict(state)

    # Registers are zero-initialized, so the entry state is "all zero".
    entry = {r: {} for r in range(kernel.num_regs)}
    in_states = _forward_fixpoint(cfg, entry, transfer, join, clone)

    for block in cfg.blocks:
        if block.bid not in cfg.reachable or block.bid not in in_states:
            continue
        regs = dict(in_states[block.bid])
        for pc in block.pcs:
            inst = kernel.instructions[pc]
            if inst.op in (Opcode.LD, Opcode.ST):
                base = regs.get(inst.srcs[0], None)
                address = _aff_add(base, _aff_const(inst.imm or 0.0))
                stride = None
                const_addr = None
                if address is not None:
                    stride = sum(address.get(k, 0.0) for k in _LANE_SPECIALS)
                    const_addr = _aff_as_const(address)
                result.mem_accesses[pc] = MemAccess(
                    pc=pc,
                    space=inst.space.value,
                    is_load=inst.op is Opcode.LD,
                    address=address,
                    lane_stride=stride,
                    const_address=const_addr,
                )
            _affine_transfer(inst, regs)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def analyze_dataflow(kernel: "Kernel", cfg: Optional[CFG] = None) -> DataflowResult:
    """Run every dataflow analysis over ``kernel`` and bundle the results."""
    cfg = cfg or CFG(kernel)
    result = DataflowResult()
    in_states = _assignment_states(cfg, kernel)
    _collect_uninit_reads(cfg, kernel, in_states, result)
    _collect_dead_writes(cfg, kernel, result)
    varying, divergent = _uniformity(cfg, kernel)
    result.varying_branch_pcs = varying
    result.divergent_pcs = divergent
    _collect_mem_accesses(cfg, kernel, result)
    return result
