"""Basic-block control-flow graph over a finalized kernel.

The ISA's control flow is intentionally simple — forward conditional
branches with explicit reconvergence PCs, unconditional back edges, BAR,
and EXIT — but hand-constructed kernels can still produce graphs that
corrupt the SIMT stack.  :func:`~repro.isa.program.validate_kernel` builds
this graph to check that every branch dominates its reconvergence point:

* **leaders** are the kernel entry, every branch target, every instruction
  after a branch or EXIT, and every reconvergence PC (reconvergence points
  are control joins even when they are not literal jump targets);
* **successors** mirror the timing pipeline exactly: conditional branches
  have both the taken and fall-through edge, EXIT has none — the SM kills
  *all* active lanes at EXIT regardless of any guard predicate, so a
  predicated EXIT is still a block terminator;
* **dominators** use the classic iterative set intersection, which is
  plenty fast at kernel sizes (tens to a few hundred instructions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Sequence, Set, Tuple

from .instructions import Instruction, Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel


def pc_successors(inst: Instruction, n: int) -> Tuple[int, ...]:
    """Instruction-level successor PCs of ``inst`` in a kernel of ``n`` PCs.

    Matches the SM pipeline: EXIT terminates the warp's current path even
    when guarded (the pipeline kills all active lanes), a conditional branch
    can fall through or jump, and a branch targeting the next PC is the
    degenerate non-branch.
    """
    op = inst.op
    if op is Opcode.EXIT:
        return ()
    if op is Opcode.BRA:
        target = inst.target_pc
        if inst.pred is None:
            return (target,) if 0 <= target < n else ()
        fall = inst.pc + 1
        succs = []
        if fall < n:
            succs.append(fall)
        if 0 <= target < n and target != fall:
            succs.append(target)
        return tuple(succs)
    nxt = inst.pc + 1
    return (nxt,) if nxt < n else ()


@dataclass(frozen=True)
class BranchSite:
    """One conditional branch and its statically declared region.

    The *region* of a conditional branch is ``[pc + 1, reconv_pc)``: the
    PCs a warp may execute between resolving the branch and merging at the
    reconvergence point.  ``is_loop_break`` marks the builder's loop-exit
    idiom (``target_pc == reconv_pc``), where several sibling breaks
    legitimately share one reconvergence PC.
    """

    pc: int
    target_pc: int
    reconv_pc: int

    @property
    def is_loop_break(self) -> bool:
        return self.target_pc == self.reconv_pc

    def contains(self, pc: int) -> bool:
        """True when ``pc`` lies inside this branch's divergence region."""
        return self.pc < pc < self.reconv_pc


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    bid: int
    start: int
    end: int  # one past the last PC
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)


class CFG:
    """Control-flow graph plus the derived structural facts.

    Attributes:
        blocks: basic blocks in program order (``blocks[0]`` is the entry).
        block_of: PC -> block id.
        reachable: block ids reachable from the entry.
        reaches_exit: block ids with at least one path to a reachable EXIT.
        branches: every conditional branch, as :class:`BranchSite`.
    """

    def __init__(self, kernel: "Kernel") -> None:
        insts: Sequence[Instruction] = kernel.instructions
        n = len(insts)
        if n == 0:
            raise ValueError(f"kernel {kernel.name!r} is empty")

        # ---- leaders --------------------------------------------------
        leaders = {0}
        for inst in insts:
            if inst.op is Opcode.BRA:
                if 0 <= inst.target_pc < n:
                    leaders.add(inst.target_pc)
                if inst.pc + 1 < n:
                    leaders.add(inst.pc + 1)
                if inst.pred is not None and 0 <= inst.reconv_pc < n:
                    leaders.add(inst.reconv_pc)
            elif inst.op is Opcode.EXIT and inst.pc + 1 < n:
                leaders.add(inst.pc + 1)

        starts = sorted(leaders)
        self.blocks: List[BasicBlock] = []
        self.block_of: List[int] = [0] * n
        for bid, start in enumerate(starts):
            end = starts[bid + 1] if bid + 1 < len(starts) else n
            self.blocks.append(BasicBlock(bid=bid, start=start, end=end))
            for pc in range(start, end):
                self.block_of[pc] = bid

        # ---- edges ----------------------------------------------------
        for block in self.blocks:
            last = insts[block.end - 1]
            for succ_pc in pc_successors(last, n):
                sid = self.block_of[succ_pc]
                if sid not in block.succs:
                    block.succs.append(sid)
                    self.blocks[sid].preds.append(block.bid)

        # ---- reachability --------------------------------------------
        self.reachable: FrozenSet[int] = self._closure({0}, lambda b: b.succs)
        self.reaches_exit: FrozenSet[int] = self._closure(
            {b.bid for b in self.blocks
             if b.bid in self.reachable and insts[b.end - 1].op is Opcode.EXIT},
            lambda b: b.preds,
        )

        # ---- branch sites --------------------------------------------
        self.branches: List[BranchSite] = [
            BranchSite(pc=i.pc, target_pc=i.target_pc, reconv_pc=i.reconv_pc)
            for i in insts
            if i.op is Opcode.BRA and i.pred is not None
        ]

        # ---- dominators ----------------------------------------------
        self._dom: Dict[int, FrozenSet[int]] = self._compute_dominators()

    def _closure(self, seeds: Set[int],
                 edges: Callable[[BasicBlock], List[int]]) -> FrozenSet[int]:
        """``seeds`` plus every block reachable along ``edges`` (a block's
        ``succs`` walks forward, its ``preds`` backward)."""
        seen = set(seeds)
        work = list(seeds)
        while work:
            bid = work.pop()
            for nid in edges(self.blocks[bid]):
                if nid not in seen:
                    seen.add(nid)
                    work.append(nid)
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Dominance
    # ------------------------------------------------------------------
    def _compute_dominators(self) -> Dict[int, FrozenSet[int]]:
        reach = self.reachable
        dom: Dict[int, Set[int]] = {bid: set(reach) for bid in reach}
        dom[0] = {0}
        changed = True
        # Iterate in program order; structured kernels converge in 1-2 passes.
        order = [b.bid for b in self.blocks if b.bid in reach and b.bid != 0]
        while changed:
            changed = False
            for bid in order:
                # Every reachable non-entry block has a reachable predecessor.
                preds = [p for p in self.blocks[bid].preds if p in reach]
                new = set.intersection(*(dom[p] for p in preds))
                new.add(bid)
                if new != dom[bid]:
                    dom[bid] = new
                    changed = True
        return {bid: frozenset(s) for bid, s in dom.items()}

    def dominates(self, a_bid: int, b_bid: int) -> bool:
        """True when every entry-to-``b_bid`` path passes through ``a_bid``."""
        doms = self._dom.get(b_bid)
        return doms is not None and a_bid in doms

    def pc_dominates(self, pc_a: int, pc_b: int) -> bool:
        """Instruction-level dominance: every path to ``pc_b`` executes ``pc_a``."""
        ba, bb = self.block_of[pc_a], self.block_of[pc_b]
        if ba == bb:
            return pc_a <= pc_b
        return self.dominates(ba, bb)

    def divergence_region_of(self, pc: int) -> List[BranchSite]:
        """Every conditional branch whose region contains ``pc``."""
        return [b for b in self.branches if b.contains(pc)]

    @property
    def unreachable_blocks(self) -> List[BasicBlock]:
        return [b for b in self.blocks if b.bid not in self.reachable]
