"""Static path-length bounds and the CPL runtime cross-check.

CAWA's Algorithm 2 infers the remaining path length of a resolved branch
purely from static PCs: ``fall = target_pc - pc - 1`` instructions and
``taken = reconv_pc - target_pc``.  Those estimates are only meaningful if
they agree with what the control-flow graph actually allows a warp to
execute, so this module computes per-region **static envelopes**:

* the **minimum** number of instructions any thread executes from a region
  entry before reaching a stop PC (shortest CFG path), and
* the **maximum** number a *warp* can execute — for a loop-free region this
  is the count of PCs lying on some entry-to-stop path, because a divergent
  warp serializes both arms of every nested branch but visits each PC at
  most once; with a loop in the region the envelope is unbounded
  (``math.inf``).

Two consumers:

* the **PATH001 lint** (:mod:`.lints`) statically requires
  every Algorithm-2 arm size to lie inside its envelope, and
* :class:`CheckedCriticalityPredictor`, a drop-in subclass of the CPL
  predictor (``tests/test_cpl_bounds_runtime.py`` installs it in place of
  the one :class:`repro.gpu.GPU` builds), re-verifies the same inequality
  on the *dynamic* branch stream — catching CPL accounting drift the
  moment it happens instead of as a mysteriously mis-ranked warp.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.cpl import CriticalityPredictor
from repro.errors import SimulationError
from repro.isa.cfg import pc_successors

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.instructions import Instruction
    from repro.isa.kernel import Kernel
    from repro.simt.warp import Warp

_Region = Optional[Tuple[float, float]]


class CPLBoundsError(SimulationError):
    """Raised when a branch's dynamic CPL ``nInst`` delta escapes the
    static path-length envelope of the instructions a warp can execute
    between the branch and its reconvergence point."""


class PathBounds:
    """Static instruction-count bounds over one kernel's control flow.

    Attributes:
        min_to_exit: per-PC minimum instructions executed (inclusive of the
            PC itself) until the warp terminates; ``inf`` when no EXIT is
            reachable.
        max_to_exit: per-PC maximum over simple thread paths; ``inf`` when a
            loop (or no EXIT) is reachable.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        n = len(kernel.instructions)
        self._n = n
        #: instruction-level successor PCs; the virtual terminal is ``n``.
        self._succs: List[Tuple[int, ...]] = []
        for inst in kernel.instructions:
            succs = pc_successors(inst, n)
            if not succs:
                succs = (n,)  # EXIT (or stream end) -> virtual terminal
            self._succs.append(succs)
        self._preds: List[List[int]] = [[] for _ in range(n + 1)]
        for pc, succs in enumerate(self._succs):
            for s in succs:
                self._preds[s].append(pc)
        self._region_cache: Dict[int, Dict[int, _Region]] = {}
        self.min_to_exit, self.max_to_exit = self._bounds_to(n)

    # ------------------------------------------------------------------
    # Core fixed stop-PC computation
    # ------------------------------------------------------------------
    def _bounds_to(self, stop: int) -> Tuple[List[float], List[float]]:
        """Min/max instructions executed from each PC until reaching ``stop``.

        ``stop`` is absorbing (its out-edges are cut); counts exclude the
        stop PC itself.  PCs that cannot reach ``stop`` get ``inf`` in both.
        The max is over *simple* paths: any cycle on the way makes it
        ``inf``.
        """
        n = self._n
        # Nodes that can reach `stop` (backward closure; stop absorbing).
        reach = {stop}
        work = [stop]
        while work:
            pc = work.pop()
            for p in self._preds[pc]:
                if p != stop and p not in reach:
                    reach.add(p)
                    work.append(p)

        INF = math.inf
        mins = [INF] * (n + 1)
        mins[stop] = 0.0
        frontier = [stop]
        dist = 0.0
        while frontier:
            dist += 1.0
            nxt = []
            for pc in frontier:
                for p in self._preds[pc]:
                    if p in reach and p != stop and mins[p] is INF:
                        mins[p] = dist
                        nxt.append(p)
            frontier = nxt

        # Longest simple path by bounded value iteration: every sweep can
        # extend the best path by at least one edge, and simple paths have
        # at most n edges, so a value exceeding n proves a cycle.
        maxs = [INF] * (n + 1)
        maxs[stop] = 0.0
        nodes = [pc for pc in reach if pc != stop]
        for _ in range(n + 1):
            changed = False
            for pc in nodes:
                best = -INF
                for s in self._succs[pc]:
                    if s in reach:
                        val = maxs[s] if maxs[s] is not INF else -INF
                        if s == stop:
                            val = 0.0
                        if val > best:
                            best = val
                cand = best + 1.0
                current = maxs[pc] if maxs[pc] is not INF else -INF
                if cand > current:
                    maxs[pc] = cand
                    changed = True
            if not changed:
                break
        for pc in nodes:
            if maxs[pc] is INF or maxs[pc] > n:
                maxs[pc] = INF
        return mins[: n + 1], maxs[: n + 1]

    # ------------------------------------------------------------------
    # Region envelopes
    # ------------------------------------------------------------------
    def region_bounds(self, entry: int, stop: int) -> _Region:
        """Envelope of instructions a warp executes from ``entry`` to ``stop``.

        Returns ``None`` when ``stop`` is unreachable from ``entry``;
        otherwise ``(min, max)`` where ``min`` is the shortest thread path
        (in instructions, ``stop`` excluded) and ``max`` is the warp-level
        bound: the number of PCs on some entry-to-stop path when the region
        is loop-free, else ``inf``.
        """
        if entry == stop:
            return (0.0, 0.0)
        if not (0 <= entry < self._n and 0 <= stop <= self._n):
            return None
        per_stop = self._region_cache.setdefault(stop, {})
        if entry in per_stop:
            return per_stop[entry]
        result = self._compute_region(entry, stop)
        per_stop[entry] = result
        return result

    def _compute_region(self, entry: int, stop: int) -> _Region:
        # Forward closure from entry with stop absorbing.
        fwd = {entry}
        work = [entry]
        while work:
            pc = work.pop()
            if pc == stop or pc == self._n:
                # The stop PC and the virtual terminal are both absorbing.
                continue
            for s in self._succs[pc]:
                if s <= self._n and s not in fwd:
                    fwd.add(s)
                    work.append(s)
        if stop not in fwd:
            return None
        # Backward closure from stop restricted to the forward set.
        on_path = {stop}
        work = [stop]
        while work:
            pc = work.pop()
            for p in self._preds[pc]:
                if p in fwd and p != stop and p not in on_path:
                    on_path.add(p)
                    work.append(p)
        if entry not in on_path:  # pragma: no cover - fwd ensures membership
            return None
        interior = on_path - {stop}

        # Shortest path entry -> stop (edges == instructions executed).
        dist = {entry: 0.0}
        frontier = [entry]
        min_steps = math.inf
        while frontier and math.isinf(min_steps):
            nxt = []
            for pc in frontier:
                for s in self._succs[pc]:
                    if s == stop:
                        min_steps = dist[pc] + 1.0
                        break
                    if s in interior and s not in dist:
                        dist[s] = dist[pc] + 1.0
                        nxt.append(s)
                else:
                    continue
                break
            frontier = nxt

        # Cycle among on-path nodes => warp-level work is unbounded.
        if self._has_cycle(interior):
            return (min_steps, math.inf)
        return (min_steps, float(len(interior)))

    def _has_cycle(self, nodes: set) -> bool:
        """Does the sub-graph induced by ``nodes`` contain a cycle?"""
        indeg = {pc: 0 for pc in nodes}
        for pc in nodes:
            for s in self._succs[pc]:
                if s in indeg:
                    indeg[s] += 1
        work = [pc for pc, d in indeg.items() if d == 0]
        removed = 0
        while work:
            pc = work.pop()
            removed += 1
            for s in self._succs[pc]:
                if s in indeg:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        work.append(s)
        return removed != len(nodes)

    # ------------------------------------------------------------------
    # Branch-arm envelopes (shared by PATH001 and the runtime checker)
    # ------------------------------------------------------------------
    def branch_envelope(
        self, pc: int, target_pc: int, reconv_pc: int,
        diverged: bool, all_taken: bool,
    ) -> Tuple[float, float]:
        """Static envelope for the Algorithm-2 delta of one branch outcome.

        Unbounded arms (loops, arms that never reach the reconvergence
        point) contribute ``(0, inf)`` so the check degrades to the always-
        sound ``delta >= 0``.
        """

        def arm(entry: int) -> Tuple[float, float]:
            if entry == reconv_pc:
                return (0.0, 0.0)
            region = self.region_bounds(entry, reconv_pc)
            if region is None or math.isinf(region[1]):
                return (0.0, math.inf)
            return region

        fall = arm(pc + 1)
        taken = arm(target_pc)
        if diverged:
            return (fall[0] + taken[0], fall[1] + taken[1])
        if all_taken:
            return taken
        return fall


class CheckedCriticalityPredictor(CriticalityPredictor):
    """CPL predictor that asserts the static path-length envelope at runtime.

    Installed per SM in place of the plain predictor.  On every
    resolved conditional branch the Algorithm-2 delta actually added to the
    warp's ``nInst`` disparity counter is compared against the static
    envelope of the committed path(s).  (The counter cannot go negative:
    the warp derives it clamped at zero.)  Violations raise
    :class:`CPLBoundsError` immediately, turning silent
    criticality-accounting drift into a hard failure.  Purely observational
    otherwise: scheduling decisions are bit-identical to
    :class:`CriticalityPredictor`.
    """

    def __init__(self, update_period: int = 64) -> None:
        super().__init__(update_period)
        #: Number of branch-delta envelope checks performed.
        self.bound_checks: int = 0
        #: Subset of ``bound_checks`` with a finite (non-trivial) envelope.
        self.finite_checks: int = 0
        self._bounds_cache: Dict[int, Tuple[object, PathBounds]] = {}

    def _bounds_for(self, warp: "Warp") -> PathBounds:
        kernel = warp.block.kernel
        key = id(kernel)
        cached = self._bounds_cache.get(key)
        if cached is None or cached[0] is not kernel:
            cached = (kernel, PathBounds(kernel))
            self._bounds_cache[key] = cached
        return cached[1]

    def on_branch(
        self,
        warp: "Warp",
        inst: "Instruction",
        diverged: bool,
        all_taken: bool,
        now: float = 0.0,
    ) -> None:
        before = warp.cpl_inst_disparity
        super().on_branch(warp, inst, diverged=diverged, all_taken=all_taken,
                          now=now)
        if inst.pred is None or inst.reconv_pc < 0:
            return
        delta = warp.cpl_inst_disparity - before
        lo, hi = self._bounds_for(warp).branch_envelope(
            inst.pc, inst.target_pc, inst.reconv_pc, diverged, all_taken
        )
        self.bound_checks += 1
        if not math.isinf(hi):
            self.finite_checks += 1
        if not lo <= delta <= hi:
            outcome = (
                "divergent" if diverged else ("taken" if all_taken else
                                              "fall-through")
            )
            raise CPLBoundsError(
                f"kernel {warp.block.kernel.name!r}: CPL delta {delta} for "
                f"the {outcome} branch at pc={inst.pc} (target "
                f"{inst.target_pc}, reconv {inst.reconv_pc}) escapes the "
                f"static envelope [{lo:g}, {hi:g}]"
            )
