"""Static analysis of finalized kernels, kept as test infrastructure.

CAWA's criticality predictor (paper Section 3.1, Algorithm 2) infers a
resolved branch's remaining path length purely from static PCs — branch
target and reconvergence point — so the scheme depends on structural
properties of the PTX-like kernels.  The simulator itself checks only the
ones it needs at run time (:func:`repro.isa.program.validate_kernel`:
regions nest and every branch dominates its reconvergence point, over the
CFG in :mod:`repro.isa.cfg`).  The rest are developer checks, run by the
tier-1 suite over every registered workload kernel:

* :mod:`.dataflow` — forward def-before-use analysis for registers and
  predicates, backward liveness (dead-write detection), block-uniformity
  (divergence) analysis, and an affine abstract interpretation of address
  arithmetic;
* :mod:`.lints` — a rule catalogue with stable IDs and severities, and the
  findings and waiver-aware reports the linter produces;
* :mod:`.pathlen` — static min/max remaining-instruction bounds per PC,
  used by the PATH001 rule and by
  :class:`~.pathlen.CheckedCriticalityPredictor`, a drop-in CPL predictor
  that asserts at run time that each dynamic ``nInst`` delta stays inside
  the static envelope.

See ``docs/static_analysis.md`` for the rule catalogue and how to waive a
rule for one workload.
"""
