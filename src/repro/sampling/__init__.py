"""``repro.sampling`` — blocks-mode sampled replay over the trace store.

Replays a config-selected subset of a recorded trace's thread blocks
through the unchanged timing model and extrapolates full-run metrics,
each with a 95% confidence interval, in three modules:

* :mod:`~repro.sampling.spec` — the ``sampling='off'|'blocks:P'`` knob
  grammar and the seeded RNG derivation every piece of sampling
  randomness must route through;
* :mod:`~repro.sampling.plan` — stratified cluster selection of thread
  blocks (strata = record-stream signatures);
* :mod:`~repro.sampling.replay` — the orchestrator that derives the
  sub-program, replays it, and estimates
  (:class:`~repro.stats.sampling.SampledRunResult`).

What is left serves one caller, ``run_sweep(sampled="blocks:P")``; ROADMAP
item 9 deletes it with that call.  Only the leaf spec module is imported
eagerly: :mod:`repro.config` parses the knob from ``__post_init__`` via
``repro.sampling.spec``, which initialises this package, so everything
that pulls in the trace/replay machinery is exposed via module
``__getattr__`` instead (same idiom as :mod:`repro.obs`).  See
``docs/sampling.md``.
"""

from __future__ import annotations

from .spec import MODES, SamplingSpec, derive_rng, derive_seed, parse_sampling_spec

__all__ = [
    "MODES",
    "SamplingSpec",
    "parse_sampling_spec",
    "derive_seed",
    "derive_rng",
    "BlockProfile",
    "LaunchPlan",
    "profile_program",
    "build_strata",
    "subsample_program",
    "replay_sampled",
    "remap_oracle",
]

_PLAN_NAMES = (
    "BlockProfile",
    "LaunchPlan",
    "profile_launch",
    "profile_program",
    "build_strata",
    "subsample_launch",
    "subsample_program",
)
_REPLAY_NAMES = ("replay_sampled", "remap_oracle")


def __getattr__(name: str):
    if name in _PLAN_NAMES:
        from . import plan

        return getattr(plan, name)
    if name in _REPLAY_NAMES:
        from . import replay

        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
