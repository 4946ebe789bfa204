"""Tests for the scheme registry and configuration plumbing."""

import pytest

from repro import GPU, GPUConfig, apply_scheme
from repro.core.cawa import SCHEMES
from repro.core.cacp import CACPPolicy
from repro.scheduling import (
    GCAWSScheduler,
    GTOScheduler,
    LRRScheduler,
    OracleCAWSScheduler,
    TwoLevelScheduler,
)

_EXPECTED_SCHEDULER_TYPES = {
    "rr": LRRScheduler,
    "gto": GTOScheduler,
    "two_level": TwoLevelScheduler,
    "caws": OracleCAWSScheduler,
    "gcaws": GCAWSScheduler,
    "cawa": GCAWSScheduler,
    "rr+cacp": LRRScheduler,
    "gto+cacp": GTOScheduler,
    "two_level+cacp": TwoLevelScheduler,
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_builds_expected_gpu(scheme):
    config = apply_scheme(GPUConfig.default_sim(), scheme)
    gpu = GPU(config)
    sm = gpu.sms[0]
    assert isinstance(sm.schedulers[0], _EXPECTED_SCHEDULER_TYPES[scheme])
    uses_cacp = isinstance(sm.l1d.policy, CACPPolicy)
    assert uses_cacp == SCHEMES[scheme][1]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        apply_scheme(GPUConfig.default_sim(), "magic")


def test_cacp_schemes_partition_half_the_ways():
    config = apply_scheme(GPUConfig.default_sim(), "cawa")
    assert config.l1d.critical_ways == config.l1d.ways // 2


def _chained(config, scheme):
    """``apply_scheme`` as it was built before: one ``replace`` per knob."""
    scheduler, use_cacp = SCHEMES[scheme]
    return config.with_scheduler(scheduler).with_cacp(use_cacp)


_BASES = {
    "default_sim": GPUConfig.default_sim(),
    "fermi": GPUConfig.fermi_gtx480(),
    # Knobs a scheme leaves alone, or resets, already set on the base.
    "cacp_quarter": GPUConfig.default_sim().with_cacp(True, critical_ways=4),
    "cacp_static": GPUConfig.default_sim(cacp_mode="static"),
}


@pytest.mark.parametrize("base", sorted(_BASES))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_single_replace_equals_the_chain(scheme, base):
    config = _BASES[base]
    assert apply_scheme(config, scheme) == _chained(config, scheme)


def test_apply_scheme_is_memoised():
    # One instance per (config, scheme), equal configs included, so its
    # fingerprint is hashed once; a miss still validates the scheme.
    first = apply_scheme(GPUConfig.default_sim(), "cawa")
    assert apply_scheme(GPUConfig.default_sim(), "cawa") is first
    assert apply_scheme(GPUConfig.default_sim(), "gto") is not first
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown scheme"):
            apply_scheme(GPUConfig.default_sim(), "magic")


def test_schemes_do_not_mutate_base_config():
    base = GPUConfig.default_sim()
    apply_scheme(base, "cawa")
    assert base.scheduler_name == "lrr"
    assert not base.use_cacp


def test_cpl_attached_to_every_sm():
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), "rr"))
    assert all(sm.cpl is not None for sm in gpu.sms)


def test_fermi_config_runs_a_small_kernel():
    import numpy as np

    from tests.conftest import build_copy_kernel

    gpu = GPU(GPUConfig.fermi_gtx480())
    n = 15 * 64
    src = gpu.memory.alloc_array(np.arange(n, dtype=float))
    dst = gpu.memory.alloc_array(np.zeros(n))
    result = gpu.launch(build_copy_kernel(n, src, dst), 15, 64)
    assert np.array_equal(gpu.memory.read_array(dst, n), np.arange(n, dtype=float))
    # One block per SM on the full 15-SM machine.
    assert len(result.blocks) == 15
