"""The SIGPROF stack sampler behind ``repro profile`` and its layer table."""

from __future__ import annotations

import signal
import time
from pathlib import Path

import pytest

from repro.experiments import profiling
from repro.experiments.profiling import StackSampler

PACKAGE = Path(profiling.__file__).resolve().parent.parent


def spin(seconds):
    """Burn CPU in Python for ``seconds`` of process time."""
    end = time.process_time() + seconds
    total = 0
    while time.process_time() < end:
        total += sum(range(200))
    return total


def caller(seconds):
    return spin(seconds)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs ITIMER_PROF")
def test_samples_charge_self_and_inclusive_time():
    before = signal.getsignal(signal.SIGPROF)
    sampler = StackSampler()
    with sampler:
        caller(0.3)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert sampler.samples > 10
    hot = sampler.self_counts.most_common(1)[0][0]
    assert hot is spin.__code__
    # Every sample of spin() ran under caller(): inclusive >= self, once each.
    assert sampler.inclusive_counts[caller.__code__] >= sampler.self_counts[spin.__code__]
    assert sampler.inclusive_counts[spin.__code__] <= sampler.samples
    # Nothing here runs simulator code: every sample is the `other` layer.
    assert dict(sampler.layer_shares())["other"] == pytest.approx(1.0)
    name, self_share, inclusive_share = sampler.function_shares()[0]
    assert name == "test_profiling.py:spin" and self_share <= inclusive_share


def test_every_simulator_module_has_a_named_layer():
    """Each module of the simulator's packages maps to a named layer, so a
    module added without a :data:`profiling.LAYERS` entry fails here."""
    packages = ("scheduling", "sm", "simt", "core", "memory", "gpu", "trace",
                "obs", "feedback")
    paths = sorted(path for package in packages
                   for path in (PACKAGE / package).rglob("*.py"))
    assert len(paths) > 40
    for path in paths:
        module = profiling.module_of(compile("", str(path), "exec"))
        assert module is not None and module.startswith("repro.")
        assert profiling.layer_of(module) != "other", module


def test_layers_follow_the_longest_module_prefix():
    assert profiling.layer_of("repro.sm.lsu") == "LSU"
    assert profiling.layer_of("repro.sm.sm") == "issue/scoreboard"
    assert profiling.layer_of("repro.memory.l2") == "L2/DRAM"
    assert profiling.layer_of("repro.memory.mshr") == "L1/MSHR"
    assert profiling.layer_of("repro.core.cacp") == "L1/MSHR"
    assert profiling.layer_of("repro.core.cpl") == "CPL"
    assert profiling.layer_of("repro.experiments.runner") == "other"
    assert profiling.layer_of(None) == "other"
