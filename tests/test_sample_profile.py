"""The SIGPROF stack sampler behind ``tools/sample_profile.py``."""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
sample_profile = pytest.importorskip("sample_profile")

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="needs ITIMER_PROF")


def spin(seconds):
    """Burn CPU in Python for ``seconds`` of process time."""
    end = time.process_time() + seconds
    total = 0
    while time.process_time() < end:
        total += sum(range(200))
    return total


def caller(seconds):
    return spin(seconds)


def test_samples_charge_self_and_inclusive_time():
    before = signal.getsignal(signal.SIGPROF)
    sampler = sample_profile.StackSampler(0.001)
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
