"""The MSHR file's sorted in-flight list against the heap it replaced.

:class:`~tests.oracles.MSHRReferenceOracle` shadows every SM's file with
the completion heap + ``heapq.nsmallest`` form (:class:`~tests.oracles.
HeapMSHR`) and asserts equal answers to every query;
``tests/test_replay_signatures.py`` runs it on all pinned cells.  Here: it
checks what it claims to, and it names two broken list operations.
"""

from __future__ import annotations

import pytest

from repro import GPU, GPUConfig, apply_scheme
from repro.memory.mshr import MSHRFile
from repro.workloads import make_workload
from tests.oracles import HeapMSHR, MSHRReferenceOracle


def run_checked(name="bfs", scheme="gto", scale=0.25):
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), scheme))
    oracle = MSHRReferenceOracle(gpu)
    result = make_workload(name, scale=scale).run(gpu, scheme=scheme, check=True)
    return oracle, result


def test_the_oracle_checks_every_query():
    oracle, result = run_checked()
    assert set(oracle.queries) == set(MSHRReferenceOracle.QUERIES)
    assert oracle.queries["merge_or_start"] >= result.l1_stats.misses > 0
    # The cell over-subscribes its files, so an entry frees at a later
    # completion than the first: the case a wrong position gets wrong.
    assert oracle.over_subscribed > 0


def test_the_heap_reference_answers_like_the_old_file():
    heap = HeapMSHR(entries=2)
    for line, done in enumerate([100.0, 110.0, 120.0, 130.0]):
        heap.register(line * 128, done)
    assert heap.next_free_time(5.0) == 120.0
    assert heap.merge_or_start(1024, 5.0) == (False, 100.0)
    assert heap.merge_or_start(128, 105.0) == (True, 110.0)
    assert heap.next_free_time(120.0) == 120.0


def test_next_free_time_at_the_first_completion_is_named(monkeypatch):
    def first_completion(self, now):
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._purge(now)
        return now if len(completions) < self._entries else completions[0][0]

    monkeypatch.setattr(MSHRFile, "next_free_time", first_completion)
    with pytest.raises(AssertionError, match=r"MSHR next_free_time.*heap reference"):
        run_checked()


def test_a_purge_keeping_a_fill_due_now_is_named(monkeypatch):
    def keeps_due_now(self, now):
        completions = self._completions
        retired = 0
        for done, line_addr in completions:
            if done >= now:
                break
            del self._inflight[line_addr]
            retired += 1
        del completions[:retired]

    monkeypatch.setattr(MSHRFile, "_purge", keeps_due_now)
    with pytest.raises(AssertionError, match=r"MSHR \w+.*heap reference"):
        run_checked()
