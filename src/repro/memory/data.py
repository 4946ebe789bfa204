"""Functional global memory: a flat, word-addressed value store.

The timing model never touches data; this store guarantees loads return what
stores wrote, so workload kernels compute real results that tests can verify
against NumPy reference implementations.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

_WORD = 8  # bytes per register-width word


class GlobalMemory:
    """Flat byte-addressed global memory backed by a float64 word array."""

    def __init__(self, initial_words: int = 1024) -> None:
        self._words = np.zeros(initial_words, dtype=np.float64)
        self._next_free_word = 0

    @property
    def allocated_bytes(self) -> int:
        return self._next_free_word * _WORD

    def alloc(self, num_words: int) -> int:
        """Reserve ``num_words`` words; returns the base *byte* address."""
        if num_words < 0:
            raise SimulationError("negative allocation")
        base_word = self._next_free_word
        self._next_free_word += num_words
        if self._next_free_word > len(self._words):
            new_size = max(self._next_free_word, 2 * len(self._words))
            grown = np.zeros(new_size, dtype=np.float64)
            grown[: len(self._words)] = self._words
            self._words = grown
        return base_word * _WORD

    def alloc_array(self, values: np.ndarray) -> int:
        """Allocate and initialize from ``values``; returns base byte address."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        base = self.alloc(len(flat))
        self._words[base // _WORD : base // _WORD + len(flat)] = flat
        return base

    def read_array(self, base: int, num_words: int) -> np.ndarray:
        """Copy ``num_words`` words starting at byte address ``base``."""
        self._check_range(base, num_words)
        start = base // _WORD
        return self._words[start : start + num_words].copy()

    def write_word(self, addr: int, value: float) -> None:
        self._check_range(addr, 1)
        self._words[addr // _WORD] = value

    def read_word(self, addr: int) -> float:
        self._check_range(addr, 1)
        return float(self._words[addr // _WORD])

    def load(self, addrs: np.ndarray, mask_bools: np.ndarray) -> np.ndarray:
        """Gather one word per active lane; inactive lanes read as 0.

        ``addrs`` are int64 byte addresses, one per lane (any shape: one
        warp's lanes, or a ``(warps, lanes)`` group).
        """
        values = np.zeros(addrs.shape, dtype=np.float64)
        idx = addrs[mask_bools] // _WORD
        if idx.size:
            self._check_indices(idx)
            values[mask_bools] = self._words[idx]
        return values

    def store(self, addrs: np.ndarray, values: np.ndarray, mask_bools: np.ndarray) -> None:
        """Scatter one word per active lane (lane order resolves conflicts)."""
        idx = addrs[mask_bools] // _WORD
        if idx.size:
            self._check_indices(idx)
            # Highest lane wins on conflicting addresses, deterministically.
            self._words[idx] = values[mask_bools]

    def _check_range(self, base: int, num_words: int) -> None:
        if base < 0 or base % _WORD != 0:
            raise SimulationError(f"bad address {base:#x}")
        if base // _WORD + num_words > self._next_free_word:
            raise SimulationError(
                f"access beyond allocated memory: addr={base:#x} words={num_words}"
            )

    def _check_indices(self, idx: np.ndarray) -> None:
        # One reduction covers both bounds: read as unsigned, a negative
        # int64 index is larger than every valid one.
        if idx.size and idx.view(np.uint64).max() >= self._next_free_word:
            bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
            raise SimulationError(
                f"out-of-bounds memory access at word {bad} "
                f"(allocated {self._next_free_word} words)"
            )
