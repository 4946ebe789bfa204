"""Sampling-spec parsing and seed derivation (leaf module).

The :attr:`repro.config.GPUConfig.sampling` knob is a compact string::

    "off"            # exact simulation (default)
    "blocks:P"       # stratified cluster sampling of thread blocks

with ``0 < P <= 1`` the target sampling rate.  This module is a leaf
(imports only :mod:`repro.errors`) so :class:`~repro.config.GPUConfig`
can validate the knob in ``__post_init__`` without pulling the trace
machinery into the config import graph.

All sampling randomness is routed through :func:`derive_rng`: a
``random.Random`` seeded from a SHA-256 over the sampling spec and the
trace identity — deterministic by construction, so the source rule DET001
(``tests/test_source_rules.py``; unseeded randomness) stays clean with
zero waivers and a given configuration always selects the same subset.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from ..errors import ConfigError

#: Recognized sampling modes (beyond the literal "off").
MODES = ("blocks",)
#: Deleted modes, refused by name.
REMOVED_MODES = ("intervals",)


@dataclass(frozen=True)
class SamplingSpec:
    """Parsed form of a ``GPUConfig.sampling`` string."""

    mode: str  # "off" or "blocks"
    rate: float = 1.0

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def __str__(self) -> str:
        if self.mode == "off":
            return "off"
        return f"{self.mode}:{self.rate:g}"


def parse_sampling_spec(spec: str) -> SamplingSpec:
    """Parse and validate a sampling spec string.

    Raises :class:`~repro.errors.ConfigError` on anything that is not
    ``off`` or ``blocks:P`` with ``0 < P <= 1``.
    """
    if not isinstance(spec, str):
        raise ConfigError(
            f"sampling spec must be a string, got {type(spec).__name__}"
        )
    if spec == "off":
        return SamplingSpec(mode="off")
    mode, sep, rate_text = spec.partition(":")
    if mode in REMOVED_MODES:
        raise ConfigError(
            f"sampling mode {mode!r} was removed; use 'blocks:P' or 'off'"
        )
    if not sep or mode not in MODES:
        raise ConfigError(
            f"sampling must be 'off' or 'blocks:P', got {spec!r}"
        )
    try:
        rate = float(rate_text)
    except ValueError:
        raise ConfigError(
            f"sampling rate in {spec!r} is not a number"
        ) from None
    if not 0.0 < rate <= 1.0:
        raise ConfigError(
            f"sampling rate must satisfy 0 < P <= 1, got {rate!r}"
        )
    return SamplingSpec(mode=mode, rate=rate)


def derive_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from arbitrary JSON-able identity parts."""
    blob = json.dumps([str(p) for p in parts], sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(*parts: object) -> random.Random:
    """Config-derived RNG: the only sanctioned randomness source here."""
    return random.Random(derive_seed(*parts))
