"""Miniature config module: one fingerprinted knob, one excluded knob.

FPR001 parses this statically (never imports it) to learn the field set
and the declared exclusion list, mirroring the real ``repro/config.py``.
"""

from dataclasses import dataclass
from typing import ClassVar, FrozenSet


@dataclass(frozen=True)
class GPUConfig:
    num_sms: int = 2
    events: str = "off"

    FINGERPRINT_EXCLUDED: ClassVar[FrozenSet[str]] = frozenset({
        "events",
    })
