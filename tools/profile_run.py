#!/usr/bin/env python
"""Standalone profiler for simulator runs (no install required).

Examples::

    python tools/profile_run.py bfs cawa
    python tools/profile_run.py bfs cawa --sort tottime --top 40

Equivalent to ``python -m repro profile ...`` but bootstraps ``src/`` onto
``sys.path`` so it works straight from a checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def main() -> int:
    from repro.cli import main as cli_main

    return cli_main(["profile"] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
