"""Plain-text table formatting for the experiment harness output: the
fixed-width :func:`format_table` every figure script prints through."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a fixed-width table matching the paper's row/column layout."""
    str_rows: List[List[str]] = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
