"""Plain-text table formatting for experiment output.

Every benchmark harness prints its paper table/figure through these so
the regenerated rows are uniform and diffable against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def _cell(x) -> str:
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1e5 or abs(x) < 1e-3:
            return f"{x:.3g}"
        return f"{x:.4g}" if abs(x) < 1 else f"{x:,.2f}".rstrip("0").rstrip(".")
    return str(x)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str | None = None) -> str:
    """Fixed-width text table."""
    cells = [[_cell(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for r in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)
