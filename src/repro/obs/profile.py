"""Per-phase time/counter breakdowns rendered from a span tree.

The ``--profile`` CLI flag and the benchmark harness turn one run's
span tree into two fixed-width tables (:func:`format_table`, which
:mod:`repro.io.report` re-exports for the paper-style result tables):

* **Phases** — every distinct span *path* (``run/sweep/k_point/map``)
  with its call count, total/mean wall-time and share of the run.
* **Counters** — every counter recorded anywhere in the tree, merged
  by the registry's per-kind rules, with its kind spelled out so
  deterministic results are distinguishable from wall-times and
  plan-dependent work counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .registry import StatsRegistry
from .tracer import Span

__all__ = ["format_table", "merged_counters", "phase_breakdown",
           "profile_report"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a fixed-width ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) < 0.01:
            return f"{cell:g}"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        return f"{cell:.2f}"
    return str(cell)


def phase_breakdown(root: Span) -> List[Tuple[str, int, float]]:
    """(phase path, calls, total seconds) per distinct span path.

    Paths are slash-joined span names (no child indexes), so the many
    ``k_point`` spans of a sweep aggregate into one row.  Rows appear
    in first-visit (depth-first) order.
    """
    order: List[str] = []
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}

    def visit(span: Span, prefix: str) -> None:
        path = f"{prefix}/{span.name}" if prefix else span.name
        if path not in calls:
            order.append(path)
            calls[path] = 0
            total[path] = 0.0
        calls[path] += 1
        total[path] += span.duration
        for child in span.children:
            visit(child, path)

    visit(root, "")
    return [(path, calls[path], total[path]) for path in order]


def merged_counters(root: Span) -> StatsRegistry:
    """All counters in the tree, merged depth-first in span order."""
    return StatsRegistry.merged(span.counters for span in root.iter_spans())


def profile_report(root: Span) -> str:
    """The full ``--profile`` text: phase table + counter table."""
    rows = phase_breakdown(root)
    run_total = root.duration or max((t for _, _, t in rows), default=0.0)
    phase_rows = []
    for path, ncalls, total in rows:
        share = 100.0 * total / run_total if run_total > 0 else 0.0
        phase_rows.append((path, ncalls, f"{total:.4f}",
                           f"{total / ncalls:.4f}", f"{share:.1f}"))
    phases = format_table(
        ["Phase", "Calls", "Total s", "Mean s", "Share %"], phase_rows,
        title="Per-phase breakdown")

    counters = merged_counters(root)
    kinds = counters.kinds()
    counter_rows = [(key, kinds[key],
                     value if isinstance(value, int) else f"{value:.6g}")
                    for key, value in sorted(counters.as_dict().items())]
    table = format_table(["Counter", "Kind", "Value"], counter_rows,
                         title="Merged counters")
    return phases + "\n\n" + table
