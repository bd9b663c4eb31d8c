"""Fixed-width table and heatmap rendering in the paper's style.

The benchmark harness prints its reproduction of each table through
these helpers so outputs line up with the paper's layout for eyeball
comparison.  The congestion-map artifacts — one CSV + ASCII heatmap per
evaluated K point, the exact view the Figure-3 loop gated on — are
written here too (:func:`write_congestion_artifacts`).
"""

from __future__ import annotations

import os
from typing import List, Sequence

from ..obs.profile import format_table

#: Darkness ramp used by the ASCII heatmap rendering.
HEAT_SHADES = " .:-=+*#%@"


def render_heatmap(values, shades: str = HEAT_SHADES) -> str:
    """ASCII heatmap of a 2D field (darker = higher).

    ``values`` is indexable as ``values[x, y]`` with ``shape`` —
    typically a numpy array like a routing grid's utilization map —
    rendered with y increasing upward (row 0 printed last).  Values
    are clipped to [0, 1] before shading.
    """
    nx, ny = values.shape
    top = len(shades) - 1
    lines: List[str] = []
    for y in range(ny - 1, -1, -1):
        row = []
        for x in range(nx):
            level = min(int(values[x, y] * top), top)
            row.append(shades[max(level, 0)])
        lines.append("".join(row))
    return "\n".join(lines)


def k_sweep_table(points, title: str) -> str:
    """The paper's Table 2/4 layout from a list of EvalPoints."""
    headers = ["K", "Cell Area (um2)", "No. of Cells",
               "Area Utilization%", "No. of Routing violations"]
    rows = [(p.k, p.cell_area, p.num_cells, p.utilization, p.violations)
            for p in points]
    return format_table(headers, rows, title=title)


def sta_table(rows, title: str) -> str:
    """The paper's Table 3/5 layout.

    ``rows`` are (label, own_critical_str, reference_str, chip_area,
    num_rows) tuples.
    """
    headers = ["K", "Critical Path Arrival (ns)",
               "Same path as critical of ref", "Chip Area (um2)", "Rows"]
    return format_table(headers, rows, title=title)


def congestion_map_csv(grid) -> str:
    """Long-format CSV of per-GCell utilization and overflow."""
    util = grid.utilization_map()
    over = grid.overflow_map()
    lines = ["x,y,utilization,overflow"]
    for x in range(grid.nx):
        for y in range(grid.ny):
            lines.append(f"{x},{y},{util[x, y]:.4f},{int(over[x, y])}")
    return "\n".join(lines) + "\n"


def congestion_map_text(grid, title: str = "") -> str:
    """ASCII heatmap of GCell congestion with a summary header."""
    header = (f"{title}\n" if title else "") + (
        f"grid {grid.nx}x{grid.ny} (hcap={grid.hcap}, vcap={grid.vcap}) "
        f"overflow={grid.overflow_total()} max_edge={grid.overflow_max()}")
    return header + "\n" + render_heatmap(grid.utilization_map())


def _k_tag(k: float) -> str:
    return f"{k:g}".replace(".", "p").replace("-", "m")


def write_congestion_artifacts(points: Sequence, directory: str,
                               prefix: str = "congestion") -> List[str]:
    """Dump one CSV + one ASCII heatmap per evaluated point.

    ``points`` are :class:`~repro.core.flow.EvalPoint`-likes (anything
    with ``k`` and a ``routing`` carrying a grid); points without a
    routing result are skipped.  Returns the written paths.
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for idx, point in enumerate(points):
        routing = getattr(point, "routing", None)
        if routing is None:
            continue
        stem = f"{prefix}_{idx:02d}_k{_k_tag(point.k)}"
        csv_path = os.path.join(directory, stem + ".csv")
        with open(csv_path, "w") as handle:
            handle.write(congestion_map_csv(routing.grid))
        txt_path = os.path.join(directory, stem + ".txt")
        title = (f"K={point.k:g} violations={routing.violations} "
                 f"overflowed_nets={routing.overflowed_nets}")
        with open(txt_path, "w") as handle:
            handle.write(congestion_map_text(routing.grid, title) + "\n")
        written.extend([csv_path, txt_path])
    return written
