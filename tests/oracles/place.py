"""Scalar oracles of the placement kernels.

Each public function here is a drop-in for the :mod:`repro.place`
kernel of the same name and must return bit-identical arrays: the
per-net quadratic assembly, recursive median-bisection spreading, the
row scan over numpy arrays in legalization, and the annealer that
re-measures every touched net pin by pin.  They are what the batched
kernels were derived from, kept only as the equivalence reference.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import PlacementError
from repro.place.floorplan import Floorplan
from repro.place.legalize import _checked_widths
from repro.place.quadratic import CLIQUE_LIMIT, QpNet, _solve
from repro.place.spreading import LEAF_POPULATION

Point = Tuple[float, float]


def solve_quadratic(num_movable: int, nets: Sequence[QpNet],
                    default: Point = (0.0, 0.0)) -> np.ndarray:
    """:func:`repro.place.quadratic.solve_quadratic`, per-net assembly."""
    if num_movable == 0:
        return np.zeros((0, 2))
    diag, bx, by, lap = _assemble(num_movable, nets)
    x = _solve(lap, bx)
    y = _solve(lap, by)
    out = np.column_stack([x[:num_movable], y[:num_movable]])
    untouched = diag[:num_movable] <= 2e-9
    out[untouched] = default
    return out


def _assemble(num_movable: int, nets: Sequence[QpNet]):
    """Per-net list-building Laplacian assembly."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.zeros(num_movable)
    bx = np.zeros(num_movable)
    by = np.zeros(num_movable)

    star_points: List[QpNet] = []
    num_star = 0
    for net in nets:
        if net.degree() < 2:
            continue
        if net.degree() <= CLIQUE_LIMIT:
            _add_clique(net, rows, cols, vals, diag, bx, by)
        else:
            star_points.append(net)
            num_star += 1

    n = num_movable + num_star
    if num_star:
        diag = np.concatenate([diag, np.zeros(num_star)])
        bx = np.concatenate([bx, np.zeros(num_star)])
        by = np.concatenate([by, np.zeros(num_star)])
        for i, net in enumerate(star_points):
            star = num_movable + i
            weight = 1.0  # per spoke
            for m in net.movables:
                _add_edge(m, star, weight, rows, cols, vals, diag)
            for (fx, fy) in net.fixed:
                diag[star] += weight
                bx[star] += weight * fx
                by[star] += weight * fy

    # Tiny regularisation keeps components without anchors solvable.
    diag = diag + 1e-9
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + sp.diags(diag)
    return diag, bx, by, lap


def _add_clique(net: QpNet, rows: List[int], cols: List[int],
                vals: List[float], diag: np.ndarray,
                bx: np.ndarray, by: np.ndarray) -> None:
    degree = net.degree()
    weight = 2.0 / degree
    movs = net.movables
    for i in range(len(movs)):
        for j in range(i + 1, len(movs)):
            _add_edge(movs[i], movs[j], weight, rows, cols, vals, diag)
        for (fx, fy) in net.fixed:
            diag[movs[i]] += weight
            bx[movs[i]] += weight * fx
            by[movs[i]] += weight * fy


def _add_edge(i: int, j: int, weight: float, rows: List[int],
              cols: List[int], vals: List[float], diag: np.ndarray) -> None:
    rows.extend((i, j))
    cols.extend((j, i))
    vals.extend((-weight, -weight))
    if i < len(diag):
        diag[i] += weight
    if j < len(diag):
        diag[j] += weight


def spread(positions: np.ndarray, floorplan: Floorplan,
           weights: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`repro.place.spreading.spread`, one region at a time."""
    n = positions.shape[0]
    if n == 0:
        return positions.copy()
    if weights is None:
        weights = np.ones(n)
    out = positions.astype(float).copy()
    _spread_region(out, np.arange(n), weights,
                   0.0, 0.0, floorplan.width, floorplan.height, vertical=True)
    return out


def _spread_region(out: np.ndarray, index: np.ndarray, weights: np.ndarray,
                   x0: float, y0: float, x1: float, y1: float,
                   vertical: bool) -> None:
    """Recursively place the cells of ``index`` into [x0,x1]×[y0,y1]."""
    if index.size == 0:
        return
    if index.size <= LEAF_POPULATION:
        _scale_into(out, index, x0, y0, x1, y1)
        return
    # Split along the longer dimension for round regions; otherwise
    # alternate as requested.
    if (x1 - x0) > 1.5 * (y1 - y0):
        vertical = True
    elif (y1 - y0) > 1.5 * (x1 - x0):
        vertical = False
    axis = 0 if vertical else 1
    order = index[np.argsort(out[index, axis], kind="stable")]
    total = weights[order].sum()
    half = np.searchsorted(np.cumsum(weights[order]), total / 2.0) + 1
    half = min(max(int(half), 1), order.size - 1)
    left, right = order[:half], order[half:]
    frac = weights[left].sum() / total if total > 0 else 0.5
    frac = min(max(frac, 0.05), 0.95)
    if vertical:
        xm = x0 + (x1 - x0) * frac
        _spread_region(out, left, weights, x0, y0, xm, y1, not vertical)
        _spread_region(out, right, weights, xm, y0, x1, y1, not vertical)
    else:
        ym = y0 + (y1 - y0) * frac
        _spread_region(out, left, weights, x0, y0, x1, ym, not vertical)
        _spread_region(out, right, weights, x0, ym, x1, y1, not vertical)


def _scale_into(out: np.ndarray, index: np.ndarray,
                x0: float, y0: float, x1: float, y1: float) -> None:
    """Min-max scale the indexed points into the region interior."""
    for axis, (lo, hi) in enumerate(((x0, x1), (y0, y1))):
        coords = out[index, axis]
        span = coords.max() - coords.min()
        pad = 0.25 * (hi - lo)
        if span < 1e-12:
            out[index, axis] = (lo + hi) / 2.0
        else:
            out[index, axis] = (lo + pad) + (coords - coords.min()) / span \
                * ((hi - pad) - (lo + pad))


def legalize_rows(positions: np.ndarray, widths: Sequence[float],
                  floorplan: Floorplan, row_search: int = 6) -> np.ndarray:
    """:func:`repro.place.legalize.legalize_rows`, scanning numpy rows."""
    widths = _checked_widths(positions, widths, floorplan)
    cursors = np.zeros(floorplan.num_rows)
    out = np.zeros_like(positions, dtype=float)
    order = np.argsort(positions[:, 0], kind="stable")
    for i in order:
        x, y = positions[i]
        width = widths[i]
        target = int(np.clip(y / floorplan.row_height, 0,
                             floorplan.num_rows - 1))
        best_row = -1
        best_cost = float("inf")
        radius = row_search
        while best_row < 0:
            lo = max(0, target - radius)
            hi = min(floorplan.num_rows - 1, target + radius)
            for row in range(lo, hi + 1):
                if cursors[row] + width > floorplan.width + 1e-9:
                    continue
                place_x = cursors[row]
                cost = (abs(place_x + width / 2.0 - x)
                        + abs(floorplan.row_y(row) - y))
                if cost < best_cost:
                    best_cost = cost
                    best_row = row
            if best_row < 0:
                if lo == 0 and hi == floorplan.num_rows - 1:
                    raise PlacementError(
                        "legalization failed: no row can accept cell "
                        f"{i} (width {width:.2f})")
                radius *= 2
        out[i, 0] = cursors[best_row] + width / 2.0
        out[i, 1] = floorplan.row_y(best_row)
        cursors[best_row] += width
    return out


def anneal(positions: np.ndarray, nets: Sequence[Sequence[int]],
           fixed: Sequence[Sequence[Point]], floorplan: Floorplan,
           moves: int = 20_000, seed: int = 0,
           start_temp: Optional[float] = None) -> np.ndarray:
    """:func:`repro.place.annealing.anneal`, re-measuring nets per pin."""
    n = positions.shape[0]
    if n < 2 or moves <= 0:
        return positions.copy()
    rng = random.Random(seed)
    pos = positions.astype(float).copy()

    # Incremental evaluation: nets touching each cell.
    nets_of: Dict[int, List[int]] = {}
    for net_id, movables in enumerate(nets):
        for cell in movables:
            nets_of.setdefault(cell, []).append(net_id)

    def net_len(net_id: int) -> float:
        movables = nets[net_id]
        pads = fixed[net_id]
        xs = [pos[i, 0] for i in movables] + [p[0] for p in pads]
        ys = [pos[i, 1] for i in movables] + [p[1] for p in pads]
        if len(xs) < 2:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    current = sum(net_len(i) for i in range(len(nets)))
    temp = start_temp if start_temp is not None \
        else current / max(1, len(nets)) or 1.0
    cooling = 0.98 ** (1.0 / max(1, moves // 100))
    for _ in range(moves):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        touched = sorted(set(nets_of.get(a, []) + nets_of.get(b, [])))
        before = sum(net_len(t) for t in touched)
        pos[[a, b]] = pos[[b, a]]
        after = sum(net_len(t) for t in touched)
        delta = after - before
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            current += delta
        else:
            pos[[a, b]] = pos[[b, a]]
        temp *= cooling
    return pos
