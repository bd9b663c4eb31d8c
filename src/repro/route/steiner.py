"""Net topology generation: MST decomposition into two-pin segments.

Multi-pin nets are decomposed into two-pin connections along a
rectilinear minimum spanning tree (Prim).  An RMST is within 1.5× of
the optimal rectilinear Steiner tree and is the standard global-routing
decomposition; the congestion *trends* the benches assert are
insensitive to the Steiner gap.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

Point = Tuple[float, float]
GCell = Tuple[int, int]


def manhattan(a: Sequence[float], b: Sequence[float]) -> float:
    """Manhattan distance."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def mst_segments(points: Sequence[GCell]) -> List[Tuple[GCell, GCell]]:
    """Prim MST over GCells; returns two-pin segments (deduplicated).

    Degenerate nets (zero or one distinct point) return no segments.
    """
    unique = sorted(set(points))
    n = len(unique)
    if n < 2:
        return []
    xs = np.asarray([p[0] for p in unique], dtype=float)
    ys = np.asarray([p[1] for p in unique], dtype=float)
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_parent = np.full(n, -1, dtype=int)
    in_tree[0] = True
    dist0 = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
    best_dist = np.minimum(best_dist, dist0)
    best_parent[dist0 <= best_dist] = 0
    best_dist[0] = np.inf
    segments: List[Tuple[GCell, GCell]] = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best_dist)
        nxt = int(np.argmin(masked))
        parent = int(best_parent[nxt])
        segments.append((unique[parent], unique[nxt]))
        in_tree[nxt] = True
        dist = np.abs(xs - xs[nxt]) + np.abs(ys - ys[nxt])
        improved = (~in_tree) & (dist < best_dist)
        best_dist[improved] = dist[improved]
        best_parent[improved] = nxt
    return segments


def hpwl_of_points(points: Sequence[Point]) -> float:
    """Half-perimeter bounding box of a point set."""
    if len(points) < 2:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))
