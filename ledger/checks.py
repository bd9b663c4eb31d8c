"""Output checks run after each op, outside its timed region.

Each check returns a list of failure messages (empty when the output is
right); a non-empty list fails the op.  A check failure is a finding
about the program and is reported as such, never retried.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List

import numpy as np

from repro.errors import ReproError
from repro.network.equiv import check_base_vs_mapped
from repro.place.legalize import check_legal


def route_recount(routing: Any) -> int:
    """Total track overflow rebuilt from the committed routes' edge ids.

    Independent of the router's own demand books: per-edge demand is
    re-accumulated from every net's committed edges.
    """
    grid = routing.grid
    ids = [grid.edge_ids(route.edges) for route in routing.routes.values()]
    ids = [arr for arr in ids if arr.size]
    if not ids:
        return 0
    demand = np.bincount(np.concatenate(ids), minlength=grid.num_edges)
    return int(np.maximum(demand - grid.capacity_flat, 0).sum())


def check_point(base: Any, point: Any, library: Any) -> List[str]:
    """Logic equivalence, route recount and placement legality of one
    evaluated K point."""
    errors: List[str] = []
    tag = f"K={point.k:g}"
    netlist = point.mapping.netlist
    try:
        check_base_vs_mapped(base, netlist, library)
    except ReproError as exc:
        errors.append(f"{tag}: mapped logic differs from base: {exc}")
    recount = route_recount(point.routing)
    if recount != point.routing.violations:
        errors.append(f"{tag}: route recount {recount} != reported "
                      f"violations {point.routing.violations}")
    placement = point.placement
    names = sorted(placement.positions)
    positions = np.array([placement.positions[n] for n in names],
                         dtype=float).reshape(-1, 2)
    widths = [library.cell_width(netlist.instances[n].cell_name)
              for n in names]
    try:
        check_legal(positions, widths, placement.floorplan)
    except ReproError as exc:
        errors.append(f"{tag}: illegal placement: {exc}")
    return errors


def check_points(pairs: List[Any], library: Any) -> List[str]:
    """:func:`check_point` over ``(base, point)`` pairs."""
    errors: List[str] = []
    for base, point in pairs:
        errors.extend(check_point(base, point, library))
    return errors


def digest(rows: Any) -> str:
    """Short sha256 of result rows in canonical JSON."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
