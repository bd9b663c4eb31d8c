"""Placement, matching & covering kernels — vectorized vs oracles.

The placement stack (quadratic seed, spreading, legalization,
annealing) and the tree-covering DP run flat numpy kernels, and the
pattern matcher runs compiled, hash-consed patterns; the simpler
algorithms they replaced live on as the oracles in ``tests/oracles/``.
This bench runs the full map-and-place pipeline on the kernels and on
the oracles (the ``reference`` columns) at growing scales, asserts the
results are bit-identical, and records the per-phase timing breakdown
to ``BENCH_placement.json``.  A matching column enumerates every
(vertex, tree) of the same placement partition on a fresh compiled
matcher and on the recursive oracle, asserting identical lists.

The acceptance floor applies to the *combined* placement + covering
time at the largest scale — the quantity the Figure-3 K-loop actually
pays once per K point.  The match memo is pre-warmed before timing,
the way a K sweep sees it (every K after the first hits the match
memo); each pass gets an empty cover memo, so the DP itself runs.

Full mode also records the cold map (fresh matcher: matching, covering
and netlist build) in ms per base vertex from spla@0.125 to spla@1.0 —
flat is linear scaling.
"""

import os
import time

import pytest

from bench_common import write_bench_json
from conftest import publish
from repro.circuits import spla_like
from repro.core import (CoverMemo, Matcher, area_congestion, map_network,
                        partition)
from repro.io import format_table
from repro.library import CORELIB018
from repro.network import decompose
from repro.place import Floorplan, place_base_network
from repro.place.placer import place_netlist
from tests.oracles import match as match_oracle
from tests.oracles import on_oracles

SCALES = [0.03, 0.06, 0.125]

#: Cold-map scaling points of the full mode.
COLD_MAP_SCALES = [0.125, 0.5, 1.0]

#: Anneal budget per place_netlist call — enough for the cached-HPWL
#: incremental evaluation to dominate the anneal cost.
ANNEAL_MOVES = 4000

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Full-run acceptance: combined placement + covering on the vector
#: kernels must at least halve the oracles' cost at the largest scale.
PLACEMENT_SPEEDUP_FLOOR = 2.0

_cache = {}


def _floorplan(base):
    return Floorplan.for_area(base.num_gates() * 12.0 / 0.35, aspect=1.0)


def _listing(matches):
    return [[(m.cell.name, m.phase, m.leaves, list(m.consumed))
             for m in matches[phase]] for phase in (True, False)]


def _match_column(base, positions):
    """Every (vertex, tree) query on a fresh compiled matcher and on the
    recursive oracle; returns the two times after asserting equal lists."""
    part = partition(base, "placement", positions=positions)
    queries = [(v, part.trees[r].members) for r in part.roots
               for v in sorted(part.trees[r].members)]
    matcher = Matcher(base, CORELIB018)
    t0 = time.perf_counter()
    got = [matcher.matches_in_tree(v, members) for v, members in queries]
    t_vector = time.perf_counter() - t0
    t0 = time.perf_counter()
    want = [match_oracle.matches_at(matcher, v, members.__contains__)
            for v, members in queries]
    t_reference = time.perf_counter() - t0
    assert all(_listing(a) == _listing(b) for a, b in zip(got, want))
    return t_vector, t_reference


def _cold_map(scale):
    """One cold map (fresh matcher) at ``scale``, in ms per base vertex."""
    base = decompose(spla_like(scale))
    positions = place_base_network(base, _floorplan(base))
    t0 = time.perf_counter()
    map_network(base, CORELIB018, area_congestion(0.001),
                partition_style="placement", positions=positions)
    t_map = time.perf_counter() - t0
    return {"scale": scale, "vertices": base.num_vertices(),
            "t_map": t_map,
            "ms_per_vertex": 1000.0 * t_map / base.num_vertices()}


def _run_pass(base, floorplan, matcher):
    """One full mapping + placement pass; returns results and timings."""
    # A warm cover memo would replay the pre-warm's covers instead of
    # running the DP this pass is meant to time.
    matcher.cover_memo = CoverMemo()
    timings = {}
    t0 = time.perf_counter()
    positions = place_base_network(base, floorplan, timings=timings)
    t_place_ti = time.perf_counter() - t0

    t0 = time.perf_counter()
    mapping = map_network(base, CORELIB018, area_congestion(0.001),
                          partition_style="placement", positions=positions,
                          matcher=matcher)
    t_map = time.perf_counter() - t0

    t0 = time.perf_counter()
    placement = place_netlist(mapping.netlist, CORELIB018, floorplan,
                              anneal_moves=ANNEAL_MOVES, timings=timings)
    t_place_cells = time.perf_counter() - t0

    t_dp = float(mapping.stats.get("cover.t_dp", 0.0))
    return {
        "positions": positions.as_points(),
        "cells": sorted((i.cell_name, tuple(sorted(i.pins.items())),
                         i.output)
                        for i in mapping.netlist.instances.values()),
        "placed": placement.positions,
        "total": t_place_ti + t_dp + t_place_cells,
        "t_place_ti": t_place_ti,
        "t_map": t_map,
        "t_dp": t_dp,
        "t_place_cells": t_place_cells,
        "phases": dict(timings),
    }


def run_placement_engines():
    if "rows" in _cache:
        return _cache["rows"]
    scales = SCALES[:1] if SMOKE else SCALES
    rows = []
    for scale in scales:
        base = decompose(spla_like(scale))
        floorplan = _floorplan(base)
        positions = place_base_network(base, floorplan)
        t_match_vector, t_match_reference = _match_column(base, positions)
        # One shared matcher, pre-warmed: K-sweep reality is a hot
        # match memo, so the DP timing isolates covering, not matching.
        matcher = Matcher(base, CORELIB018)
        map_network(base, CORELIB018, area_congestion(0.001),
                    partition_style="placement", positions=positions,
                    matcher=matcher)

        vec = _run_pass(base, floorplan, matcher)
        ref = on_oracles(_run_pass, base, floorplan, matcher)

        # Equivalence gate: kernels and oracles agree bitwise end to end.
        assert vec["positions"] == ref["positions"]
        assert vec["cells"] == ref["cells"]
        assert vec["placed"] == ref["placed"]

        rows.append({
            "scale": scale,
            "gates": base.num_gates(),
            "cells": len(vec["cells"]),
            "t_vector": vec["total"],
            "t_reference": ref["total"],
            "speedup": ref["total"] / max(vec["total"], 1e-9),
            "t_match_vector": t_match_vector,
            "t_match_reference": t_match_reference,
            "match_speedup": t_match_reference / max(t_match_vector, 1e-9),
            "vector_phases": {
                "t_place_ti": vec["t_place_ti"],
                "t_dp": vec["t_dp"],
                "t_place_cells": vec["t_place_cells"],
                **{f"place.{k}": v for k, v in vec["phases"].items()},
            },
            "reference_phases": {
                "t_place_ti": ref["t_place_ti"],
                "t_dp": ref["t_dp"],
                "t_place_cells": ref["t_place_cells"],
                **{f"place.{k}": v for k, v in ref["phases"].items()},
            },
        })
    _cache["rows"] = rows
    _cache["cold_map"] = [] if SMOKE else [_cold_map(scale)
                                           for scale in COLD_MAP_SCALES]
    return rows


def test_placement_engines(benchmark):
    """Vectorized placement + covering speedup over the scalar oracles."""
    rows = benchmark.pedantic(run_placement_engines, rounds=1, iterations=1)
    table = format_table(
        ["scale", "gates", "cells", "vector (s)",
         "ti-place/DP/cell-place (s)", "reference (s)", "speedup",
         "match vector/reference (s)"],
        [(f"{r['scale']:g}", r["gates"], r["cells"],
          f"{r['t_vector']:.3f}",
          f"{r['vector_phases']['t_place_ti']:.3f}/"
          f"{r['vector_phases']['t_dp']:.3f}/"
          f"{r['vector_phases']['t_place_cells']:.3f}",
          f"{r['t_reference']:.3f}", f"{r['speedup']:.1f}x",
          f"{r['t_match_vector']:.3f}/{r['t_match_reference']:.3f}")
         for r in rows],
        title="Placement, matching & covering kernels - vectorized vs "
              f"oracles ({'smoke' if SMOKE else 'full'} mode; "
              "bit-identical results asserted per scale)")
    cold_map = _cache["cold_map"]
    if cold_map:
        table += "\n\n" + format_table(
            ["scale", "base vertices", "cold map (s)", "ms/vertex"],
            [(f"{c['scale']:g}", c["vertices"], f"{c['t_map']:.2f}",
              f"{c['ms_per_vertex']:.3f}") for c in cold_map],
            title="Cold map scaling (fresh matcher, K=0.001, placement "
                  "partition)")
    publish("placement_engines", table)

    payload = {
        "mode": "smoke" if SMOKE else "full",
        "speedup_floor": None if SMOKE else PLACEMENT_SPEEDUP_FLOOR,
        "anneal_moves": ANNEAL_MOVES,
        "rows": rows,
        "cold_map": cold_map,
    }
    write_bench_json("placement", payload)

    assert all(r["t_vector"] > 0 and r["t_reference"] > 0 for r in rows)
    if not SMOKE:
        largest = rows[-1]
        assert largest["speedup"] >= PLACEMENT_SPEEDUP_FLOOR, \
            (f"vector kernels only {largest['speedup']:.1f}x over the "
             f"oracles at scale {largest['scale']:g} "
             f"(floor {PLACEMENT_SPEEDUP_FLOOR:.0f}x)")
