"""Adaptive K search — grid vs bisect vs portfolio.

The Tables 2/4 sweeps evaluate every K of the paper's grid; when only
the minimum routable K is wanted, :func:`repro.core.k_search` brackets
the routable window instead.  This bench runs all three strategies on
the calibrated marginal dies and asserts the ISSUE 7 acceptance:

* every strategy returns the *same* minimum routable K as the
  exhaustive ascending grid scan,
* the adaptive strategies (bisect, portfolio) need at most half the
  grid's evaluations on the Table 2/4 dies (full mode),
* every evaluated point reports a row bit-identical to the other
  strategies' evaluation of the same K, and a parallel sweep matches
  the serial sweep row for row.

Smoke mode (``REPRO_BENCH_SMOKE=1``) runs the small CI die only
(spla@0.06 on 20 rows, the figure-3 CLI calibration die) and skips the
evaluation-budget floor; full mode runs the Table 2 SPLA and Table 4
PDC dies.  Results go to ``BENCH_ksearch.json``.
"""

import os

from bench_common import write_bench_json
from conftest import (
    PDC_ROWS,
    ROUTABLE_TOLERANCE,
    SCALE,
    SPLA_ROWS,
    _setup,
    publish,
)
from repro.circuits import pdc_like, spla_like
from repro.core import k_search, k_sweep
from repro.core.flow import PAPER_K_VALUES
from repro.core.ksearch import BISECT, GRID, PORTFOLIO
from repro.io import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Round width for the portfolio strategy (and pool fan-out).
WORKERS = 4

#: Full-run acceptance: the adaptive strategies must close in at most
#: this fraction of the grid (ISSUE 7 tentpole criterion).
EVAL_BUDGET = 0.5

#: The serial-vs-parallel identity check sweeps these K values twice.
IDENTITY_K = [0.0, 0.001, 0.01]

_cache = {}


def _setups():
    if SMOKE:
        return [_setup("SPLA@0.06", spla_like(0.06), 20)]
    return [_setup("SPLA", spla_like(SCALE), SPLA_ROWS),
            _setup("PDC", pdc_like(SCALE), PDC_ROWS)]


def run_ksearch():
    if "rows" in _cache:
        return _cache["rows"], _cache["identity"]
    rows = []
    for setup in _setups():
        by_strategy = {}
        for strategy in (GRID, BISECT, PORTFOLIO):
            result = k_search(setup.base, setup.floorplan, setup.config,
                              k_values=PAPER_K_VALUES,
                              positions=setup.positions,
                              strategy=strategy,
                              tolerance=ROUTABLE_TOLERANCE,
                              workers=WORKERS)
            by_strategy[strategy] = result
            rows.append({
                "circuit": setup.name,
                "strategy": strategy,
                "chosen_k": result.chosen_k,
                "verdict": result.verdict,
                "evaluations": result.evaluations,
                "grid_points": len(result.k_grid),
                "eval_ratio": result.evaluations / len(result.k_grid),
                "evaluated": [p.row() for p in result.table_points()],
            })
        # Acceptance: one minimum, whatever the strategy.
        chosen = {s: r.chosen_k for s, r in by_strategy.items()}
        assert None not in chosen.values(), \
            f"{setup.name}: no routable K found ({chosen})"
        assert len(set(chosen.values())) == 1, \
            f"{setup.name}: strategies disagree on the minimum ({chosen})"
        # Acceptance: commonly probed points report identical rows.
        tables = {s: {p.k: (p.row(), p.routed_wirelength)
                      for p in r.evaluated}
                  for s, r in by_strategy.items()}
        for s in (BISECT, PORTFOLIO):
            for k in set(tables[GRID]) & set(tables[s]):
                assert tables[s][k] == tables[GRID][k], \
                    f"{setup.name}: {s} row at K={k} differs from grid's"

    # Parallel sweep ≡ serial sweep, row for row.
    setup = _setups()[0]
    serial = k_sweep(setup.base, setup.floorplan, setup.config,
                     k_values=IDENTITY_K, positions=setup.positions,
                     workers=1)
    parallel = k_sweep(setup.base, setup.floorplan, setup.config,
                       k_values=IDENTITY_K, positions=setup.positions,
                       workers=2)
    identity = {
        "circuit": setup.name,
        "k_values": IDENTITY_K,
        "workers": 2,
        "serial_rows": [p.row() for p in serial],
        "parallel_rows": [p.row() for p in parallel],
        "matches": [p.row() for p in serial] == [p.row() for p in parallel],
    }
    assert identity["matches"], \
        "parallel sweep rows differ from the serial sweep"

    _cache["rows"] = rows
    _cache["identity"] = identity
    return rows, identity


def test_ksearch_strategies(benchmark):
    """Minimum-K agreement and evaluation budget across strategies."""
    rows, identity = benchmark.pedantic(run_ksearch, rounds=1, iterations=1)
    table = format_table(
        ["circuit", "strategy", "min routable K", "evaluations",
         "grid", "ratio"],
        [(r["circuit"], r["strategy"], f"{r['chosen_k']:g}",
          r["evaluations"], r["grid_points"], f"{r['eval_ratio']:.0%}")
         for r in rows],
        title=("Adaptive K search - grid vs bisect vs portfolio "
               f"({'smoke' if SMOKE else 'full'} mode, tolerance "
               f"{ROUTABLE_TOLERANCE}, portfolio width {WORKERS})"))
    publish("ksearch_strategies", table)

    payload = {
        "mode": "smoke" if SMOKE else "full",
        "tolerance": ROUTABLE_TOLERANCE,
        "workers": WORKERS,
        "eval_budget": None if SMOKE else EVAL_BUDGET,
        "k_grid": list(PAPER_K_VALUES),
        "rows": rows,
        "identity": identity,
    }
    write_bench_json("ksearch", payload)

    for r in rows:
        if r["strategy"] == GRID:
            continue
        if SMOKE:
            # The small die still has to beat the scan it replaces.
            assert r["evaluations"] < r["grid_points"]
        else:
            assert r["eval_ratio"] <= EVAL_BUDGET, \
                (f"{r['circuit']}: {r['strategy']} needed "
                 f"{r['evaluations']}/{r['grid_points']} evaluations "
                 f"(budget {EVAL_BUDGET:.0%})")
