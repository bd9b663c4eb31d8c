"""Vectorized router vs per-edge oracle equivalence.

The vectorized router must be a pure speedup: on any net set it has to
report the same violations, overflowed-net count and wirelength as the
per-edge oracle of the identical algorithm (``tests/oracles/route.py``)
— uncongested and congested designs alike.
"""

import numpy as np
import pytest

from repro.place import Floorplan
from repro.route import (
    GlobalRouter,
    RoutingResources,
    victim_order,
)
from tests.oracles.route import route as oracle_route

FLOORPLAN = Floorplan(width=104.0, row_height=5.2, num_rows=20)

#: Ample and starved metal stacks: the second forces heavy negotiation.
AMPLE = RoutingResources()
STARVED = RoutingResources(metal_layers=2, derate=0.25, m1_usable=0.0)


def random_nets(seed, count, max_pins=5):
    rng = np.random.default_rng(seed)
    nets = {}
    for k in range(count):
        pins = [(float(rng.uniform(0, 104.0)), float(rng.uniform(0, 104.0)))
                for _ in range(int(rng.integers(2, max_pins + 1)))]
        nets[f"n{k}"] = pins
    return nets


def both(resources, nets, seed=0, max_iterations=6):
    """(router result, oracle result) for one net set."""
    router = GlobalRouter(FLOORPLAN, resources,
                          max_iterations=max_iterations, seed=seed)
    return router.route(nets), oracle_route(router, nets)


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("resources", [AMPLE, STARVED],
                             ids=["ample", "starved"])
    def test_random_net_sets_agree(self, seed, resources):
        """Property: router and oracle agree on every routing verdict."""
        nets = random_nets(seed, count=60 + 20 * seed)
        a, b = both(resources, nets, seed=seed)
        assert a.violations == b.violations
        assert a.overflowed_nets == b.overflowed_nets
        assert a.iterations == b.iterations
        assert a.total_wirelength == b.total_wirelength
        for name in nets:
            assert sorted(a.routes[name].edges) == \
                sorted(b.routes[name].edges), name
            assert [sorted(ids.tolist())
                    for ids in a.routes[name].seg_edge_ids] == \
                [sorted(ids.tolist())
                 for ids in b.routes[name].seg_edge_ids], name

    def test_multi_pin_and_degenerate_nets(self):
        nets = {
            "same_gcell": [(5.0, 5.0), (5.5, 5.5)],
            "single_pin": [(50.0, 50.0)],
            "straight": [(5.0, 50.0), (100.0, 50.0)],
            "fanout": [(5.0, 5.0), (90.0, 10.0), (50.0, 95.0), (10.0, 60.0)],
        }
        a, b = both(AMPLE, nets)
        assert a.violations == b.violations == 0
        assert a.total_wirelength == b.total_wirelength
        assert a.routes["same_gcell"].edges == []
        assert a.routes["single_pin"].edges == []

    def test_demand_books_match_routes(self):
        """Router and oracle keep demand == committed edges (incremental
        rip-up must never leak or double-count demand)."""
        nets = random_nets(3, count=120)
        for result in both(STARVED, nets, seed=3):
            total_edges = sum(len(r.edges) for r in result.routes.values())
            assert total_edges == int(result.grid.demand_flat.sum())


class TestRouterStats:
    def test_phase_stats_present(self):
        nets = random_nets(1, count=80)
        result = GlobalRouter(FLOORPLAN, STARVED,
                              max_iterations=6).route(nets)
        for key in ("route.t_init", "route.t_negotiate",
                    "route.nets_rerouted", "route.segments_rerouted"):
            assert key in result.stats
        assert result.stats["segments_rerouted"] >= \
            result.stats["nets_rerouted"] > 0

    def test_incremental_ripup_touches_fewer_segments(self):
        """Only segments crossing overflow are rerouted: nets far away
        from the hot spot must never be ripped up."""
        rng = np.random.default_rng(2)
        nets = {}
        for k in range(60):  # hot cluster crammed into one corner
            nets[f"hot{k}"] = [
                (float(rng.uniform(0, 20.0)), float(rng.uniform(0, 20.0)))
                for _ in range(2)]
        for k in range(40):  # cold nets along the far edge of the die
            nets[f"cold{k}"] = [
                (float(rng.uniform(80.0, 104.0)),
                 float(rng.uniform(80.0, 104.0))) for _ in range(2)]
        result = GlobalRouter(FLOORPLAN, STARVED,
                              max_iterations=6).route(nets)
        total_segments = sum(len(r.segments) for r in result.routes.values())
        assert result.iterations > 0
        assert result.stats["nets_rerouted"] > 0
        assert result.stats["segments_rerouted"] < \
            total_segments * result.iterations


class TestVictimOrdering:
    def test_seed_reaches_victim_order(self):
        orders = [victim_order(20, np.random.default_rng(seed)).tolist()
                  for seed in (0, 1)]
        assert orders[0] != orders[1]

    def test_routing_deterministic_per_seed(self):
        nets = random_nets(4, count=90)
        first = GlobalRouter(FLOORPLAN, STARVED, seed=5).route(nets)
        second = GlobalRouter(FLOORPLAN, STARVED, seed=5).route(nets)
        assert first.violations == second.violations
        assert first.total_wirelength == second.total_wirelength

    def test_engines_share_seeded_order(self):
        nets = random_nets(5, count=90)
        for seed in (0, 9):
            a, b = both(STARVED, nets, seed=seed)
            assert a.violations == b.violations
            assert a.total_wirelength == b.total_wirelength

