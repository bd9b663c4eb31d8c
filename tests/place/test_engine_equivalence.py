"""Vectorized placement/covering kernels vs their scalar oracles.

The batched kernels of the flat-array placement stack — sparse
quadratic assembly, level-synchronous spreading, fast legalization,
cached-HPWL annealing — and the array covering DP must all be pure
speedups: on any input they produce *bit-identical* results to the
scalar oracles in ``tests/oracles/``.  These tests pin that contract at
every level: kernel, placer, covering DP, and full flow (serial and
process fan-out).
"""

import random

import numpy as np
import pytest

from repro.circuits import spla_like
from repro.core import (
    BoundaryInfo,
    Matcher,
    PositionMap,
    area_congestion,
    cover_tree,
    dagon_partition,
    k_sweep,
    map_network,
    min_area,
)
from repro.core.flow import FlowConfig
from repro.library import CORELIB018
from repro.network import decompose
from repro.network.dag import BaseNetwork
from repro.place import Floorplan
from repro.place.annealing import anneal
from repro.place.legalize import check_legal, legalize_rows
from repro.place.placer import place_base_network, place_netlist
from repro.place.quadratic import QpNet, solve_quadratic
from repro.place.spreading import spread
from tests.oracles import cover, on_oracles, oracle_engines  # noqa: F401
from tests.oracles import place as oracle

FLOORPLANS = [
    Floorplan(width=104.0, row_height=5.2, num_rows=20),
    Floorplan(width=62.4, row_height=5.2, num_rows=12),
]


def random_qp_nets(seed, count, num_movable, max_degree=10):
    """Random nets spanning cliques, stars and duplicate pins."""
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(count):
        degree = int(rng.integers(2, max_degree + 1))
        movables = [int(v) for v in rng.integers(0, num_movable, degree)]
        if rng.random() < 0.3:          # duplicate pins on purpose
            movables.append(movables[0])
        fixed = [(float(rng.uniform(0, 100.0)), float(rng.uniform(0, 100.0)))
                 for _ in range(int(rng.integers(0, 3)))]
        if len(movables) + len(fixed) < 2:
            continue
        nets.append(QpNet(movables=movables, fixed=fixed))
    return nets


def random_positions(seed, n, floorplan):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, floorplan.width, n),
                            rng.uniform(0, floorplan.height, n)])


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_quadratic_assembly(self, seed):
        """COO assembly order reproduction: solutions match bitwise."""
        num_movable = 40 + 30 * seed
        nets = random_qp_nets(seed, count=80 + 40 * seed,
                              num_movable=num_movable)
        ref = oracle.solve_quadratic(num_movable, nets)
        vec = solve_quadratic(num_movable, nets)
        assert np.array_equal(ref, vec)

    def test_quadratic_star_only_and_clique_only(self):
        """Degenerate mixes: all-star and all-clique net sets."""
        stars = [QpNet(movables=list(range(k, k + 9)), fixed=[])
                 for k in range(0, 27, 9)]
        cliques = [QpNet(movables=[k, k + 1], fixed=[(1.0 * k, 2.0 * k)])
                   for k in range(30)]
        for nets in (stars, cliques, stars + cliques):
            ref = oracle.solve_quadratic(36, nets)
            vec = solve_quadratic(36, nets)
            assert np.array_equal(ref, vec)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("floorplan", FLOORPLANS,
                             ids=["20rows", "12rows"])
    def test_spreading(self, seed, floorplan):
        n = 5 + 120 * seed
        pos = random_positions(seed, n, floorplan)
        weights = np.random.default_rng(seed + 99).uniform(0.5, 4.0, n)
        for w in (None, weights):
            ref = oracle.spread(pos, floorplan, weights=w)
            vec = spread(pos, floorplan, weights=w)
            assert np.array_equal(ref, vec)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("floorplan", FLOORPLANS,
                             ids=["20rows", "12rows"])
    def test_legalize(self, seed, floorplan):
        rng = np.random.default_rng(seed)
        capacity = floorplan.width * floorplan.num_rows
        n = min(40 + 60 * seed, int(capacity / 5.5))
        pos = random_positions(seed, n, floorplan)
        widths = rng.choice([2.4, 3.6, 4.8], n)
        ref = oracle.legalize_rows(pos, widths, floorplan)
        vec = legalize_rows(pos, widths, floorplan)
        assert np.array_equal(ref, vec)
        check_legal(vec, widths, floorplan)

    @pytest.mark.parametrize("seed", range(3))
    def test_anneal(self, seed):
        """Same RNG stream, same accept/reject stream, same swaps."""
        floorplan = FLOORPLANS[0]
        rng = np.random.default_rng(seed)
        n = 30 + 40 * seed
        pos = random_positions(seed, n, floorplan)
        nets = [[int(v) for v in rng.integers(0, n, int(rng.integers(1, 7)))]
                for _ in range(2 * n)]
        fixed = [[(float(rng.uniform(0, 104.0)), float(rng.uniform(0, 104.0)))
                  for _ in range(int(rng.integers(0, 3)))]
                 for _ in range(2 * n)]
        ref = oracle.anneal(pos, nets, fixed, floorplan, moves=1500,
                            seed=seed)
        vec = anneal(pos, nets, fixed, floorplan, moves=1500, seed=seed)
        assert np.array_equal(ref, vec)


def random_tree_network(seed, size=16):
    """A random NAND2/INV base network (several subject trees)."""
    rng = random.Random(seed)
    net = BaseNetwork(f"rand{seed}")
    frontier = [net.add_input(f"i{k}") for k in range(5)]
    for _ in range(size):
        if rng.random() < 0.35:
            v = net.add_inv(rng.choice(frontier))
        else:
            v = net.add_nand2(rng.choice(frontier), rng.choice(frontier))
        frontier.append(v)
    for k, v in enumerate(frontier[-3:]):
        net.set_output(f"o{k}", v)
    return net


def solution_key(sol):
    """Every decision-relevant field of a covering Solution."""
    return (sol.cost, sol.area, sol.wire1, sol.wire, sol.wire_transitive,
            sol.arrival, sol.com,
            None if sol.match is None else
            (sol.match.cell.name, sol.match.root, sol.match.phase,
             tuple(sol.match.leaves)),
            sol.inv_source_phase)


class TestCoveringEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0.0, 0.001, 0.05])
    def test_random_trees_bitwise(self, seed, k):
        """Per-(vertex, phase) solutions agree bitwise on random trees."""
        base = random_tree_network(seed)
        part = dagon_partition(base)
        matcher = Matcher(base, CORELIB018)
        rng = np.random.default_rng(seed)
        positions = PositionMap(
            [(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
             for _ in range(base.num_vertices())])
        objective = area_congestion(k) if k else min_area()
        boundary = BoundaryInfo(positions)
        for root in part.roots:
            ref = cover.cover_tree(base, part.trees[root], matcher,
                                   CORELIB018, objective, boundary,
                                   part.materialized)
            vec = cover_tree(base, part.trees[root], matcher, CORELIB018,
                             objective, boundary, part.materialized)
            assert set(ref.solutions) == set(vec.solutions)
            for key in ref.solutions:
                assert solution_key(ref.solutions[key]) == \
                    solution_key(vec.solutions[key]), key

    @pytest.mark.parametrize("k", [0.0, 0.01])
    def test_mapper_end_to_end(self, k):
        """map_network on the oracles emits the identical netlist."""
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(16)
        positions = place_base_network(base, floorplan)
        args = (base, CORELIB018, area_congestion(k))
        kwargs = dict(partition_style="placement", positions=positions)
        vec = map_network(*args, **kwargs)
        ref = on_oracles(map_network, *args, **kwargs)
        assert vec.netlist.num_cells() == ref.netlist.num_cells()
        assert sorted((i.cell_name, tuple(sorted(i.pins.items())), i.output)
                      for i in vec.netlist.instances.values()) == \
            sorted((i.cell_name, tuple(sorted(i.pins.items())), i.output)
                   for i in ref.netlist.instances.values())
        assert vec.estimated_wirelength == ref.estimated_wirelength
        assert vec.instance_positions == ref.instance_positions


class TestPlacementEquivalence:
    @pytest.fixture(scope="class")
    def netlist(self):
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(16)
        positions = place_base_network(base, floorplan)
        result = map_network(base, CORELIB018, area_congestion(0.001),
                             partition_style="placement",
                             positions=positions)
        return result.netlist

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rows", [16, 18])
    def test_place_netlist_bitwise(self, netlist, seed, rows):
        floorplan = Floorplan.from_rows(rows)
        ref = on_oracles(place_netlist, netlist, CORELIB018, floorplan,
                         seed=seed)
        vec = place_netlist(netlist, CORELIB018, floorplan, seed=seed)
        assert ref.positions == vec.positions
        assert ref.pads == vec.pads

    def test_place_netlist_with_anneal(self, netlist):
        floorplan = Floorplan.from_rows(16)
        ref = on_oracles(place_netlist, netlist, CORELIB018, floorplan,
                         anneal_moves=800)
        vec = place_netlist(netlist, CORELIB018, floorplan,
                            anneal_moves=800)
        assert ref.positions == vec.positions

    def test_place_base_network_bitwise(self):
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(16)
        ref = on_oracles(place_base_network, base, floorplan)
        vec = place_base_network(base, floorplan)
        assert ref.as_points() == vec.as_points()

    def test_timings_recorded(self, netlist):
        floorplan = Floorplan.from_rows(16)
        timings = {}
        place_netlist(netlist, CORELIB018, floorplan, anneal_moves=100,
                      timings=timings)
        assert timings.keys() >= {"t_quadratic", "t_mincut", "t_legalize",
                                  "t_anneal"}
        assert all(t >= 0.0 for t in timings.values())


class TestFlowEquivalence:
    K_VALUES = [0.0, 0.001, 0.01]

    def _sweep(self, workers=1):
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(18)
        config = FlowConfig(library=CORELIB018, workers=workers)
        points = k_sweep(base, floorplan, config, k_values=self.K_VALUES)
        return [(p.row(), p.hpwl, p.routed_wirelength) for p in points]

    def test_flow_engines_agree_serial(self):
        assert self._sweep() == on_oracles(self._sweep)

    def test_flow_engines_agree_parallel(self):
        """Serial vs ``--workers 4`` fan-out."""
        assert self._sweep() == self._sweep(workers=4)

    def test_flow_reference_parallel(self, oracle_engines):
        """The oracles survive the process pool too (forked workers
        inherit the rebinding)."""
        assert self._sweep() == self._sweep(workers=4)
