"""Tests for congestion-map artifacts (CSV + ASCII heatmaps)."""

import numpy as np

from repro.io import (
    congestion_map_csv,
    congestion_map_text,
    write_congestion_artifacts,
)
from repro.place import Floorplan
from repro.route import GlobalRouter, RoutingResources


AMPLE = RoutingResources()
STARVED = RoutingResources(metal_layers=2, derate=0.25, m1_usable=0.0)


def _routed(resources=AMPLE, count=30, seed=0):
    floorplan = Floorplan(width=104.0, row_height=5.2, num_rows=20)
    router = GlobalRouter(floorplan, resources, max_iterations=4)
    rng = np.random.default_rng(seed)
    nets = {f"n{i}": [(float(rng.uniform(0, 104.0)),
                       float(rng.uniform(0, 104.0))) for _ in range(2)]
            for i in range(count)}
    return router.route(nets)


class TestCsv:
    def test_covers_every_gcell(self):
        result = _routed()
        grid = result.grid
        lines = congestion_map_csv(grid).strip().split("\n")
        assert lines[0] == "x,y,utilization,overflow"
        assert len(lines) == 1 + grid.nx * grid.ny
        x, y, util, over = lines[1].split(",")
        assert (int(x), int(y)) == (0, 0)
        assert float(util) >= 0.0
        assert int(over) >= 0

    def test_overflow_column_reflects_congestion(self):
        congested = _routed(resources=STARVED, count=120)
        assert congested.violations > 0
        rows = congestion_map_csv(congested.grid).strip().split("\n")[1:]
        assert any(int(row.split(",")[3]) > 0 for row in rows)


class TestAsciiRendering:
    def test_header_and_shape(self):
        result = _routed()
        text = congestion_map_text(result.grid, title="K=0")
        lines = text.split("\n")
        assert lines[0] == "K=0"
        assert "overflow=" in lines[1]
        heat = lines[2:]
        assert len(heat) == result.grid.ny
        assert all(len(row) == result.grid.nx for row in heat)


class TestWriteArtifacts:
    def test_one_pair_per_routed_point(self, tmp_path):
        class Point:
            def __init__(self, k, routing):
                self.k = k
                self.routing = routing

        points = [Point(0.0, _routed(seed=1)),
                  Point(0.0025, _routed(seed=2)),
                  Point(0.01, None)]  # unrouted points are skipped
        written = write_congestion_artifacts(points, str(tmp_path / "art"))
        assert len(written) == 4
        names = sorted(p.rsplit("/", 1)[1] for p in written)
        assert names == ["congestion_00_k0.csv", "congestion_00_k0.txt",
                         "congestion_01_k0p0025.csv",
                         "congestion_01_k0p0025.txt"]
        for path in written:
            assert open(path).read().strip()
