"""The layer ledger: one benchmark of the whole system, end to end and
layer by layer.

Run from the repository root::

    python3 ledger/run.py --workload fig3_flow --seed 0 --seconds 14 --trace 0

``--trace 0`` measures the end-to-end metrics with no timers installed;
``--trace 1`` makes one untraced and one traced pass over the same ops
and reports per-layer self times and work counts per op, plus the
tracing overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from typing import Any, Dict, List, Tuple

import hostspeed
from timers import Ledger, Patches

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER)
SRC = os.path.join(ROOT, "src")

#: What one set-up sample does: a fresh interpreter importing the
#: program and building its cell library, timed and probed from inside;
#: it prints its raw and scaled CPU seconds.
SETUP_CODE = """
import sys
sys.path.insert(0, {ledger!r})
import hostspeed
with hostspeed.Probe() as probe:
    start = hostspeed.cpu()
    import repro
    from repro.library import CORELIB018
    assert CORELIB018.cells()
    end = hostspeed.cpu()
print(end - start, (end - start) * probe.factor(start, end))
"""
SETUP_SAMPLES = 5


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"ledger: no program source at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"ledger: imported repro from {repro.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)
    # Load the package the way its CLI does: importing repro.place
    # first trips a circular import (a known program defect).
    import repro.core  # noqa: F401


def measure_setup() -> Tuple[float, float]:
    """Median raw and scaled CPU seconds of a fresh interpreter's
    set-up (one unmeasured sample first, so byte-code caches are
    written)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", SETUP_CODE.format(ledger=LEDGER)]
    samples = []
    for n in range(SETUP_SAMPLES + 1):
        done = subprocess.run(argv, env=env, cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True)
        if n:
            samples.append([float(x) for x in done.stdout.split()])
    raw, scaled = zip(*samples)
    return statistics.median(raw), statistics.median(scaled)


class Tally:
    """Op times, failures and result rows of one pass."""

    def __init__(self) -> None:  # noqa: D107
        self.spans: List[Tuple[float, float]] = []  # op start, end on cpu()
        self.raw: List[float] = []        # CPU seconds per op
        self.times: List[float] = []      # scaled CPU seconds per op
        self.factor = 1.0                 # the pass's host-speed factor
        self.failed = 0
        self.repeats = 0
        self.rows: List[Any] = []

    def time(self, start: float, end: float) -> None:
        """Record one op's span on the probe's CPU clock."""
        self.spans.append((start, end))
        self.raw.append(end - start)

    def scale(self, probe: hostspeed.Probe) -> None:
        """Scale every op by the host speed the probe saw around it."""
        self.times = [raw * probe.factor(start, end)
                      for raw, (start, end) in zip(self.raw, self.spans)]
        self.factor = probe.factor()

    def record(self, workload: Any, i: int, out: Any,
               errors: List[str]) -> None:
        """Record one op's outcome; ``errors`` fail it."""
        if out is not None:
            rows = workload.rows(out)
            if workload.block == 1 and self.rows and rows != self.rows[0]:
                errors.append("rows differ from the first op's")
            self.rows.append(rows)
        if errors:
            self.failed += 1
            for error in errors:
                sys.stderr.write(f"ledger: {workload.name} op {i}: "
                                 f"{error}\n")
        if workload.is_repeat(i):
            self.repeats += 1


def run_op(workload: Any, i: int, tally: Tally) -> None:
    """One timed op, then its untimed checks."""
    workload.prepare(i)
    out, errors = None, []
    start = hostspeed.cpu()
    try:
        out = workload.op(i)
    except Exception:  # an op that raises is a failed op, not a crash
        errors = ["raised " + traceback.format_exc()]
    tally.time(start, hostspeed.cpu())
    if out is not None:
        errors = workload.check(i, out)
    tally.record(workload, i, out, errors)


def measure(workload: Any, seconds: float) -> Tally:
    """A closed loop over as many whole blocks as take about ``seconds``
    at the reference speed, and, for job streams, enough jobs that ten
    lie beyond the 90th percentile.  The op count depends only on
    ``seconds``, so every run of one setting does the same work."""
    blocks = max(round(seconds / workload.block_s), workload.min_blocks)
    workload.session()
    tally = Tally()
    with hostspeed.Probe() as probe:
        for i in range(blocks * workload.block):
            run_op(workload, i, tally)
    tally.scale(probe)
    return tally


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally, setup_s: float) -> Dict[str, Tuple[float, str]]:
    times = tally.times
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (quantile(times, 90), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": ((len(times) - tally.failed) / len(times), "share"),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(ledger: Any, ops: int, speed: float, overhead: float,
              cache_delta: Dict, cache_bytes: int, repeat_share: float
              ) -> Dict[str, Tuple[float, str]]:
    """Per-op layer metrics; CPU seconds are scaled by ``speed``, the
    traced pass's host-speed factor."""
    layers = ledger.layers

    def per_op(value: float) -> float:
        return value / ops

    def s(name: str) -> float:
        return per_op(layers[name].self_s) * speed

    def calls(name: str) -> float:
        return per_op(layers[name].calls)

    def extra(name: str, key: str) -> float:
        return per_op(layers[name].extra.get(key, 0.0))

    out: Dict[str, Tuple[float, str]] = {
        "io.parse_blif.s": (s("io.parse_blif"), "s/op"),
        "network.decompose.s": (s("network.decompose"), "s/op"),
        "place.base.s": (s("place.base"), "s/op"),
        "core.partition.s": (s("core.partition"), "s/op"),
        "core.partition.trees": (extra("core.partition", "trees"), "count/op"),
        "core.match.s": (s("core.match"), "s/op"),
        "core.match.calls": (calls("core.match"), "count/op"),
        "core.match.hit_share": (_share(layers["core.match"].extra.get(
            "hits", 0.0), layers["core.match"].calls), "share"),
        "core.cover.s": (s("core.cover"), "s/op"),
        "core.cover.calls": (calls("core.cover"), "count/op"),
        "core.cover.memo_hits": (extra("core.map", "memo_hits"), "count/op"),
        "core.map.build_s": (s("core.map"), "s/op"),
        "core.k_points": (calls("core.k_point"), "count/op"),
        "place.cell.s": (s("place.cell"), "s/op"),
        "place.cell.calls": (calls("place.cell"), "count/op"),
        "route.s": (s("route"), "s/op"),
        "route.calls": (calls("route"), "count/op"),
        "route.init_s": (extra("route", "init_s") * speed, "s/op"),
        "route.negotiate_s": (extra("route", "negotiate_s") * speed, "s/op"),
        "route.iterations": (extra("route", "iterations"), "count/op"),
        "route.segments_rerouted": (extra("route", "segments_rerouted"),
                                    "count/op"),
        "route.nets_rerouted": (extra("route", "nets_rerouted"), "count/op"),
        "route.routes_reused": (extra("route", "routes_reused"), "count/op"),
        "timing.sta.s": (s("timing.sta"), "s/op"),
        "serve.job.s": (s("serve.job"), "s/op"),
    }
    for family in ("netlist", "layout", "matcher", "route_pool"):
        hits = cache_delta.get(f"{family}_hits", 0)
        misses = cache_delta.get(f"{family}_misses", 0)
        out[f"serve.cache.{family}.hit_share"] = (_share(hits, hits + misses),
                                                  "share")
    out["serve.cache_bytes"] = (float(cache_bytes), "bytes")
    out["serve.repeat_share"] = (repeat_share, "share")
    out["trace.overhead_share"] = (overhead, "share")
    return out


def _cache_counters(workload: Any) -> Dict[str, int]:
    engine = workload.engine
    return engine.caches.counters() if engine is not None else {}


def traced(workload: Any
           ) -> Tuple[Dict[str, Tuple[float, str]], Tally, Tally, List[str]]:
    """One untraced and one traced pass over the same ops (one block)."""
    workload.session()
    untimed = Tally()
    with hostspeed.Probe() as probe:
        for i in range(workload.block):
            run_op(workload, i, untimed)
    untimed.scale(probe)
    workload.session()
    timed = Tally()
    before = _cache_counters(workload)
    ledger = Ledger()
    patches = Patches()
    ledger.install(patches)
    try:
        with hostspeed.Probe() as probe:
            for i in range(workload.block):
                run_op(workload, i, timed)
    finally:
        patches.restore()
    timed.scale(probe)
    after = _cache_counters(workload)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    overhead = sum(timed.times) / sum(untimed.times) - 1.0
    metrics = per_layer(ledger, workload.block, timed.factor, overhead, delta,
                        after.get("cache_bytes", 0),
                        timed.repeats / workload.block)
    missing = [name for name in workload.layers
               if ledger.layers[name].calls == 0]
    errors = [f"self-test: no calls recorded for layer {name}"
              for name in missing]
    return metrics, untimed, timed, errors


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="op time to measure (--trace 0 only; a "
                             "traced run makes a fixed number of ops)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from checks import digest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(WORKLOADS)}")
    work_dir = os.path.join(LEDGER, "_work", str(os.getpid()))
    os.makedirs(work_dir)
    hooks = Patches()
    try:
        workload = WORKLOADS[args.workload](work_dir, args.seed)
        workload.install(hooks)
        run_errors: List[str] = []
        if args.trace:
            metrics, *passes, run_errors = traced(workload)
        else:
            setup_raw, setup_s = measure_setup()
            tally = measure(workload, args.seconds)
            passes = [tally]
            metrics = end_to_end(tally, setup_s)
            print(f"unscaled setup cpu_s {setup_raw:.4f}")
        run_errors += workload.setup_errors
    finally:
        hooks.restore()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    for error in run_errors:
        sys.stderr.write(f"ledger: {args.workload}: {error}\n")
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0]
    print(f"workload {args.workload} seed {args.seed} ops {attempted} "
          f"failed {failed} fail_share {failed / attempted:.4f} "
          f"rows_digest {digest(first.rows)}")
    print(f"unscaled op cpu_s: p50 {statistics.median(first.raw):.4f} "
          f"p90 {quantile(first.raw, 90):.4f} ops_per_s "
          f"{len(first.raw) / sum(first.raw):.4f}; host-speed factor "
          f"{first.factor:.3f}")
    if first.repeats:
        print(f"repeat_share {first.repeats / len(first.times):.4f}")
    for name, (value, unit) in metrics.items():
        kind = "count" if unit.startswith("count") else "measure"
        print(f"  {name:28s} {value:14.6g} {unit:9s} {kind}")
    result = {
        "correct": failed == 0 and not run_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
