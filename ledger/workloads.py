"""The three ledger workloads: fig3_flow, ksweep_spla and serve_mixed.

Every workload is closed-loop with one client: the next op starts when
the previous one returns.  Ops come in blocks of ``block`` ops that take
about ``block_s`` scaled CPU seconds; a run makes at least
``min_blocks`` blocks.  ``layers`` names the wrapped calls an op must
reach.  A workload exposes

* ``install(patches)`` — hooks the output checks need, kept for the run;
* ``session()`` — untimed set-up of whatever an op reads (for
  ``serve_mixed`` a fresh engine with its template caches warmed);
* ``prepare(i)`` — untimed generation of op ``i``'s input;
* ``op(i)`` — the timed call into the program;
* ``check(i, out)`` — untimed output checks, a list of failure messages;
* ``rows(out)`` — the op's result rows, for the run digest.

All calls into the program go through module attributes (``placer.
place_base_network``, not a name bound at import) so the ledger's
timers see them.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Tuple

import repro.circuits as circuits
import repro.core.flow as flow
import repro.io as rio
import repro.network as network
import repro.place.placer as placer
from repro.core import FlowConfig
from repro.library import CORELIB018
from repro.place import Floorplan
from repro.serve import ServeEngine
from repro.serve.jobs import parse_jobs

from checks import check_points
from timers import Patches, capture_points

#: ``FlowConfig.seed`` of the paper workloads.  Their dies are calibrated
#: for this placement/routing seed: at others the 32-row Figure 3 die
#: stops converging (14 K points instead of 2) and the op cost moves by
#: up to 8x, so the ledger keeps it fixed.
FLOW_SEED = 0

#: Figure 3 on the calibrated marginal SPLA die.
FIG3_SCALE, FIG3_ROWS, FIG3_TOLERANCE = 0.125, 32, 6
#: (K, violations) of the calibrated Figure 3 history, verdict converged.
FIG3_HISTORY = [(0.0, 8), (0.0001, 6)]

#: Table 2 on spla@0.06, 20 rows.
SWEEP_SCALE, SWEEP_ROWS = 0.06, 20
SWEEP_VIOLATIONS = [34] + [25] * 11 + [1, 100]


class Workload:
    """Defaults for workloads whose ops are independent one-shot calls."""

    block = 1
    min_blocks = 1
    engine = None       # the ServeEngine of workloads that keep one
    setup_errors: Tuple[str, ...] = ()

    def install(self, patches: Patches) -> None:
        """Results come back whole; nothing to capture."""

    def session(self) -> None:
        """Nothing outlives an op."""

    def prepare(self, i: int) -> None:
        """Ops take no per-op input."""

    def is_repeat(self, i: int) -> bool:
        """Whether op ``i`` repeats an earlier request."""
        return False


class Fig3Flow(Workload):
    """One op is a one-shot cold Figure 3 run plus Table 3 STA."""

    name = "fig3_flow"
    #: Wrapped layers an op must call (the traced run's self-test).
    layers = ("io.parse_blif", "network.decompose", "place.base",
              "core.partition", "core.match", "core.cover", "core.map",
              "core.k_point", "place.cell", "route", "timing.sta")
    block_s = 6.0       # scaled CPU seconds of one block of ops

    def __init__(self, work_dir: str, seed: int):  # noqa: D107
        self.blif = os.path.join(work_dir, f"spla_{FIG3_SCALE:g}.blif")
        with open(self.blif, "w") as handle:
            handle.write(rio.dump_blif(circuits.spla_like(FIG3_SCALE)))
        self.config = FlowConfig(library=CORELIB018, seed=FLOW_SEED)

    def op(self, i: int) -> Dict[str, Any]:
        with open(self.blif) as handle:
            text = handle.read()
        base = network.decompose(rio.parse_blif(text))
        floorplan = Floorplan.from_rows(FIG3_ROWS, aspect=1.0)
        positions = placer.place_base_network(base, floorplan,
                                              seed=self.config.seed)
        result = flow.congestion_aware_flow(
            base, floorplan, self.config, positions=positions,
            tolerance=FIG3_TOLERANCE)
        report = (flow.timing_of_point(result.chosen, self.config)
                  if result.chosen is not None else None)
        return {"base": base, "flow": result, "sta": report}

    def rows(self, out: Dict[str, Any]) -> Any:
        result, report = out["flow"], out["sta"]
        return {"rows": [list(p.row()) for p in result.history],
                "verdict": result.verdict, "chosen_k": result.chosen_k,
                "critical_ns": report.critical_arrival if report else None}

    def check(self, i: int, out: Dict[str, Any]) -> List[str]:
        result, report = out["flow"], out["sta"]
        errors = check_points([(out["base"], p) for p in result.history],
                              CORELIB018)
        history = [(p.k, p.violations) for p in result.history]
        if history != FIG3_HISTORY or result.verdict != "converged":
            errors.append(f"figure 3 history {history} verdict "
                          f"{result.verdict}; calibrated {FIG3_HISTORY} "
                          f"converged")
        if report is None or not report.critical_arrival > 0.0:
            errors.append("STA of the chosen point reported no path")
        return errors


class KSweepSpla(Workload):
    """One op is the 14-point Table 2 sweep on spla@0.06, 20 rows."""

    name = "ksweep_spla"
    layers = ("core.partition", "core.match", "core.cover", "core.map",
              "core.k_point", "place.cell", "route")
    block_s = 12.0

    def __init__(self, work_dir: str, seed: int):  # noqa: D107
        self.config = FlowConfig(library=CORELIB018, seed=FLOW_SEED)
        self.base = network.decompose(circuits.spla_like(SWEEP_SCALE))
        self.floorplan = Floorplan.from_rows(SWEEP_ROWS, aspect=1.0)
        self.positions = placer.place_base_network(
            self.base, self.floorplan, seed=self.config.seed)

    def op(self, i: int) -> List[Any]:
        return flow.k_sweep(self.base, self.floorplan, self.config,
                            k_values=flow.PAPER_K_VALUES,
                            positions=self.positions)

    def rows(self, out: List[Any]) -> Any:
        return [list(p.row()) for p in out]

    def check(self, i: int, out: List[Any]) -> List[str]:
        errors = check_points([(self.base, p) for p in out], CORELIB018)
        violations = [p.violations for p in out]
        if violations != SWEEP_VIOLATIONS:
            errors.append(f"sweep violations {violations}; calibrated "
                          f"{SWEEP_VIOLATIONS}")
        return errors


#: The calibrated ``bench_serve`` requests (all converge on their dies;
#: ksearch lands on K=0.5), in ``bench_serve``'s order.  Its stream
#: cycles them round-robin, so a block of this stream holds each one
#: ``REPEATS`` times: a quarter of the repeats are ``ksearch`` jobs,
#: which put the 90th percentile inside the ``ksearch`` group.
TEMPLATES: Tuple[Dict[str, Any], ...] = (
    {"cmd": "ksweep", "scale": 0.01, "rows": 12, "k": [0.0, 0.005]},
    {"cmd": "flow", "scale": 0.02, "rows": 18, "tolerance": 6},
    {"cmd": "ksweep", "scale": 0.02, "rows": 16, "k": [0.0, 0.001, 0.01]},
    {"cmd": "ksearch", "scale": 0.06, "rows": 20, "tolerance": 6},
)
REPEATS = 5
#: One-off jobs per block (2 of 22, 9%): a ksweep of the spla@0.01
#: template netlist under fresh signal names.  The new content misses
#: every session cache and writes new entries, while the cost of a miss
#: stays the same from one-off to one-off (random netlists of one
#: profile differ by up to 1.8x, which would make the quantiles depend
#: on the seed).  A name prefix keeps every sorted order, so a one-off
#: must reproduce the template's cold rows.  One-offs cost more than a
#: warm three-K ksweep, so two per block put the median a few ranks
#: inside that group rather than on the cost step below it.
ONE_OFFS = 2
ONE_OFF_TEMPLATE = 0
BLOCK = REPEATS * len(TEMPLATES) + ONE_OFFS


class ServeMixed(Workload):
    """One op is one JSONL job through ``parse_jobs`` and
    ``ServeEngine.run_job`` on a long-lived engine."""

    name = "serve_mixed"
    layers = ("io.parse_blif", "network.decompose", "place.base",
              "core.partition", "core.match", "core.cover", "core.map",
              "core.k_point", "place.cell", "route", "serve.job")
    block = BLOCK
    block_s = 12.0
    min_blocks = 5      # 110 jobs: at least ten beyond the 90th percentile

    def __init__(self, work_dir: str, seed: int):  # noqa: D107
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.config = FlowConfig(library=CORELIB018, seed=FLOW_SEED)
        self.templates: List[Dict[str, Any]] = []
        texts: Dict[float, str] = {}
        for spec in TEMPLATES:
            path = os.path.join(work_dir, f"spla_{spec['scale']:g}.blif")
            if spec["scale"] not in texts:
                texts[spec["scale"]] = rio.dump_blif(
                    circuits.spla_like(spec["scale"]))
                with open(path, "w") as handle:
                    handle.write(texts[spec["scale"]])
            job = {k: v for k, v in spec.items() if k != "scale"}
            self.templates.append(dict(job, source=path))
        self.one_off_text = texts[TEMPLATES[ONE_OFF_TEMPLATE]["scale"]]
        #: (kind, template index or one-off number) per job.
        self.stream: List[Tuple[str, int]] = []
        self.one_offs = 0
        self.reference: Dict[int, Any] = {}
        self.sink: List[Tuple[Any, Any]] = []
        self.engine = None
        self._pending = ""
        self.setup_errors: List[str] = []

    def _extend(self) -> None:
        """Draw one more block of the seed's job stream."""
        block = [t for t in range(len(TEMPLATES))
                 for _ in range(REPEATS)] + [None] * ONE_OFFS
        self.rng.shuffle(block)
        for t in block:
            if t is not None:
                self.stream.append(("repeat", t))
                continue
            prefix = f"u{self.rng.getrandbits(32):08x}_"
            with open(self._one_off_path(self.one_offs), "w") as handle:
                handle.write(renamed_blif(self.one_off_text, prefix))
            self.stream.append(("one_off", self.one_offs))
            self.one_offs += 1

    def _one_off_path(self, n: int) -> str:
        return os.path.join(self.work_dir, f"oneoff_{n}.blif")

    def _line(self, i: int) -> str:
        kind, t = self.stream[i]
        if kind == "repeat":
            job = dict(self.templates[t])
        else:
            job = dict(self.templates[ONE_OFF_TEMPLATE],
                       source=self._one_off_path(t))
        return json.dumps(dict(job, id=f"j{i:05d}"), sort_keys=True)

    def install(self, patches: Patches) -> None:
        """Capture the K points behind each job for the output checks."""
        capture_points(patches, self.sink)

    def session(self) -> None:
        """A fresh engine whose template caches are warmed by one cold
        run of each template; those cold rows are the reference every
        warm repeat must reproduce."""
        self.engine = ServeEngine(self.config, workers=1, serve_workers=1)
        for t, job in enumerate(self.templates):
            result = self.engine.run_job(
                parse_jobs([json.dumps(dict(job, id=f"warm{t}"))])[0])
            errors = self._job_errors(result)
            expected = self.reference.setdefault(t, _row_view(result))
            if _row_view(result) != expected:
                errors.append(f"cold template {t} rows changed between "
                              f"sessions")
            self.setup_errors.extend(f"warm-up {job['cmd']} {t}: {e}"
                                     for e in errors)

    def is_repeat(self, i: int) -> bool:
        return self.stream[i][0] == "repeat"

    def prepare(self, i: int) -> None:
        while i >= len(self.stream):
            self._extend()
        self._pending = self._line(i)
        del self.sink[:]

    def op(self, i: int) -> Any:
        return self.engine.run_job(parse_jobs([self._pending])[0])

    def rows(self, out: Any) -> Any:
        return _row_view(out)

    def _job_errors(self, result: Any) -> List[str]:
        errors = [f"job error: {result.error}"] if result.error else []
        if not result.ok:
            errors.append(f"job not ok (verdict {result.verdict})")
        errors.extend(check_points(self.sink, CORELIB018))
        del self.sink[:]
        return errors

    def check(self, i: int, out: Any) -> List[str]:
        errors = self._job_errors(out)
        kind, t = self.stream[i]
        if kind == "repeat" and _row_view(out) != self.reference[t]:
            errors.append(f"warm repeat of template {t} differs from its "
                          f"cold rows")
        if kind == "one_off" and \
                _row_view(out) != self.reference[ONE_OFF_TEMPLATE]:
            errors.append(f"one-off {t} differs from the cold rows of the "
                          f"template it renames")
        return errors


def _row_view(result: Any) -> Dict[str, Any]:
    """A job result without its id and source path."""
    view = result.to_dict()
    del view["id"], view["source"]
    return view


def renamed_blif(text: str, prefix: str) -> str:
    """``text`` with ``prefix`` put before every model and signal name."""
    lines = []
    for line in text.splitlines():
        words = line.split()
        if words and words[0] in (".model", ".inputs", ".outputs", ".names"):
            line = " ".join(words[:1] + [prefix + name for name in words[1:]])
        lines.append(line)
    return "\n".join(lines) + "\n"


WORKLOADS = {cls.name: cls for cls in (Fig3Flow, KSweepSpla, ServeMixed)}
