"""Batch-engine throughput — ``repro serve`` vs one-shot CLI runs.

The ISSUE 8 acceptance: on a mixed job stream (ksweep / flow / ksearch
requests drawn from the calibrated small dies), one long-lived
``repro serve`` process must deliver at least the speedup floor over
the same jobs issued as independent one-shot CLI invocations — each of
which pays the interpreter start, library build, netlist parse,
placement and cold routing from scratch — while emitting result lines
**byte-identical** to the one-shot runs.

Both sides run the same binary surface: the one-shot leg launches one
``repro serve`` subprocess *per job* (cold process, cold caches — the
``repro flow``/``ksweep``/``ksearch`` cost structure with a uniform
output format), the serve leg launches one subprocess for the whole
stream.  The serve leg runs twice, at ``--workers 1`` and
``--workers N``, and the two output files must be byte-identical —
the determinism half of the acceptance.

ISSUE 9 adds the cross-job legs: the same stream at ``--serve-workers
1/2/4`` (affinity-chain scheduling across the process pool).  Every leg
must emit byte-identical rows; ``--serve-workers 4`` must
deliver the parallel jobs/sec floor over ``--serve-workers 1`` on
hosts with cores to spare (see :func:`_parallel_floor` — a single-core
host can only check the scheduler costs nothing).

ISSUE 10 adds the telemetry leg: the same stream with ``--status-file``
/ ``--metrics-out`` / ``--slow-job-s`` armed must emit byte-identical
rows, leave a final heartbeat whose tallies match the run, render a
Prometheus exposition that round-trips through our parser, and cost
at most 2x the plain leg.

Smoke mode (``REPRO_BENCH_SMOKE=1``): 12 jobs, 1.5x serve floor and a
relaxed 1.1x parallel floor (CI containers time poorly); full mode:
100 jobs, 3x serve floor, 1.5x parallel floor.  Results go to
``BENCH_serve.json``.
"""

import json
import os
import subprocess
import sys
import time

from bench_common import write_bench_json
from conftest import publish
from repro.io import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Acceptance floor for t_oneshot / t_serve on the mixed stream.
SPEEDUP_FLOOR = 1.5 if SMOKE else 3.0

#: Acceptance floor for jobs/sec at ``--serve-workers 4`` vs ``1``,
#: scaled to the cores actually available: the full floor needs >= 4
#: cores, two cores only fit two chains at once, and on a single core
#: cross-process parallelism is physically a no-op — there the bench
#: asserts the scheduler costs (almost) nothing rather than that it
#: gains anything.
PARALLEL_FLOOR = 1.1 if SMOKE else 1.5


def _parallel_floor(cpus):
    if cpus >= 4:
        return PARALLEL_FLOOR
    if cpus >= 2:
        return 1.05 if SMOKE else 1.2
    return 0.85  # single core: overhead guard, not a speedup claim

N_JOBS = 12 if SMOKE else 100

#: The mixed stream cycles these calibrated requests (all converge /
#: route within tolerance on their dies; ksearch lands on K=0.5, the
#: CI regression value).
TEMPLATES = [
    {"cmd": "ksweep", "source": "spla@0.01", "rows": 12,
     "k": [0.0, 0.005]},
    {"cmd": "flow", "source": "spla@0.02", "rows": 18, "tolerance": 6},
    {"cmd": "ksweep", "source": "spla@0.02", "rows": 16,
     "k": [0.0, 0.001, 0.01]},
    {"cmd": "ksearch", "source": "spla@0.06", "rows": 20, "tolerance": 6},
]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_cache = {}


def _make_jobs(n):
    return [dict(TEMPLATES[i % len(TEMPLATES)], id=f"j{i:03d}")
            for i in range(n)]


def _cli_env():
    env = dict(os.environ)
    src = os.path.join(_REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_serve(jobs_path, out_path, workers, summary_path="",
               serve_workers=1, extra_args=()):
    """One ``repro serve`` subprocess over a job file; returns wall (s)."""
    argv = [sys.executable, "-m", "repro.cli", "serve", jobs_path,
            "-o", out_path, "--workers", str(workers),
            "--serve-workers", str(serve_workers)]
    if summary_path:
        argv += ["--summary", summary_path]
    argv += list(extra_args)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=_cli_env(), capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, \
        f"serve failed ({proc.returncode}):\n{proc.stderr}"
    return wall


def run_serve_bench(tmpdir):
    if "result" in _cache:
        return _cache["result"]
    jobs = _make_jobs(N_JOBS)
    stream_path = os.path.join(tmpdir, "jobs.jsonl")
    with open(stream_path, "w") as fh:
        for job in jobs:
            fh.write(json.dumps(job) + "\n")

    # One-shot leg: a cold process (and cold caches) per job.
    oneshot_lines = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        jpath = os.path.join(tmpdir, f"one_{i}.jsonl")
        opath = os.path.join(tmpdir, f"one_{i}.out")
        with open(jpath, "w") as fh:
            fh.write(json.dumps(job) + "\n")
        _run_serve(jpath, opath, workers=1)
        with open(opath) as fh:
            oneshot_lines.extend(fh.read().splitlines())
    t_oneshot = time.perf_counter() - t0

    # Serve leg: one process for the whole stream, both worker counts.
    out1 = os.path.join(tmpdir, "serve_w1.out")
    outn = os.path.join(tmpdir, "serve_wN.out")
    summary_path = os.path.join(tmpdir, "serve_summary.json")
    workers_n = max(2, os.cpu_count() or 1)
    t_serve_1 = _run_serve(stream_path, out1, workers=1,
                           summary_path=summary_path)
    with open(summary_path) as fh:
        summary_1 = json.load(fh)
    t_serve_n = _run_serve(stream_path, outn, workers=workers_n)

    with open(out1) as fh:
        serve_lines_1 = fh.read().splitlines()
    with open(outn) as fh:
        serve_lines_n = fh.read().splitlines()

    # Determinism acceptance: byte-identical result lines, job for job,
    # serve vs one-shot and workers=1 vs workers=N.
    assert len(serve_lines_1) == len(oneshot_lines) == N_JOBS
    mismatched = [i for i, (a, b) in
                  enumerate(zip(serve_lines_1, oneshot_lines)) if a != b]
    assert not mismatched, \
        f"serve rows differ from one-shot rows for jobs {mismatched[:5]}"
    assert serve_lines_n == serve_lines_1, \
        "serve output differs between --workers 1 and --workers N"
    assert all(json.loads(line)["ok"] for line in serve_lines_1), \
        "a calibrated job failed to converge"

    t_serve = min(t_serve_1, t_serve_n)
    result = {
        "jobs": N_JOBS,
        "workers_n": workers_n,
        "t_oneshot_s": t_oneshot,
        "t_serve_w1_s": t_serve_1,
        "t_serve_wN_s": t_serve_n,
        "oneshot_jobs_per_sec": N_JOBS / max(t_oneshot, 1e-9),
        "serve_jobs_per_sec": N_JOBS / max(t_serve, 1e-9),
        "speedup": t_oneshot / max(t_serve, 1e-9),
        "identical_rows": True,
        "cache": summary_1["cache"],
        "cache_hit_rates": summary_1["cache_hit_rates"],
        "engine_jobs_per_sec": summary_1["jobs_per_sec"],
    }
    _cache["result"] = result
    return result


def run_parallel_bench(tmpdir):
    """Serve-workers 1/2/4 legs.

    All legs run the same N-job mixed stream in one subprocess each,
    with the per-job fan-out pinned at ``--workers 1`` so the only
    variable is the cross-job scheduler.  Every leg's output file must
    be byte-identical.
    """
    if "parallel" in _cache:
        return _cache["parallel"]
    jobs = _make_jobs(N_JOBS)
    stream_path = os.path.join(tmpdir, "jobs.jsonl")
    with open(stream_path, "w") as fh:
        for job in jobs:
            fh.write(json.dumps(job) + "\n")

    def leg(name, serve_workers):
        out = os.path.join(tmpdir, f"leg_{name}.out")
        summary = os.path.join(tmpdir, f"leg_{name}.json")
        wall = _run_serve(stream_path, out, workers=1,
                          serve_workers=serve_workers,
                          summary_path=summary)
        with open(out) as fh:
            lines = fh.read().splitlines()
        with open(summary) as fh:
            return {"name": name, "serve_workers": serve_workers,
                    "wall_s": wall,
                    "jobs_per_sec": N_JOBS / max(wall, 1e-9),
                    "lines": lines, "summary": json.load(fh)}

    legs = [leg("sw1", 1), leg("sw2", 2), leg("sw4", 4)]

    base = legs[0]
    assert len(base["lines"]) == N_JOBS
    for entry in legs[1:]:
        assert entry["lines"] == base["lines"], \
            f"leg {entry['name']} rows differ from --serve-workers 1"

    sw4 = legs[2]["summary"]
    assert sw4["serve_workers"] == 4
    assert sw4["jobs"] == N_JOBS and sw4["ok"] == N_JOBS

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    result = {
        "cpus_available": cpus,
        "parallel_floor_applied": _parallel_floor(cpus),
        "legs": [{k: v for k, v in entry.items()
                  if k not in ("lines", "summary")} for entry in legs],
        "parallel_speedup": legs[2]["jobs_per_sec"] /
        max(base["jobs_per_sec"], 1e-9),
        "pool_fallbacks": sw4.get("pool_fallbacks", 0),
        "identical_rows": True,
    }
    _cache["parallel"] = result
    return result


def run_telemetry_bench(tmpdir):
    """The live-telemetry leg: status heartbeats + metrics exposition.

    The same stream runs plain and with every observability flag armed
    (``--status-file``, ``--metrics-out``, ``--slow-job-s`` with a
    sub-microsecond deadline so the watchdog fires on every job).  The
    instrumented leg must emit byte-identical result rows, leave a
    final heartbeat whose tallies match the run, and render a
    Prometheus exposition that round-trips through our parser.
    """
    if "telemetry" in _cache:
        return _cache["telemetry"]
    jobs = _make_jobs(N_JOBS)
    stream_path = os.path.join(tmpdir, "jobs.jsonl")
    with open(stream_path, "w") as fh:
        for job in jobs:
            fh.write(json.dumps(job) + "\n")

    plain_out = os.path.join(tmpdir, "telemetry_plain.out")
    obs_out = os.path.join(tmpdir, "telemetry_obs.out")
    status_path = os.path.join(tmpdir, "status.json")
    metrics_path = os.path.join(tmpdir, "metrics.prom")
    t_plain = _run_serve(stream_path, plain_out, workers=1,
                         serve_workers=2)
    t_obs = _run_serve(stream_path, obs_out, workers=1, serve_workers=2,
                       extra_args=["--status-file", status_path,
                                   "--metrics-out", metrics_path,
                                   "--slow-job-s", "0.000001"])

    with open(plain_out) as fh:
        plain_lines = fh.read().splitlines()
    with open(obs_out) as fh:
        obs_lines = fh.read().splitlines()
    assert len(plain_lines) == N_JOBS
    assert obs_lines == plain_lines, \
        "telemetry flags changed the result rows"

    # Final heartbeat: terminal state with tallies matching the run.
    with open(status_path) as fh:
        heartbeat = json.load(fh)
    assert heartbeat["state"] == "done"
    assert heartbeat["jobs_done"] == heartbeat["ok"] == N_JOBS
    assert heartbeat["failed"] == 0
    assert heartbeat["slow_jobs"] == N_JOBS  # the deadline always fires
    assert heartbeat["serve_workers"] == 2

    # Metrics exposition: the text form round-trips and agrees with the
    # JSON sibling on the job count.
    from repro.obs import parse_prometheus
    with open(metrics_path) as fh:
        families = parse_prometheus(fh.read())
    assert families["repro_serve_jobs_done"]["samples"][
        "repro_serve_jobs_done"] == N_JOBS
    job_hist = families["repro_serve_job_seconds"]
    assert job_hist["type"] == "histogram"
    assert job_hist["samples"]["repro_serve_job_seconds_count"] == N_JOBS
    with open(metrics_path + ".json") as fh:
        metrics_doc = json.load(fh)
    assert metrics_doc["counters"]["serve.jobs_done"] == N_JOBS
    assert metrics_doc["instruments"]["serve.job_seconds"]["sum"] > 0

    result = {
        "t_plain_s": t_plain,
        "t_telemetry_s": t_obs,
        "telemetry_overhead": t_obs / max(t_plain, 1e-9),
        "identical_rows": True,
        "heartbeat_jobs_done": heartbeat["jobs_done"],
        "slow_jobs": heartbeat["slow_jobs"],
        "prometheus_families": len(families),
        "instruments": sorted(metrics_doc["instruments"]),
    }
    _cache["telemetry"] = result
    return result


def _write_payload():
    """Emit everything measured so far into ``BENCH_serve.json``.

    Both tests route through this, so the file always reflects the
    union of the legs that actually ran, whichever test ran last.
    """
    payload = {
        "mode": "smoke" if SMOKE else "full",
        "speedup_floor": SPEEDUP_FLOOR,
        "parallel_floor": PARALLEL_FLOOR,
        "templates": TEMPLATES,
    }
    payload.update(_cache.get("result", {}))
    if "parallel" in _cache:
        payload["parallel"] = _cache["parallel"]
    if "telemetry" in _cache:
        payload["telemetry"] = _cache["telemetry"]
    write_bench_json("serve", payload)


def test_serve_throughput(benchmark, tmp_path):
    """Serve vs one-shot throughput on a mixed job stream."""
    r = benchmark.pedantic(run_serve_bench, args=(str(tmp_path),),
                           rounds=1, iterations=1)
    rates = r["cache_hit_rates"]
    table = format_table(
        ["mode", "jobs", "wall (s)", "jobs/s", "vs one-shot"],
        [("one-shot CLI (cold per job)", r["jobs"],
          f"{r['t_oneshot_s']:.1f}",
          f"{r['oneshot_jobs_per_sec']:.2f}", "1.00x"),
         ("serve --workers 1", r["jobs"], f"{r['t_serve_w1_s']:.1f}",
          f"{r['jobs'] / max(r['t_serve_w1_s'], 1e-9):.2f}",
          f"{r['t_oneshot_s'] / max(r['t_serve_w1_s'], 1e-9):.2f}x"),
         (f"serve --workers {r['workers_n']}", r["jobs"],
          f"{r['t_serve_wN_s']:.1f}",
          f"{r['jobs'] / max(r['t_serve_wN_s'], 1e-9):.2f}",
          f"{r['t_oneshot_s'] / max(r['t_serve_wN_s'], 1e-9):.2f}x")],
        title=("Batch engine - repro serve vs one-shot CLI "
               f"({'smoke' if SMOKE else 'full'} mode, "
               f"{len(TEMPLATES)} job templates, rows byte-identical; "
               f"cache hits: netlist {rates['netlist']:.0%}, layout "
               f"{rates['layout']:.0%}, matcher "
               f"{rates['matcher']:.0%})"))
    publish("serve_throughput", table)
    _write_payload()

    assert r["speedup"] >= SPEEDUP_FLOOR, \
        (f"serve only {r['speedup']:.2f}x over one-shot "
         f"({r['jobs']} jobs, floor {SPEEDUP_FLOOR:.1f}x)")


def test_serve_telemetry(benchmark, tmp_path):
    """Observability leg: telemetry flags cost little and change nothing."""
    r = benchmark.pedantic(run_telemetry_bench, args=(str(tmp_path),),
                           rounds=1, iterations=1)
    table = format_table(
        ["mode", "jobs", "wall (s)", "overhead"],
        [("serve --serve-workers 2 (plain)", N_JOBS,
          f"{r['t_plain_s']:.1f}", "1.00x"),
         ("  + status/metrics/slow-job telemetry", N_JOBS,
          f"{r['t_telemetry_s']:.1f}",
          f"{r['telemetry_overhead']:.2f}x")],
        title=("Live telemetry - heartbeat + Prometheus exposition "
               f"({'smoke' if SMOKE else 'full'} mode, rows "
               f"byte-identical; {r['slow_jobs']} slow-job events, "
               f"{r['prometheus_families']} metric families)"))
    publish("serve_telemetry", table)
    _write_payload()

    assert r["identical_rows"]
    assert r["heartbeat_jobs_done"] == N_JOBS
    # The whole observability surface must stay out of the hot path:
    # generous 2x bound (absolute cost is one JSON write per heartbeat).
    assert r["telemetry_overhead"] <= 2.0, \
        (f"telemetry flags cost {r['telemetry_overhead']:.2f}x "
         f"(bound 2.0x)")


def test_serve_parallel_throughput(benchmark, tmp_path):
    """Cross-job scheduler throughput legs."""
    r = benchmark.pedantic(run_parallel_bench, args=(str(tmp_path),),
                           rounds=1, iterations=1)
    base = r["legs"][0]
    rows = []
    for entry in r["legs"]:
        label = f"serve-workers {entry['serve_workers']}"
        rows.append((label, N_JOBS, f"{entry['wall_s']:.1f}",
                     f"{entry['jobs_per_sec']:.2f}",
                     f"{entry['jobs_per_sec'] / base['jobs_per_sec']:.2f}x"))
    table = format_table(
        ["mode", "jobs", "wall (s)", "jobs/s", "vs sw1"],
        rows,
        title=("Cross-job scheduler - serve-workers legs "
               f"({'smoke' if SMOKE else 'full'} mode, rows "
               "byte-identical across all legs)"))
    publish("serve_parallel", table)
    _write_payload()

    floor = r["parallel_floor_applied"]
    assert r["parallel_speedup"] >= floor, \
        (f"--serve-workers 4 only {r['parallel_speedup']:.2f}x over "
         f"--serve-workers 1 ({N_JOBS} jobs, "
         f"{r['cpus_available']} cores, floor {floor:.2f}x)")
