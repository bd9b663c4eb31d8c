"""Long-lived batch engine: ``repro serve`` — JSONL jobs in, JSONL out.

The CLI's one-shot commands pay the full cold-start tax per run; this
package turns the same flow entry points into a cache-warm service:

* :class:`Job` / :class:`JobResult` — the JSONL request/response model
  (deterministic result lines, byte-identical at any worker count;
  field-by-field reference in ``docs/jobs-schema.md``);
* :class:`SessionCaches` — content-keyed netlist, layout and matcher
  caches shared across jobs, with LRU :class:`CacheBounds`;
* the :mod:`~repro.serve.scheduler` — (netlist, die) affinity chains
  that run independent jobs concurrently (``--serve-workers``) while
  keeping the output stream byte-identical to a sequential run;
* :class:`ServeEngine` — the batch executor tying them together, whose
  per-job stages fan out over the :mod:`repro.exec` pool;
* :mod:`~repro.serve.status` — live telemetry: atomic heartbeat files
  (:class:`StatusWriter`, ``--status-file``) and the :func:`follow`
  long-poll behind ``repro follow``.

Architecture notes live in ``docs/serve.md``; the telemetry pipeline
in ``docs/observability.md``.
"""

from .caches import CacheBounds, SessionCaches, die_key, source_key
from .engine import ServeEngine
from .jobs import JOB_COMMANDS, Job, JobError, JobResult, parse_job, parse_jobs
from .scheduler import affinity_key, plan_chains
from .status import (
    STATUS_SCHEMA_VERSION,
    StatusWriter,
    follow,
    is_end_marker,
    write_atomic_json,
    write_atomic_text,
)

__all__ = [
    "JOB_COMMANDS",
    "CacheBounds",
    "Job",
    "JobError",
    "JobResult",
    "STATUS_SCHEMA_VERSION",
    "ServeEngine",
    "SessionCaches",
    "StatusWriter",
    "affinity_key",
    "die_key",
    "follow",
    "is_end_marker",
    "parse_job",
    "parse_jobs",
    "plan_chains",
    "source_key",
    "write_atomic_json",
    "write_atomic_text",
]
