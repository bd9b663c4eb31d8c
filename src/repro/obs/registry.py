"""Namespaced, collision-safe, typed statistics registry.

Every stats blob the flow produces — mapper phase times, router work
counters, evaluation wall-times, executor facts — used to be an ad-hoc
``Dict[str, float]``.  Those dicts collided on merge (``t_place`` from
two layers silently overwriting each other), lost integer-ness through
``float(...)`` casts, and gave no way to tell a wall-time from an
algorithmic count.  :class:`StatsRegistry` replaces them:

* **Namespaced keys** — every key is ``<namespace>.<name>`` (e.g.
  ``route.t_negotiate``, ``map.match_cache_hits``); un-namespaced keys
  are rejected at write time.
* **Collision-safe** — a key is written once; writing it again, or
  absorbing a registry that shares a key, raises
  :class:`StatsCollisionError` instead of silently overwriting.
* **Typed** — each entry carries a :data:`kind` that fixes both its
  Python type and its cross-run merge rule:

  ========  ======  =======  ==================================
  kind      type    merge    meaning
  ========  ======  =======  ==================================
  ``time``  float   sum      wall-clock seconds (never
                             deterministic)
  ``count`` int     sum      algorithmic result count —
                             bit-identical for identical inputs
                             regardless of workers / caches
  ``gauge`` float   sum      algorithmic result value (areas,
                             estimated wirelengths) —
                             deterministic like ``count``
  ``metric`` float  sum      measured property of the produced
                             solution — valid either way but may
                             vary with the execution plan (e.g.
                             routed wirelength)
  ``work``  int     sum      work performed — varies with the
                             execution plan (cache warm-starts,
                             worker chunking) even when results
                             are identical
  ``env``   int     max      execution-environment fact
                             (worker counts, flags)
  ========  ======  =======  ==================================

* **Deterministic merging** — :meth:`merge` combines registries by the
  per-kind rules above in insertion order, so aggregating the same
  per-task registries in task order yields bit-identical totals no
  matter how many processes produced them.  The
  :meth:`deterministic` view (``count`` + ``gauge`` entries) is the
  subset guaranteed equal between ``workers=1`` and ``workers=N``.

Lookup accepts either the canonical dotted key or its bare final
component when unambiguous (``stats["cell_area"]`` finds
``map.cell_area``), which keeps call sites terse without giving up
collision safety at write time.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Union

from ..errors import ReproError

__all__ = [
    "COUNT",
    "ENV",
    "GAUGE",
    "KINDS",
    "METRIC",
    "StatEntry",
    "StatsCollisionError",
    "StatsRegistry",
    "TIME",
    "WORK",
]

#: Entry kinds (see module docstring for semantics).
TIME = "time"
COUNT = "count"
GAUGE = "gauge"
METRIC = "metric"
WORK = "work"
ENV = "env"
KINDS = (TIME, COUNT, GAUGE, METRIC, WORK, ENV)

#: Kinds holding integers end-to-end.
_INT_KINDS = (COUNT, WORK, ENV)
#: Kinds whose values are guaranteed identical across execution plans.
_DETERMINISTIC_KINDS = (COUNT, GAUGE)

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

Number = Union[int, float]


class StatsCollisionError(ReproError):
    """A stats key was written twice (the silent-overwrite bug class)."""


@dataclass(frozen=True)
class StatEntry:
    """One recorded statistic: its value and its kind."""

    value: Number
    kind: str


def _as_int(key: str, value: object) -> int:
    """Require an integral value (bools rejected); keep it an int."""
    if isinstance(value, bool):
        raise TypeError(f"stat {key!r}: booleans are not counters")
    try:
        return operator.index(value)  # ints and numpy integers
    except TypeError:
        raise TypeError(
            f"stat {key!r}: integer kinds require an integral value, "
            f"got {type(value).__name__}") from None


class StatsRegistry(Mapping):
    """Insertion-ordered mapping of namespaced keys to typed stats."""

    def __init__(self) -> None:  # noqa: D107
        self._entries: Dict[str, StatEntry] = {}

    # -- writing ---------------------------------------------------------

    def _put(self, key: str, value: Number, kind: str) -> None:
        if not _KEY_RE.match(key):
            raise ValueError(
                f"stats key {key!r} is not namespaced "
                "(expected '<namespace>.<name>', lowercase)")
        if key in self._entries:
            raise StatsCollisionError(
                f"stats key {key!r} written twice "
                f"(existing {self._entries[key]})")
        self._entries[key] = StatEntry(value=value, kind=kind)

    def time(self, key: str, seconds: float) -> None:
        """Record a wall-clock duration in seconds."""
        self._put(key, float(seconds), TIME)

    def count(self, key: str, value: int) -> None:
        """Record a deterministic algorithmic count (stays an int)."""
        self._put(key, _as_int(key, value), COUNT)

    def gauge(self, key: str, value: float) -> None:
        """Record a deterministic measured value (float)."""
        self._put(key, float(value), GAUGE)

    def metric(self, key: str, value: float) -> None:
        """Record a solution metric (float) that may legitimately vary
        with the execution plan (e.g. routed wirelength)."""
        self._put(key, float(value), METRIC)

    def work(self, key: str, value: int) -> None:
        """Record an execution-plan-dependent work count (int)."""
        self._put(key, _as_int(key, value), WORK)

    def env(self, key: str, value: int) -> None:
        """Record an execution-environment fact (int, merged by max)."""
        self._put(key, _as_int(key, value), ENV)

    # -- combining -------------------------------------------------------

    def absorb(self, other: "StatsRegistry") -> None:
        """Adopt another registry's entries; shared keys are an error.

        This is the composition operation (routing stats into an
        evaluation's stats): the key spaces must be disjoint, which is
        exactly what namespacing guarantees — a collision here is a
        bug, not data.
        """
        for key in other._entries:
            if key in self._entries:
                raise StatsCollisionError(
                    f"absorb would overwrite {key!r} "
                    f"({self._entries[key]} <- {other._entries[key]})")
        self._entries.update(other._entries)

    def merge(self, other: "StatsRegistry") -> None:
        """Accumulate another registry by the per-kind merge rules.

        This is the aggregation operation (the same counters from many
        tasks or workers): values of matching keys are summed
        (``env``: maxed); kinds must agree.  Merging task registries in
        task order is deterministic — the serial and the parallel paths
        produce bit-identical aggregates.
        """
        for key, entry in other._entries.items():
            mine = self._entries.get(key)
            if mine is None:
                self._entries[key] = entry
                continue
            if mine.kind != entry.kind:
                raise StatsCollisionError(
                    f"merge kind mismatch for {key!r}: "
                    f"{mine.kind} vs {entry.kind}")
            if entry.kind == ENV:
                value: Number = max(mine.value, entry.value)
            else:
                value = mine.value + entry.value
            self._entries[key] = StatEntry(value=value, kind=entry.kind)

    @classmethod
    def merged(cls, registries: "Iterator[StatsRegistry]") -> "StatsRegistry":
        """Merge a sequence of registries (in the given order)."""
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out

    # -- views -----------------------------------------------------------

    def deterministic(self) -> Dict[str, Number]:
        """The ``count``/``gauge`` subset — bit-identical across
        ``workers=1`` and ``workers=N`` for the same inputs."""
        return {key: e.value for key, e in self._entries.items()
                if e.kind in _DETERMINISTIC_KINDS}

    def as_dict(self) -> Dict[str, Number]:
        """Plain ``{key: value}`` snapshot (canonical keys)."""
        return {key: e.value for key, e in self._entries.items()}

    def kinds(self) -> Dict[str, str]:
        """Plain ``{key: kind}`` snapshot."""
        return {key: e.kind for key, e in self._entries.items()}

    def kind(self, key: str) -> str:
        """The kind of one entry (accepts bare suffixes like lookup)."""
        return self._entries[self._resolve(key)].kind

    # -- mapping protocol (with bare-suffix resolution) -----------------

    def _resolve(self, key: str) -> str:
        if key in self._entries:
            return key
        if "." not in key:
            matches = [k for k in self._entries
                       if k.rsplit(".", 1)[1] == key]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise KeyError(
                    f"stats key {key!r} is ambiguous: {sorted(matches)}")
        raise KeyError(key)

    def __getitem__(self, key: str) -> Number:
        return self._entries[self._resolve(key)].value

    def get(self, key: str, default: Optional[Number] = None
            ) -> Optional[Number]:
        """Value of ``key`` (canonical or unambiguous bare suffix)."""
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: object) -> bool:
        try:
            self._resolve(str(key))
            return True
        except KeyError:
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={e.value!r}:{e.kind}"
                          for k, e in self._entries.items())
        return f"StatsRegistry({inner})"
