"""Session-scoped caches shared across the jobs of one engine.

One-shot CLI invocations pay the full cold-start tax on every run:
re-import, library pattern rebuild, netlist parse + decomposition,
technology-independent placement, match enumeration.  A :class:`SessionCaches` instance owns everything of that
which is reusable *across* jobs, keyed so that reuse is always sound:

* **Parsed netlists** — content-keyed: a BLIF file keys on the SHA-256
  of its text (two paths with the same content share one parse; an
  edited file re-parses), a generated benchmark on its normalized
  ``name@scale`` spec.  The cached object is the *decomposed*
  :class:`~repro.network.dag.BaseNetwork` plus its source network;
  flow jobs never mutate either.
* **Layouts** — the technology-independent placement and the
  K-independent partition, keyed by (netlist, die, seed, partition
  style): exactly the products :func:`~repro.core.flow.k_sweep`
  hoists out of its per-K loop, hoisted one level further — out of the
  per-job loop.
* **Matchers** — one :class:`~repro.core.matching.Matcher` per
  (netlist, library): its per-(vertex, tree) match memo and the
  :class:`~repro.core.covering.CoverMemo` the mapper hangs off it
  compose across jobs exactly as they do across the K points of one
  sweep.

Routing is not cached across jobs: every job routes cold (inside one
job, a sweep or search routes each distinct router input once; see
:func:`repro.core.flow.k_sweep`).  Every cache is a pure
speedup: mapping, placement and match results are deterministic
functions of their keys, so a warm engine emits byte-identical result
lines to a cold one, bounded or not.

Lifecycle
---------
Long sessions cannot grow without bound, so every family is an LRU
store governed by one :class:`CacheBounds`: ``max_entries`` caps each
family's entry count, ``max_bytes`` caps the *estimated* total byte
footprint across all three families (evicting the globally
least-recently-used entry first, whatever family it lives in).
A matcher grows in place as jobs use it, so a bounded session
re-estimates it after each job (:meth:`SessionCaches.resize_matcher`).
Evictions are counted per family and in total, and the running byte
estimate is exported as the ``serve.cache_bytes`` gauge — both visible
in ``--profile`` and the engine summary.  Because entries are pure
speedups, eviction can never change a result line, only the wall-clock
of a later job that re-misses.
"""

from __future__ import annotations

import hashlib
import sys
import types
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..circuits import benchmark
from ..core import FlowConfig, Matcher, Partition, PositionMap
from ..core.partition import partition as make_partition
from ..io import parse_blif
from ..library.cell import CellLibrary
from ..network.dag import BaseNetwork
from ..network.decompose import decompose
from ..obs import StatsRegistry
from ..place import Floorplan, place_base_network

__all__ = ["CacheBounds", "SessionCaches", "approx_nbytes", "die_key",
           "source_key"]

#: (width, row height, rows) — everything that distinguishes one die.
DieKey = Tuple[float, float, int]

#: The cache family names, in reporting order.
FAMILIES = ("netlist", "layout", "matcher")


def source_key(source: str) -> str:
    """Content key of a job source (BLIF path or ``name@scale``)."""
    if source.endswith(".blif"):
        with open(source, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return f"blif:sha256:{digest}"
    name, _, scale = source.partition("@")
    return f"bench:{name.lower()}@{float(scale) if scale else 0.125:g}"


def die_key(floorplan: Floorplan) -> DieKey:
    """The cache key of a die (grid geometry is derived from these)."""
    return (floorplan.width, floorplan.row_height, floorplan.num_rows)


@dataclass(frozen=True)
class CacheBounds:
    """Size limits for one :class:`SessionCaches` (0 = unbounded).

    ``max_entries`` bounds each family independently (a session may
    hold at most that many netlists, layouts and matchers *each*); ``max_bytes`` bounds the estimated total footprint of all
    families together.  Both are enforced on insertion by evicting
    least-recently-used entries first.
    """

    max_entries: int = 0
    max_bytes: int = 0

    @property
    def bounded(self) -> bool:
        """Whether any limit is active."""
        return self.max_entries > 0 or self.max_bytes > 0


#: Types the byte estimator never descends into: code objects and the
#: process-wide shared library singleton (counted by nobody — it exists
#: once regardless of cache contents).
_OPAQUE_TYPES: Tuple[type, ...] = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, CellLibrary)


def approx_nbytes(obj: Any, max_visits: int = 200_000) -> int:
    """Estimated deep byte footprint of a cache entry.

    A deterministic, bounded object walk: numpy arrays contribute their
    ``nbytes``, containers and instance ``__dict__``/``__slots__`` are
    descended into (each object counted once), and the walk stops at
    ``max_visits`` objects so a pathological entry cannot stall
    insertion.  Shared sub-objects *between* entries are counted in
    each entry that reaches them — this is an accounting estimate for
    eviction pressure, not an allocator audit.
    """
    seen: set = set()
    stack = [obj]
    total = 0
    visits = 0
    while stack and visits < max_visits:
        item = stack.pop()
        ident = id(item)
        if ident in seen:
            continue
        seen.add(ident)
        visits += 1
        if isinstance(item, _OPAQUE_TYPES):
            continue
        if isinstance(item, np.ndarray):
            total += int(item.nbytes) + 128
            continue
        try:
            total += sys.getsizeof(item)
        except TypeError:  # pragma: no cover - exotic objects
            total += 64
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif not isinstance(item, (str, bytes, bytearray, int, float,
                                   complex, bool, type(None))):
            state = getattr(item, "__dict__", None)
            if state is not None:
                stack.append(state)
            for slot in getattr(type(item), "__slots__", ()):
                value = getattr(item, slot, None)
                if value is not None:
                    stack.append(value)
    return total


class _Entry:
    """One cached value with its recency tick and byte estimate."""

    __slots__ = ("value", "tick", "nbytes")

    def __init__(self, value: Any, tick: int, nbytes: int):  # noqa: D107
        self.value = value
        self.tick = tick
        self.nbytes = nbytes


class SessionCaches:
    """The three cross-job cache families plus lifecycle bookkeeping.

    ``bounds`` activates LRU eviction (see :class:`CacheBounds`); the
    default is unbounded.
    """

    def __init__(self, library: CellLibrary,
                 bounds: Optional[CacheBounds] = None):  # noqa: D107
        self.library = library
        self.bounds = bounds if bounds is not None else CacheBounds()
        self._families: Dict[str, Dict[Any, _Entry]] = {
            family: {} for family in FAMILIES}
        self._tick = 0
        self._counts: Dict[str, int] = {}
        for family in FAMILIES:
            self._counts[f"{family}_hits"] = 0
            self._counts[f"{family}_misses"] = 0
            self._counts[f"{family}_evictions"] = 0

    # -- the LRU machinery ----------------------------------------------

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def _get(self, family: str, key: Any) -> Optional[Any]:
        entry = self._families[family].get(key)
        if entry is None:
            self._counts[f"{family}_misses"] += 1
            return None
        entry.tick = self._next_tick()
        self._counts[f"{family}_hits"] += 1
        return entry.value

    def _put(self, family: str, key: Any, value: Any) -> None:
        nbytes = approx_nbytes(value)
        self._families[family][key] = _Entry(value, self._next_tick(),
                                             nbytes)
        if self.bounds.bounded:
            self._enforce_bounds()

    def _evict(self, family: str, key: Any) -> None:
        self._families[family].pop(key)
        self._counts[f"{family}_evictions"] += 1

    def _enforce_bounds(self) -> None:
        limit = self.bounds.max_entries
        if limit > 0:
            for family in FAMILIES:
                entries = self._families[family]
                while len(entries) > limit:
                    oldest = min(entries, key=lambda k: entries[k].tick)
                    self._evict(family, oldest)
        limit = self.bounds.max_bytes
        if limit > 0:
            while self.cache_bytes() > limit:
                victim = None  # (tick, family, key)
                for family in FAMILIES:
                    for key, entry in self._families[family].items():
                        if victim is None or entry.tick < victim[0]:
                            victim = (entry.tick, family, key)
                if victim is None:
                    break
                self._evict(victim[1], victim[2])

    def cache_bytes(self) -> int:
        """The current estimated footprint across all families."""
        return sum(entry.nbytes
                   for entries in self._families.values()
                   for entry in entries.values())

    # -- netlists --------------------------------------------------------

    def network(self, source: str) -> Tuple[str, object, BaseNetwork]:
        """(key, source network, decomposed base) for a job source."""
        key = source_key(source)
        cached = self._get("netlist", key)
        if cached is not None:
            network, base = cached
            return key, network, base
        if source.endswith(".blif"):
            with open(source) as handle:
                network = parse_blif(handle.read())
        else:
            name, _, scale = source.partition("@")
            network = benchmark(name, float(scale) if scale else 0.125)
        base = decompose(network)
        self._put("netlist", key, (network, base))
        return key, network, base

    # -- layouts ---------------------------------------------------------

    def layout(self, key: str, base: BaseNetwork, floorplan: Floorplan,
               config: FlowConfig) -> Tuple[PositionMap, Partition]:
        """(positions, partition) for a (netlist, die, config) triple.

        The placement is seeded exactly as the uninjected entry points
        seed it (``config.seed``), so cached layouts are bit-identical to
        freshly computed ones.
        """
        lkey = (key, die_key(floorplan), config.seed, config.partition_style)
        cached = self._get("layout", lkey)
        if cached is not None:
            return cached
        positions = place_base_network(base, floorplan, seed=config.seed)
        part = make_partition(base, config.partition_style,
                              positions=positions)
        self._put("layout", lkey, (positions, part))
        return positions, part

    # -- matchers --------------------------------------------------------

    def matcher(self, key: str, base: BaseNetwork) -> Matcher:
        """The shared matcher (match memo + cover memo) of a netlist."""
        cached = self._get("matcher", key)
        if cached is not None:
            return cached
        matcher = Matcher(base, self.library)
        self._put("matcher", key, matcher)
        return matcher

    def resize_matcher(self, key: str) -> None:
        """Re-estimate a matcher entry after a job used it, then enforce
        the bounds.

        A matcher fills its match memo, tree tables and cover memo in
        place, so its insertion-time estimate (an empty matcher)
        understates it after every job.  Only bounded sessions read
        the estimate to evict, so unbounded ones skip the walk.
        """
        if not self.bounds.bounded:
            return
        entry = self._families["matcher"].get(key)
        if entry is None:
            return
        entry.nbytes = approx_nbytes(entry.value)
        self._enforce_bounds()

    # -- reporting -------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Plain hit/miss/eviction snapshot plus sizes (all int; see
        the module docstring for semantics)."""
        out = dict(self._counts)
        for family in FAMILIES:
            out[f"{family}_entries"] = len(self._families[family])
        out["evictions"] = sum(self._counts[f"{f}_evictions"]
                               for f in FAMILIES)
        out["cache_bytes"] = self.cache_bytes()
        return out

    def stats(self) -> StatsRegistry:
        """The snapshot as ``serve.*`` stats (for spans / ``--profile``).

        Hit/miss/eviction tallies are ``work`` (they vary with the
        execution plan); entry counts are ``env`` facts; the
        byte estimate is the ``serve.cache_bytes`` gauge.
        """
        return counters_to_stats(self.counters())


def counters_to_stats(counts: Dict[str, int]) -> StatsRegistry:
    """A merged counters dict (engine-level) as ``serve.*`` stats."""
    registry = StatsRegistry()
    for name, value in counts.items():
        if name.endswith("_entries"):
            registry.env(f"serve.{name}", int(value))
        elif name == "cache_bytes":
            registry.gauge("serve.cache_bytes", float(value))
        else:
            registry.work(f"serve.{name}", int(value))
    return registry


def merge_counters(target: Dict[str, int],
                   sources: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum counter dicts key-wise into ``target`` (missing keys added).

    The engine uses this to aggregate per-chain cache counters from
    parallel workers into one session view; summing is correct for
    every key exported by :meth:`SessionCaches.counters` (hit/miss/
    eviction tallies, entry counts and byte estimates are all additive
    across disjoint chain-local caches).
    """
    for source in sources:
        for name, value in source.items():
            target[name] = target.get(name, 0) + int(value)
    return target
