"""Dynamic-programming tree covering (Section 3.2).

Keutzer's optimal tree covering, extended per the paper:

* every tree vertex gets a best solution for **both polarities** (an
  inverter converts between them at known cost),
* each candidate's cost is ``AREA + K * WIRE`` (Eq. 5) where

  - ``AREA(m, v)``  = cell area + sum of the fanin subtrees' area costs
    (Eq. 1),
  - ``WIRE1(m, v)`` = summed distance from the match's center of mass
    to the centers of mass of its fanins' chosen matches (Eq. 2),
  - ``WIRE2(m, v)`` = the sum of the fanins' **stored** wire costs
    (Eq. 3) — each fanin contributes the full ``WIRE`` of its own
    chosen solution, so deep trees accumulate their wire all the way
    down to this tree's leaves — and ``WIRE = WIRE1 + WIRE2`` (Eq. 4).
    (Shared leaves contribute zero: their wire is charged to the tree
    that materializes them.)  The Pedram–Bhat ``transitive_wire``
    variant additionally carries wire *across* tree boundaries, down to
    the primary inputs, via the committed figures in
    :class:`BoundaryInfo`,

* the center of mass of the selected match is stored per vertex so
  parents retrieve it in O(1) — the incremental companion-placement
  update of Section 3.2,
* leaves that refer to *materialized* signals (tree boundaries or
  absorbed multi-fanout vertices) cost nothing in area — their logic is
  paid for by their own tree — and sit at their committed positions.
  A NEG reference to a materialized signal costs one inverter the
  *first* time any tree needs that complement; the netlist builder
  shares a single inverter per net, and :class:`BoundaryInfo` tells the
  DP which complements already exist so it does not charge them again.

An arrival-time estimate rides along for the delay objective.
"""

from __future__ import annotations

import bisect as _bisect
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..errors import MappingError
from ..library.cell import CellLibrary, LibCell
from ..network.dag import BaseNetwork
from .matching import Match, Matcher, NEG, POS
from .objectives import CoverObjective
from .partition import Tree
from .wirecost import EUCLIDEAN, Point, PositionMap


@dataclass(slots=True)
class Solution:
    """Best cover found for one (vertex, phase)."""

    cost: float
    area: float
    wire1: float            # Eq. 2 of the chosen match (one level)
    wire: float             # Eq. 4: wire1 + fanins' stored wire
    wire_transitive: float  # accumulated across tree boundaries to PIs
    arrival: float
    com: Point              # center of mass of the chosen match
    match: Optional[Match]  # None for an inverter phase-conversion
    inv_source_phase: Optional[bool] = None
    inv_source: Optional["Solution"] = None


class TreeCover:
    """The covering result for one subject tree."""

    def __init__(self, tree: Tree,
                 solutions: Dict[Tuple[int, bool], Solution]):  # noqa: D107
        self.tree = tree
        self.solutions = solutions

    def root_solution(self) -> Solution:
        """The committed solution: the root in positive phase."""
        return self.solutions[(self.tree.root, POS)]


class BoundaryInfo:
    """What the DP knows about signals materialized outside this tree."""

    def __init__(self, positions: PositionMap,
                 arrivals: Optional[Dict[int, float]] = None,
                 wires: Optional[Dict[int, float]] = None,
                 complemented: Optional[Set[int]] = None):  # noqa: D107
        self.positions = positions
        self.arrivals = arrivals or {}
        self.wires = wires if wires is not None else {}
        self.complemented = complemented if complemented is not None else set()

    def position(self, vertex: int) -> Point:
        """Committed position of a materialized signal."""
        return self.positions.get(vertex)

    def arrival(self, vertex: int) -> float:
        """Committed arrival time of a materialized signal (ns)."""
        return self.arrivals.get(vertex, 0.0)

    def wire(self, vertex: int) -> float:
        """Committed transitive wire cost of a materialized signal (µm)."""
        return self.wires.get(vertex, 0.0)

    def has_complement(self, vertex: int) -> bool:
        """Whether the complement net of a signal already exists.

        The netlist builder shares one inverter per materialized net;
        once some tree has paid for it, later NEG references are free.
        """
        return vertex in self.complemented


def _assignment_fingerprint(cover: TreeCover,
                            is_shared: Callable[[int], bool]) -> Tuple:
    """Canonical description of the realized assignment of a cover.

    Serialises the chosen-solution tree reachable from the root's
    positive phase: match choices (cell name + pin-to-leaf bindings),
    inverter phase conversions, and shared-leaf references (the
    terminals).  Everything the netlist builder commits — instances,
    connectivity, centers of mass, the boundary figures — is a pure
    function of this fingerprint plus the DP-input signature, so two
    covers with equal fingerprints under equal signatures realise
    identically.
    """
    memo: Dict[Tuple[int, bool], Tuple] = {}

    def ref_fp(vertex: int, phase: bool) -> Tuple:
        if is_shared(vertex):
            return ("s", vertex, phase)
        got = memo.get((vertex, phase))
        if got is None:
            got = sol_fp(cover.solutions[(vertex, phase)])
            memo[(vertex, phase)] = got
        return got

    def sol_fp(sol: Solution) -> Tuple:
        if sol.match is None:
            if sol.inv_source is None:
                raise MappingError("conversion solution without a source")
            return ("i", sol_fp(sol.inv_source))
        m = sol.match
        return ("m", m.cell.name, m.phase,
                tuple((pin, ref_fp(u, ph)) for pin, (u, ph) in m.leaves))

    return ref_fp(cover.tree.root, POS)


class CoverMemo:
    """Cross-K covering-DP reuse (the parametric-optimisation memo).

    For a fixed subject tree and fixed DP inputs other than K — the
    match lists, the member positions, the boundary figures of every
    shared leaf any candidate can reference — the total cost of a full
    cover assignment is *affine in K* (``cost = AREA + K·WIRE``,
    Eq. 5; in delay mode ``arrival + K·WIRE``, equally affine), so the
    DP optimum over assignments is the lower envelope of a family of
    lines: concave, piecewise linear in K.  If the DP returned the
    *same* assignment at K₁ and at K₂ > K₁, that assignment is optimal
    throughout [K₁, K₂] and a probe at any interior K can reuse the
    stored cover without re-running the DP.

    The memo stores, per tree and per DP-input signature, the evaluated
    ``(K, assignment fingerprint, cover)`` triples in K order.  A
    lookup hits when its K was evaluated exactly, or when the two
    bracketing evaluated Ks carry equal fingerprints.  Ascending walks
    (sweeps, the Figure 3 loop) never have a right bracket, so they
    never hit; the memo pays off in the bracketing searches of
    :mod:`repro.core.ksearch`, which probe interior Ks by construction.
    Exact cost ties between *distinct* assignments are the one case the
    affine argument does not pin down; the DP's deterministic scan
    order resolves such ties identically at every K where they hold,
    and the equivalence tests assert memo-on runs bit-identical to
    memo-off runs.

    One memo hangs off each :class:`Matcher` (its ``cover_memo``,
    declared beside the per-tree DP tables).  The memo itself never queries
    the matcher — shared-leaf reference sets are *peeked* from the
    matcher's match memo at store time, right after a DP ran — and the
    mapper credits each hit with the ``len(tree.members)`` match
    queries the skipped DP would have issued, which keeps
    ``map.match_queries`` independent of the execution plan.
    """

    def __init__(self) -> None:  # noqa: D107
        #: key -> {signature -> [(k, fingerprint, cover)] sorted by k}.
        self._entries: Dict[Tuple, Dict[Tuple, List[Tuple]]] = {}
        #: key -> (sorted members, sorted shared (vertex, phase) refs).
        self._refs: Dict[Tuple, Tuple[List[int], Tuple]] = {}
        self.lookups = 0
        self.hits = 0
        self.stores = 0

    def probe(self, tree: Tree, materialized: Set[int], matcher: Matcher,
              objective: CoverObjective,
              boundary: BoundaryInfo) -> "_MemoProbe":
        """A lookup/store handle for one ``cover_tree`` call site."""
        mat = frozenset(v for v in tree.members
                        if v in materialized and v != tree.root)
        key = (tree.root, tree.members, mat)
        return _MemoProbe(self, key, matcher, objective, boundary)


class _MemoProbe:
    """Binds a :class:`CoverMemo` to one tree, objective and boundary.

    The probe is built *before* the tree's cover is committed, so its
    signature captures the DP inputs exactly as the DP (or the reused
    cover) saw them.
    """

    __slots__ = ("memo", "key", "matcher", "objective", "boundary", "_sig")

    def __init__(self, memo: CoverMemo, key: Tuple, matcher: Matcher,
                 objective: CoverObjective,
                 boundary: BoundaryInfo) -> None:  # noqa: D107
        self.memo = memo
        self.key = key
        self.matcher = matcher
        self.objective = objective
        self.boundary = boundary
        self._sig: Optional[Tuple] = None

    def _is_shared(self, v: int) -> bool:
        return v not in self.key[1] or v in self.key[2]

    def _signature(self) -> Optional[Tuple]:
        """Every DP input other than K, as one hashable tuple.

        ``None`` until the shared-reference set of this tree is known
        (it is derived on the first store; see :meth:`_derive_refs`).
        """
        if self._sig is None:
            cached = self.memo._refs.get(self.key)
            if cached is None:
                return None
            members_sorted, refs = cached
            boundary = self.boundary
            positions = boundary.positions
            obj = self.objective
            shared_vals = []
            for u, ph in refs:
                vals: Tuple[Any, ...] = (
                    u, ph, boundary.position(u), boundary.wire(u),
                    boundary.arrival(u))
                if ph == NEG:
                    vals += (boundary.has_complement(u),)
                shared_vals.append(vals)
            self._sig = (obj.mode, obj.transitive_wire, obj.load_estimate,
                         positions.metric,
                         tuple(positions.get(v) for v in members_sorted),
                         tuple(shared_vals))
        return self._sig

    def lookup(self) -> Optional[TreeCover]:
        """The reusable cover for this tree at ``objective.k``, if any."""
        self.memo.lookups += 1
        sig = self._signature()
        if sig is None:
            return None
        by_sig = self.memo._entries.get(self.key)
        entries = by_sig.get(sig) if by_sig else None
        if not entries:
            return None
        k = self.objective.k
        ks = [entry[0] for entry in entries]
        i = _bisect.bisect_left(ks, k)
        if i < len(entries) and entries[i][0] == k:
            self.memo.hits += 1
            return entries[i][2]
        if 0 < i < len(entries) and entries[i - 1][1] == entries[i][1]:
            # K is bracketed by two evaluated Ks whose optimal
            # assignments agree — affine costs make that assignment
            # optimal at every K in between.
            self.memo.hits += 1
            return entries[i - 1][2]
        return None

    def store(self, cover: TreeCover) -> None:
        """Record a freshly computed cover at ``objective.k``."""
        memo = self.memo
        if self.key not in memo._refs:
            refs = self._derive_refs()
            if refs is None:  # pragma: no cover - defensive
                return
            memo._refs[self.key] = refs
            self._sig = None
        sig = self._signature()
        if sig is None:  # pragma: no cover - defensive
            return
        fp = _assignment_fingerprint(cover, self._is_shared)
        entries = memo._entries.setdefault(self.key, {}).setdefault(sig, [])
        k = self.objective.k
        ks = [entry[0] for entry in entries]
        i = _bisect.bisect_left(ks, k)
        if i < len(entries) and entries[i][0] == k:
            return
        entries.insert(i, (k, fp, cover))
        memo.stores += 1

    def _derive_refs(self) -> Optional[Tuple[List[int], Tuple]]:
        """Shared-leaf references of *any* candidate match of the tree.

        They are the shared columns of the tree's DP table, built from
        match lists peeked from the matcher's match memo (populated by
        the DP that just ran) — peeking instead of querying keeps the
        matcher's hit/miss counters, and with them
        ``map.match_queries``, untouched.  Losing candidates matter
        too: a boundary change at a leaf only a losing match
        references can flip the argmin, so the signature must cover
        every reference.
        """
        frozen = self.key[1]
        lists = [self.matcher._memo.get((v, frozen)) for v in sorted(frozen)]
        if any(matches is None for matches in lists):  # pragma: no cover
            return None  # defensive: the DP queried every member
        table = _tree_table(self.matcher, self.key, lists)
        return (table.order, tuple(sorted(table.shared)))


def _wire_for_mode(sol: Solution, objective: CoverObjective) -> float:
    """The wire figure the objective scores (paper vs transitive)."""
    if objective.transitive_wire:
        return sol.wire_transitive
    return sol.wire


def _apply_conversions(cand: Dict[bool, Optional[Solution]], inv,
                       objective: CoverObjective) -> None:
    """Inverter phase conversions, applied to both phases in place.

    A conversion always chains from the opposite phase's *match-based*
    best, never from another conversion — this keeps realisation
    acyclic.
    """
    match_based = dict(cand)
    for phase in (POS, NEG):
        source = match_based[not phase]
        if source is None:
            continue
        arrival = source.arrival + inv.delay(objective.load_estimate)
        converted = Solution(
            cost=objective.cost(source.area + inv.area,
                                _wire_for_mode(source, objective),
                                arrival),
            area=source.area + inv.area,
            wire1=source.wire1,
            wire=source.wire,
            wire_transitive=source.wire_transitive,
            arrival=arrival,
            com=source.com,
            match=None,
            inv_source_phase=not phase,
            inv_source=source)
        if cand[phase] is None or converted.cost < cand[phase].cost:
            cand[phase] = converted


class _Level:
    """The candidates of one in-tree height level, evaluated in one batch.

    ``lo:hi`` is the level's slice of the tree's candidate order;
    ``slots`` holds each candidate's leaf columns of the value table,
    padded to the level's widest match with the pad column, and
    ``mask`` zeroes the pad columns' distances (``None`` without
    padding).  ``vertices`` holds ``(vertex, POS start, NEG start,
    end, value column of the vertex's POS phase or -1 if shared)`` in
    ascending vertex order, candidate positions level-local.
    """

    __slots__ = ("lo", "hi", "slots", "mask", "vertices")

    def __init__(self, lo: int, flat: List[int], widths: List[int],
                 pad: int, vertices: List[Tuple[int, int, int, int, int]]
                 ) -> None:  # noqa: D107
        self.lo = lo
        self.hi = lo + len(widths)
        self.vertices = vertices
        self.slots: Optional[np.ndarray] = None
        self.mask: Optional[np.ndarray] = None
        if widths:
            k = np.array(widths, dtype=np.intp)
            used = np.arange(k.max()) < k[:, None]
            self.slots = np.full(used.shape, pad, dtype=np.intp)
            self.slots[used] = flat
            if not used.all():
                self.mask = used.astype(float)


class _TreeTable:
    """Tree-local DP descriptors of one subject tree.

    Built once per ``(root, members, materialized members)`` from the
    tree's match lists and cached on the matcher (``tree_tables``), so
    it amortizes across K points; it never depends on the objective,
    the positions or the boundary figures.

    Every (vertex, phase) a candidate leaf can reference is one column
    of the per-call value table: both phases of every non-shared member
    first (written by the DP as it goes), then the ``shared``
    references (filled from :class:`BoundaryInfo` per call), then one
    pad column.  Candidates are ordered by in-tree height level — one
    more than the highest non-shared vertex any candidate of the vertex
    references — then by vertex, POS before NEG, each phase in
    match-list order.  A level reads only lower levels' columns, so
    each level is one batch.  Centroids group the whole tree's
    candidates by consumed-set size and keep ``list(consumed)`` order,
    the order a scalar centroid sums in.
    """

    __slots__ = ("order", "matches", "cell_area", "cells", "cell_idx",
                 "n_internal", "shared", "cons_groups",
                 "levels", "n_slots", "_delays")

    def __init__(self, order: List[int],
                 lists: List[Dict[bool, List[Match]]],
                 internal: FrozenSet[int]) -> None:  # noqa: D107
        self.order = order
        inner = [v for v in order if v in internal]
        self.n_internal = len(inner)
        slot_of: Dict[Tuple[int, bool], int] = {}
        for i, v in enumerate(inner):
            slot_of[(v, POS)] = 2 * i
            slot_of[(v, NEG)] = 2 * i + 1
        n_inner_slots = 2 * len(inner)
        inner_height = [0] * len(inner)
        self.shared: List[Tuple[int, bool]] = []
        # height -> [(vertex, POS list, NEG list, leaf slots, widths,
        #             POS value column or -1)], vertices ascending.
        by_level: Dict[int, List[Tuple]] = {}
        for v, by_phase in zip(order, lists):
            height = 0
            flat: List[int] = []
            widths: List[int] = []
            for phase in (POS, NEG):
                for m in by_phase[phase]:
                    widths.append(len(m.leaves))
                    for _, ref in m.leaves:
                        s = slot_of.get(ref)
                        if s is None:
                            s = slot_of[ref] = n_inner_slots + len(self.shared)
                            self.shared.append(ref)
                        elif s < n_inner_slots and \
                                inner_height[s >> 1] >= height:
                            height = inner_height[s >> 1] + 1
                        flat.append(s)
            col = slot_of[(v, POS)] if v in internal else -1
            if col >= 0:
                inner_height[col >> 1] = height
            by_level.setdefault(height, []).append(
                (v, by_phase[POS], by_phase[NEG], flat, widths, col))
        self.n_slots = len(slot_of)

        # Lay the candidates out level by level.
        self.matches: List[Match] = []
        self.levels: List[_Level] = []
        for height in sorted(by_level):
            lo = len(self.matches)
            flat_l: List[int] = []
            widths_l: List[int] = []
            vertices = []
            for v, pos_m, neg_m, flat, widths, col in by_level[height]:
                a = len(self.matches) - lo
                self.matches.extend(pos_m)
                self.matches.extend(neg_m)
                flat_l.extend(flat)
                widths_l.extend(widths)
                vertices.append((v, a, a + len(pos_m),
                                 len(self.matches) - lo, col))
            self.levels.append(_Level(lo, flat_l, widths_l, self.n_slots,
                                      vertices))

        # Per-candidate cell figures and consumed sets, in that layout.
        cell_index: Dict[str, int] = {}
        self.cells: List[LibCell] = []
        cell_idx: List[int] = []
        cons_flat: List[int] = []
        cons_size: List[int] = []
        for m in self.matches:
            c = cell_index.get(m.cell.name)
            if c is None:
                c = cell_index[m.cell.name] = len(self.cells)
                self.cells.append(m.cell)
            cell_idx.append(c)
            cons_flat.extend(m.consumed)
            cons_size.append(len(m.consumed))
        self.cell_idx = np.array(cell_idx, dtype=np.intp)
        self.cell_area = np.array([c.area for c in self.cells],
                                  dtype=float)[self.cell_idx]
        sizes = np.array(cons_size, dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        ids = np.array(cons_flat, dtype=np.intp)
        # Candidates grouped by consumed-set size; each row lists the
        # set in ``list(consumed)`` order.
        self.cons_groups = []
        for size in np.unique(sizes).tolist():
            idx = np.flatnonzero(sizes == size)
            self.cons_groups.append(
                (idx, ids[starts[idx, None] + np.arange(size)]))
        self._delays: Dict[float, np.ndarray] = {}

    def delays(self, load: float) -> np.ndarray:
        """Per-candidate cell delay under the objective's load estimate."""
        d = self._delays.get(load)
        if d is None:
            d = np.array([c.delay(load) for c in self.cells],
                         dtype=float)[self.cell_idx]
            self._delays[load] = d
        return d


def _tree_table(matcher: Matcher, key: Tuple[int, FrozenSet[int],
                                             FrozenSet[int]],
                lists: List[Dict[bool, List[Match]]]) -> _TreeTable:
    """The cached table of ``key`` = (root, members, materialized
    members), built from ``lists`` (one per member, ascending) if new."""
    table = matcher.tree_tables.get(key)
    if table is None:
        _, members, mat = key
        table = _TreeTable(sorted(members), lists, members - mat)
        matcher.tree_tables[key] = table
    return table


def cover_tree(network: BaseNetwork, tree: Tree, matcher: Matcher,
               library: CellLibrary, objective: CoverObjective,
               boundary: BoundaryInfo,
               materialized: Set[int]) -> TreeCover:
    """Cover one subject tree bottom-up; returns the full DP table.

    ``materialized`` lists vertices whose signal exists as a net even if
    they are members of this tree (multi-fanout absorption); the root
    itself is excluded from that treatment since this call is what
    materializes it.

    The tree's candidates are evaluated one in-tree height level at a
    time (see :class:`_TreeTable`): every candidate's centroid comes
    from one grouped gather per tree, and each level's leaf costs from
    one gather of the value table.  All floating-point summation orders
    reproduce a per-match scalar DP exactly (sequential leaf sums,
    ``mean`` over the consumed set in set-iteration order), so the
    result is bit-identical to the oracle in ``tests/oracles/cover.py``.
    """
    members = tree.members
    root = tree.root
    mat = frozenset(v for v in members if v in materialized and v != root)
    table = _tree_table(matcher, (root, members, mat),
                        [matcher.matches_in_tree(v, members)
                         for v in sorted(members)])
    inv = library.inverter
    positions = boundary.positions
    X, Y = positions.arrays()
    euclid = positions.metric == EUCLIDEAN
    inv_delay = inv.delay(objective.load_estimate)

    # The value table: one column per referenced (vertex, phase) plus
    # the pad column; rows are scratch (leaf distance), area, wire,
    # transitive wire, arrival and the center of mass.
    values = np.zeros((7, table.n_slots + 1))
    values[4, -1] = -np.inf  # the pad column never wins the arrival max
    if table.shared:
        shared = []
        for u, phase in table.shared:
            arrival = boundary.arrival(u)
            if phase == POS:
                area, arrival_ref = 0.0, arrival
            else:
                area = 0.0 if boundary.has_complement(u) else inv.area
                arrival_ref = arrival + inv_delay
            shared.append((area, 0.0, boundary.wire(u), arrival_ref)
                          + boundary.position(u))
        values[1:, 2 * table.n_internal:table.n_slots] = \
            np.array(shared).T

    comx = np.empty(len(table.matches))
    comy = np.empty(len(table.matches))
    for idx, cids in table.cons_groups:
        # ``mean(axis=1)`` without its Python overhead: the same
        # reduction, divided by the same count.
        comx[idx] = np.add.reduce(X[cids], axis=1) / cids.shape[1]
        comy[idx] = np.add.reduce(Y[cids], axis=1) / cids.shape[1]
    com_l = list(zip(comx.tolist(), comy.tolist()))
    delays = table.delays(objective.load_estimate)
    matches = table.matches

    solutions: Dict[Tuple[int, bool], Solution] = {}
    unsolved: Dict[int, Tuple[int, bool]] = {}
    for level in table.levels:
        lo, hi = level.lo, level.hi
        if level.slots is None:
            columns: List[List[float]] = [[]] * 6
        else:
            for s in unsolved:
                if (level.slots == s).any():
                    raise MappingError(
                        "no solution for internal vertex {} phase {}"
                        .format(*unsolved[s]))
            g = values[:, level.slots]
            cx = comx[lo:hi, None]
            cy = comy[lo:hi, None]
            if euclid:
                dist = np.hypot(cx - g[5], cy - g[6])
            else:
                dist = np.abs(cx - g[5]) + np.abs(cy - g[6])
            if level.mask is not None:
                dist *= level.mask
            g[0] = dist
            # Sequential sums over the leaf columns, as a scalar DP
            # adds them: wire1, area, wire, transitive wire.
            acc = g[:4, :, 0].copy()
            for j in range(1, g.shape[2]):
                acc += g[:4, :, j]
            # Rows: cost, area, wire1, wire, transitive wire, arrival.
            out = np.empty((6, hi - lo))
            np.add(table.cell_area[lo:hi], acc[1], out=out[1])
            out[2] = acc[0]
            np.add(acc[0], acc[2], out=out[3])
            np.add(acc[0], acc[3], out=out[4])
            np.add(g[4].max(axis=1), delays[lo:hi], out=out[5])
            out[0] = objective.cost(
                out[1], out[4] if objective.transitive_wire else out[3],
                out[5])
            columns = out.tolist()
        costs = columns[0]
        written: List[int] = []
        rows: List[Tuple[float, ...]] = []
        for v, a, b, end, col in level.vertices:
            cand: Dict[bool, Optional[Solution]] = {POS: None, NEG: None}
            for phase, first, stop in ((POS, a, b), (NEG, b, end)):
                if stop > first:
                    # First-occurrence argmin, as a scalar strict-``<``
                    # scan selects.
                    i = min(range(first, stop), key=costs.__getitem__)
                    cand[phase] = Solution(
                        costs[i], columns[1][i], columns[2][i],
                        columns[3][i], columns[4][i], columns[5][i],
                        com_l[lo + i], matches[lo + i])
            _apply_conversions(cand, inv, objective)
            for phase in (POS, NEG):
                sol = cand[phase]
                if sol is not None:
                    solutions[(v, phase)] = sol
                if col < 0:
                    continue
                s = col if phase == POS else col + 1
                if sol is None:
                    unsolved[s] = (v, phase)
                    continue
                written.append(s)
                rows.append((sol.area, sol.wire, sol.wire_transitive,
                             sol.arrival) + sol.com)
        if written:
            values[1:, written] = np.array(rows).T
    if (root, POS) not in solutions:
        raise MappingError(f"tree rooted at {root} has no positive cover")
    return TreeCover(tree, solutions)
