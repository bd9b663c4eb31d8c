"""Structural pattern matching of library cells onto subject trees.

The matcher is *phase aware*: a pattern can be matched so that its
output realises either the subject signal (``POS``) or its complement
(``NEG``).  An INV pattern node may either consume a subject inverter
or supply a free negation (the classic inverter-pair trick expressed as
polarity propagation), and a subject inverter may likewise be consumed
while flipping the requested polarity.  NAND2 inputs are symmetric, so
both child orders are tried.

A :class:`Match` records the cell, the root vertex and polarity, the
set of consumed subject vertices, and the leaf bindings
``pin -> (vertex, phase)``.  The tree-covering DP
(:mod:`repro.core.covering`) consumes these.

The library's pattern trees are compiled once per library into
hash-consed nodes (:class:`_CompiledLibrary`): structurally equal
sub-patterns — the ``NAND(A, B)`` inside AND2, OR2, AOI21 and a dozen
more cells — become one node whose leaves are positional, and pin
names are attached only at each pattern root.  A node is evaluated at
most once per (vertex, phase) within one subject tree, so the cells
that share a sub-pattern share its enumeration.  The recursive search
this replaces lives on as the oracle in ``tests/oracles/match.py``.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List,
                    Optional, Sequence, Set, Tuple)

from ..library.cell import CellLibrary, LibCell
from ..library.patterns import LEAF, P_INV, P_NAND, PatternNode
from ..network.dag import BaseNetwork, INV, NAND2

if TYPE_CHECKING:  # covering imports this module
    from .covering import CoverMemo

POS = True
NEG = False

#: One partial result of a compiled node: (leaf refs in left-to-right
#: leaf order, consumed vertex set).
_Partial = Tuple[Tuple[Tuple[int, bool], ...], FrozenSet[int]]

_EMPTY: FrozenSet[int] = frozenset()
_NO_PARTIALS: Tuple[_Partial, ...] = ()


@dataclass(frozen=True, slots=True)
class Match:
    """A committed-candidate cell match rooted at a subject vertex."""

    cell: LibCell
    root: int
    phase: bool
    leaves: Tuple[Tuple[str, Tuple[int, bool]], ...]  # (pin, (vertex, phase))
    consumed: FrozenSet[int]

    def leaf_refs(self) -> List[Tuple[int, bool]]:
        """The (vertex, phase) pairs the match's input pins bind to."""
        return [ref for _, ref in self.leaves]

    def __repr__(self) -> str:
        sign = "+" if self.phase else "-"
        return (f"Match({self.cell.name}@{self.root}{sign}, "
                f"leaves={list(self.leaves)})")


class _Node:
    """One hash-consed pattern node; its leaves carry no pin names."""

    __slots__ = ("id", "kind", "children")

    def __init__(self, ident: int, kind: str,
                 children: Tuple["_Node", ...]):  # noqa: D107
        self.id = ident
        self.kind = kind
        self.children = children


class _CompiledLibrary:
    """A library's pattern trees as shared nodes plus per-pattern roots.

    ``roots`` lists ``(cell, node, pins, order)`` for every pattern in
    ``library.cells()`` order: ``pins`` names the node's positional
    leaves, and ``order`` (``None`` when the pins are already sorted)
    permutes the leaf refs into sorted-pin order, which is what
    duplicate detection compares.
    """

    def __init__(self, library: CellLibrary):  # noqa: D107
        self.nodes: List[_Node] = []
        interned: Dict[Tuple, _Node] = {}

        def intern(p: PatternNode) -> _Node:
            children = tuple(intern(c) for c in p.children)
            key = (p.kind,) + tuple(c.id for c in children)
            node = interned.get(key)
            if node is None:
                node = _Node(len(self.nodes), p.kind, children)
                self.nodes.append(node)
                interned[key] = node
            return node

        self.roots: List[Tuple[LibCell, _Node, Tuple[str, ...],
                               Optional[Tuple[int, ...]]]] = []
        for cell in library.cells():
            for pattern in cell.patterns:
                pins = tuple(pattern.leaves())
                order = tuple(sorted(range(len(pins)),
                                     key=pins.__getitem__))
                self.roots.append((cell, intern(pattern), pins,
                                   None if order == tuple(range(len(pins)))
                                   else order))


#: Compiled patterns per library.  A library is immutable once built, so
#: its compiled form is too; weak keys let dropped libraries go.
_COMPILED: "weakref.WeakKeyDictionary[CellLibrary, _CompiledLibrary]" = \
    weakref.WeakKeyDictionary()


def _compiled(library: CellLibrary) -> _CompiledLibrary:
    """The library's compiled patterns, built on first use."""
    compiled = _COMPILED.get(library)
    if compiled is None:
        compiled = _CompiledLibrary(library)
        _COMPILED[library] = compiled
    return compiled


class Matcher:
    """Enumerates matches of a library's patterns over a base network.

    Enumeration depends only on the network, the library and the
    membership set of the current subject tree — never on the covering
    objective — so results are memoized per ``(vertex, tree members)``
    (see :meth:`matches_in_tree`).  A K sweep that re-maps the same
    partitioned network 14 times then enumerates each tree's matches
    once, not once per K.  ``stats`` counts cache hits and misses;
    ``match_seconds`` accumulates the time spent in
    :meth:`matches_in_tree`.

    The matcher also carries the covering state that lives exactly as
    long as its match memo: the per-tree DP tables and the cross-K
    :class:`~repro.core.covering.CoverMemo`, both owned by
    :mod:`repro.core.covering`.
    """

    def __init__(self, network: BaseNetwork, library: CellLibrary):  # noqa: D107
        from .covering import CoverMemo  # covering imports this module
        self.network = network
        self.library = library
        self._memo: Dict[Tuple[int, FrozenSet[int]],
                         Dict[bool, List[Match]]] = {}
        self.stats: Dict[str, int] = {"match_cache_hits": 0,
                                      "match_cache_misses": 0}
        self.match_seconds = 0.0
        #: (root, members, materialized members) -> covering table.
        self.tree_tables: Dict[Tuple, Any] = {}
        self.cover_memo: CoverMemo = CoverMemo()
        # Node memo of the tree the last miss of matches_in_tree
        # enumerated in: (vertex, node id, phase) as one int -> partials.
        self._tree: Optional[FrozenSet[int]] = None
        self._tree_memo: Dict[int, Sequence[_Partial]] = {}

    def matches_in_tree(self, vertex: int, members: FrozenSet[int]
                        ) -> Dict[bool, List[Match]]:
        """Memoized :meth:`matches_at` for a tree's membership set.

        ``members`` must be the frozen member set of the subject tree
        rooted above ``vertex`` (consumability == membership).  The
        returned dict is shared between callers and must not be mutated.
        """
        t0 = time.perf_counter()
        key = (vertex, members)
        out = self._memo.get(key)
        if out is not None:
            self.stats["match_cache_hits"] += 1
        else:
            self.stats["match_cache_misses"] += 1
            if members is not self._tree:
                self._tree = members
                self._tree_memo = {}
            out = self._enumerate(vertex, members.__contains__,
                                  self._tree_memo)
            self._memo[key] = out
        self.match_seconds += time.perf_counter() - t0
        return out

    def matches_at(self, vertex: int, consumable: Callable[[int], bool]
                   ) -> Dict[bool, List[Match]]:
        """All matches rooted at ``vertex``, keyed by output phase.

        ``consumable(v)`` says whether subject vertex ``v`` may be
        covered (i.e. is internal to the current tree).  Matches that
        consume nothing (pure polarity conversions) are dropped — the
        covering DP models those explicitly with inverter insertion.
        Each call enumerates afresh (no memo outlives it).
        """
        return self._enumerate(vertex, consumable, {})

    def _enumerate(self, vertex: int, consumable: Callable[[int], bool],
                   memo: Dict[int, Sequence[_Partial]]
                   ) -> Dict[bool, List[Match]]:
        """:meth:`matches_at` over a node memo valid for ``consumable``.

        Output order is the recursive search's: library cells in name
        order, their patterns, POS before NEG, and each node's partials
        in derivation order.  Duplicates (same cell, pin bindings and
        consumed set) keep their first occurrence.
        """
        out: Dict[bool, List[Match]] = {POS: [], NEG: []}
        if not consumable(vertex):
            return out
        kinds = self.network.kind
        fanins = self.network.fanins
        compiled = _compiled(self.library)
        stride = 2 * len(compiled.nodes)

        def partials(node: _Node, s: int, phase: bool) -> Sequence[_Partial]:
            """All ways ``node`` realises (``phase`` of) vertex ``s``."""
            key = s * stride + 2 * node.id + phase
            got = memo.get(key)
            if got is not None:
                return got
            got = []
            if node.kind == LEAF:
                got.append((((s, phase),), _EMPTY))
                memo[key] = got
                return got
            if node.kind == P_INV:
                # The pattern inverter supplies the negation without
                # consuming a subject gate.
                got.extend(partials(node.children[0], s, not phase))
            kind = kinds[s]
            if kind == INV:
                if consumable(s):
                    # Consume the subject inverter, flipping the
                    # polarity the remaining pattern must realise.
                    for refs, c in partials(node, fanins[s][0], not phase):
                        got.append((refs, c | {s}))
            elif (kind == NAND2 and phase and node.kind == P_NAND
                  and consumable(s)):
                a, b = fanins[s]
                left, right = node.children
                for sa, sb in ((a, b),) if a == b else ((a, b), (b, a)):
                    lefts = partials(left, sa, POS)
                    if not lefts:
                        continue
                    rights = partials(right, sb, POS)
                    for lb, lc in lefts:
                        for rb, rc in rights:
                            got.append((lb + rb, lc | rc | {s}))
            if not got:
                got = _NO_PARTIALS  # most nodes fail; share one empty result
            memo[key] = got
            return got

        # Seen (leaf refs in sorted-pin order, consumed) per phase and
        # cell: a cell's patterns share one pin set.
        seen: Dict[bool, Dict[str, Set]] = {POS: {}, NEG: {}}
        for cell, node, pins, order in compiled.roots:
            for phase in (POS, NEG):
                found = partials(node, vertex, phase)
                if not found:
                    continue
                kept = out[phase]
                dups = seen[phase].get(cell.name)
                if dups is None:
                    dups = seen[phase][cell.name] = set()
                for part in found:
                    refs, consumed = part
                    if vertex not in consumed:
                        continue  # pure phase conversion
                    if order is not None:
                        part = (tuple(refs[i] for i in order), consumed)
                    if part in dups:
                        continue
                    dups.add(part)
                    kept.append(Match(cell, vertex, phase,
                                      tuple(zip(pins, refs)), consumed))
        # ``partials`` refers to itself; unbinding it breaks the cycle so
        # the closure is freed now instead of by the cyclic collector.
        del partials
        return out
