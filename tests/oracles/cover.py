"""Scalar oracle of the covering DP.

:func:`cover_tree` is a drop-in for
:func:`repro.core.covering.cover_tree` that scores every candidate match
with its own :func:`_evaluate` call (Eqs. 1–5 term by term) instead of
the batched per-vertex tables.  The two must agree bitwise on every
(vertex, phase) solution; this is the equivalence reference the batched
DP was derived from.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.covering import (
    BoundaryInfo,
    Solution,
    TreeCover,
    _apply_conversions,
)
from repro.core.matching import Match, Matcher, NEG, POS
from repro.core.objectives import CoverObjective
from repro.core.partition import Tree
from repro.core.wirecost import PositionMap
from repro.errors import MappingError
from repro.library.cell import CellLibrary
from repro.network.dag import BaseNetwork


def cover_tree(network: BaseNetwork, tree: Tree, matcher: Matcher,
               library: CellLibrary, objective: CoverObjective,
               boundary: BoundaryInfo,
               materialized: Set[int]) -> TreeCover:
    """:func:`repro.core.covering.cover_tree`, one match at a time."""
    members = tree.members
    root = tree.root
    inv = library.inverter
    positions = boundary.positions

    def is_shared(v: int) -> bool:
        """Leaf refs to these vertices use the existing net."""
        return v not in members or (v in materialized and v != root)

    solutions: Dict[Tuple[int, bool], Solution] = {}

    def leaf_solution(vertex: int, phase: bool) -> Solution:
        """Cost of supplying (phase of) a signal at a match leaf."""
        if is_shared(vertex):
            pos = boundary.position(vertex)
            arrival = boundary.arrival(vertex)
            # Paper-mode wire restarts at tree boundaries (the signal's
            # wire is charged to its own tree); the transitive variant
            # carries the committed figure across.
            wire_t = boundary.wire(vertex)
            if phase == POS:
                return Solution(cost=0.0, area=0.0, wire1=0.0, wire=0.0,
                                wire_transitive=wire_t, arrival=arrival,
                                com=pos, match=None)
            # A shared inverter realises the complement at the signal's
            # location; the netlist builder dedupes these per net, so
            # its area is charged only while the net does not exist yet.
            inv_area = 0.0 if boundary.has_complement(vertex) else inv.area
            arrival_neg = arrival + inv.delay(objective.load_estimate)
            return Solution(
                cost=objective.cost(inv_area, 0.0, arrival_neg),
                area=inv_area, wire1=0.0, wire=0.0,
                wire_transitive=wire_t,
                arrival=arrival_neg,
                com=pos, match=None, inv_source_phase=POS)
        sol = solutions.get((vertex, phase))
        if sol is None:
            raise MappingError(
                f"no solution for internal vertex {vertex} phase {phase}")
        return sol

    order = sorted(members)
    for v in order:
        cand: Dict[bool, Optional[Solution]] = {POS: None, NEG: None}
        matches = matcher.matches_in_tree(v, members)
        for phase in (POS, NEG):
            for match in matches[phase]:
                sol = _evaluate(match, v, objective, positions,
                                leaf_solution)
                if sol is not None and (cand[phase] is None
                                        or sol.cost < cand[phase].cost):
                    cand[phase] = sol
        _apply_conversions(cand, inv, objective)
        for phase in (POS, NEG):
            if cand[phase] is not None:
                solutions[(v, phase)] = cand[phase]
    if (root, POS) not in solutions:
        raise MappingError(f"tree rooted at {root} has no positive cover")
    return TreeCover(tree, solutions)


def _evaluate(match: Match, vertex: int, objective: CoverObjective,
              positions: PositionMap,
              leaf_solution: Callable[[int, bool], Solution],
              load: Optional[float] = None) -> Optional[Solution]:
    """Score one candidate match (Eqs. 1–5)."""
    leaf_sols: List[Solution] = []
    for _, (u, phase) in match.leaves:
        leaf_sols.append(leaf_solution(u, phase))
    area = match.cell.area + sum(s.area for s in leaf_sols)
    com = positions.centroid(match.consumed)
    wire1 = sum(positions.dist(com, s.com) for s in leaf_sols)
    # Eq. 3: WIRE2 is the fanins' *stored* wire cost — the full WIRE of
    # each fanin's chosen solution, not just its one-level WIRE1 — so
    # wire accumulates through deep trees instead of being forgotten
    # two levels down.
    wire2 = sum(s.wire for s in leaf_sols)
    wire = wire1 + wire2
    wire_transitive = wire1 + sum(s.wire_transitive for s in leaf_sols)
    arrival = (max((s.arrival for s in leaf_sols), default=0.0)
               + match.cell.delay(load if load is not None
                                  else objective.load_estimate))
    wire_scored = wire_transitive if objective.transitive_wire else wire
    cost = objective.cost(area, wire_scored, arrival)
    return Solution(cost=cost, area=area, wire1=wire1, wire=wire,
                    wire_transitive=wire_transitive, arrival=arrival,
                    com=com, match=match)
