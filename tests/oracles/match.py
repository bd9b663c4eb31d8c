"""Recursive oracle of the compiled pattern matcher.

:func:`matches_at` is :meth:`repro.core.matching.Matcher.matches_at` as
a plain recursive search: every library pattern is re-walked at the
vertex for both output phases and both NAND2 input orders, with no
sharing between cells and no memo.  The compiled matcher must return
the same lists — same order, same bindings and ``consumed`` frozensets
built by the same set operations — for every query.
:func:`enumerate_matches` is the drop-in :func:`install` binds in
place of ``Matcher._enumerate``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from repro.core.matching import Match, Matcher, NEG, POS
from repro.library.patterns import LEAF, P_INV, P_NAND, PatternNode
from repro.network.dag import BaseNetwork, INV, NAND2

#: One partial result: (bindings, consumed vertex set).
_Partial = Tuple[Tuple[Tuple[str, Tuple[int, bool]], ...], FrozenSet[int]]


def matches_at(matcher: Matcher, vertex: int,
               consumable: Callable[[int], bool]
               ) -> Dict[bool, List[Match]]:
    """All matches rooted at ``vertex``, keyed by output phase."""
    out: Dict[bool, List[Match]] = {POS: [], NEG: []}
    if not consumable(vertex):
        return out
    for cell in matcher.library.cells():
        for pattern in cell.patterns:
            for phase in (POS, NEG):
                for bindings, consumed in _match(
                        matcher.network, pattern, vertex, phase, consumable):
                    if vertex not in consumed:
                        continue  # pure phase conversion
                    out[phase].append(Match(
                        cell=cell, root=vertex, phase=phase,
                        leaves=bindings, consumed=consumed))
    for phase in (POS, NEG):
        out[phase] = _dedupe(out[phase])
    return out


def enumerate_matches(matcher: Matcher, vertex: int,
                      consumable: Callable[[int], bool],
                      memo: Dict) -> Dict[bool, List[Match]]:
    """Drop-in for ``Matcher._enumerate``; the oracle keeps no memo."""
    return matches_at(matcher, vertex, consumable)


def _match(network: BaseNetwork, p: PatternNode, s: int, phase: bool,
           consumable: Callable[[int], bool]) -> List[_Partial]:
    """All ways pattern node ``p`` realises (``phase`` of) vertex ``s``."""
    results: List[_Partial] = []
    kind = network.kind[s]
    if p.kind == LEAF:
        assert p.pin is not None
        results.append((((p.pin, (s, phase)),), frozenset()))
        return results
    if p.kind == P_INV:
        # The pattern inverter supplies the negation without consuming
        # a subject gate.
        for bindings, consumed in _match(
                network, p.children[0], s, not phase, consumable):
            results.append((bindings, consumed))
    if kind == INV and consumable(s):
        # Consume the subject inverter, flipping the polarity the
        # remaining pattern must realise.
        child = network.fanins[s][0]
        for bindings, consumed in _match(network, p, child, not phase,
                                         consumable):
            results.append((bindings, consumed | {s}))
    if (p.kind == P_NAND and phase == POS and kind == NAND2
            and consumable(s)):
        a, b = network.fanins[s]
        left, right = p.children
        orders = [(a, b)] if a == b else [(a, b), (b, a)]
        for sa, sb in orders:
            for lb, lc in _match(network, left, sa, POS, consumable):
                for rb, rc in _match(network, right, sb, POS, consumable):
                    results.append((lb + rb, lc | rc | {s}))
    return results


def _dedupe(matches: List[Match]) -> List[Match]:
    """Drop duplicate matches (same cell, bindings and cover)."""
    seen: Set[Tuple] = set()
    out: List[Match] = []
    for m in matches:
        key = (m.cell.name, tuple(sorted(m.leaves)), m.consumed)
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out
