"""The compiled pattern matcher vs its recursive oracle.

The compiled matcher shares structurally equal sub-patterns across
cells and memoizes node results within one subject tree.  It must
return exactly the lists the recursive search in
``tests/oracles/match.py`` returns: same matches in the same order,
same leaf bindings, and ``consumed`` sets that iterate in the same
order (the covering DP sums centroids in ``list(consumed)`` order).
"""

import pytest

from repro.circuits import spla_like
from repro.core import Matcher, NEG, POS, partition
from repro.library import CORELIB018
from repro.network import decompose
from repro.place import Floorplan
from repro.place.placer import place_base_network
from tests.oracles import match as oracle


def listing(matches):
    """Everything the covering DP reads of a match list, in order."""
    return [[(m.cell.name, m.root, m.phase, m.leaves, list(m.consumed))
             for m in matches[phase]] for phase in (POS, NEG)]


@pytest.fixture(scope="module", params=[(0.06, 20), (0.125, 32)],
                ids=["spla@0.06", "spla@0.125"])
def placed_partition(request):
    """A benchmark's base network and its placement partition."""
    scale, rows = request.param
    base = decompose(spla_like(scale))
    positions = place_base_network(
        base, Floorplan.from_rows(rows, aspect=1.0), seed=0)
    return base, partition(base, "placement", positions=positions)


class TestAgainstOracle:
    def test_every_tree_query(self, placed_partition):
        base, part = placed_partition
        matcher = Matcher(base, CORELIB018)
        queries = 0
        for root in part.roots:
            members = part.trees[root].members
            for v in sorted(members):
                got = matcher.matches_in_tree(v, members)
                want = oracle.matches_at(matcher, v, members.__contains__)
                assert listing(got) == listing(want), (root, v)
                queries += 1
        assert matcher.stats["match_cache_misses"] == queries

    def test_memo_follows_the_tree(self, placed_partition):
        """Interleaved trees A, B, A with an arbitrary query between."""
        base, part = placed_partition
        matcher = Matcher(base, CORELIB018)

        def oracle_in(tree, v):
            return listing(oracle.matches_at(matcher, v,
                                             tree.members.__contains__))

        # A vertex absorbed into two trees whose memberships give it
        # different matches: a node memo kept across the two trees
        # would hand one tree the other's results.
        owners = {}
        for root in part.roots:
            for v in part.trees[root].members:
                owners.setdefault(v, []).append(part.trees[root])
        a, b, v = next(
            (s, t, v) for v, trees in sorted(owners.items())
            for s in trees for t in trees
            if s is not t and v != s.root
            and oracle_in(s, v) != oracle_in(t, v))
        order = sorted(a.members)
        first = [u for u in order if u <= v]
        rest = [u for u in order if u > v]
        for tree, vertices in ((a, first), (b, sorted(b.members))):
            for u in vertices:
                assert listing(matcher.matches_in_tree(u, tree.members)) \
                    == oracle_in(tree, u), u

        def everything_even(u):
            return u % 2 == 0 or u in a.members

        probe = rest[-1]
        assert listing(matcher.matches_at(probe, everything_even)) == \
            listing(oracle.matches_at(matcher, probe, everything_even))
        for u in rest:
            assert listing(matcher.matches_in_tree(u, a.members)) == \
                oracle_in(a, u), u
