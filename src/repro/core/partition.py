"""DAG partitioning into subject trees (Section 3.1, Figure 2).

Three partitioners share one tree-construction framework built on
*father links*: every gate vertex with fanout is assigned one of its
readers as its ``father``; a tree is a root plus all vertices whose
father chain reaches it.

* :func:`dagon_partition` — the DAGON baseline: the DAG is broken at
  every multi-fanout vertex, so multi-fanout vertices are leaves of
  their readers' trees (no logic duplication, no cross-fanout
  optimization).
* :func:`cone_partition` — the MIS-style scheme: fathers follow the
  depth-first traversal from the primary outputs in a caller-supplied
  order, so a multi-fanout vertex stays *internal* to the tree of the
  first reader that reaches it (enabling absorption, at the price of
  logic duplication and order dependence — the two drawbacks the paper
  lists).
* :func:`placement_partition` — the paper's contribution: the father of
  every vertex is its geometrically **nearest** reader on the layout
  image, making the result order-independent and the subject trees
  physically clustered.

Every multi-fanout vertex (and every primary-output driver) is a tree
*root* regardless of scheme: its signal must materialise as a mapped
net for its detached readers.  Under cone/placement partitioning the
same vertex can additionally be internal to its father's tree; covering
may then absorb it into a larger match, duplicating its logic — the
duplication the paper calls "comparable with [12]".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from ..errors import MappingError
from ..network.dag import BaseNetwork
from .wirecost import PositionMap

DAGON = "dagon"
CONE = "cone"
PLACEMENT = "placement"

#: Safety valve: trees larger than this stop absorbing materialized
#: vertices (they become leaves, as in DAGON), bounding nested
#: duplication on pathological fanout chains.
DEFAULT_MAX_TREE_SIZE = 4000


@dataclass
class Tree:
    """One subject tree: a root vertex plus its internal member set.

    ``members`` is frozen: it keys the matcher's memo and the covering
    tables, so a tree is never edited after partitioning.
    """

    root: int
    members: FrozenSet[int] = frozenset()

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class Partition:
    """The full partitioning result."""

    style: str
    fathers: Dict[int, int]
    roots: List[int]                  # ascending vertex id == topological
    trees: Dict[int, Tree]
    materialized: Set[int]            # vertices whose nets must exist

    def tree_sizes(self) -> List[int]:
        """Member count per tree (in root order)."""
        return [len(self.trees[r]) for r in self.roots]

    def duplication(self) -> int:
        """Total vertex memberships beyond one (absorbed materialized logic)."""
        counts: Dict[int, int] = {}
        for tree in self.trees.values():
            for v in tree.members:
                counts[v] = counts.get(v, 0) + 1
        return sum(c - 1 for c in counts.values())


def _readers(network: BaseNetwork) -> List[List[int]]:
    """Gate readers per vertex (primary-output uses excluded)."""
    return network.fanout_map()


def _root_set(network: BaseNetwork) -> Set[int]:
    """PO drivers plus multi-fanout gate vertices."""
    counts = network.fanout_counts()
    roots: Set[int] = set()
    for name in network.outputs:
        v = network.outputs[name]
        if not network.is_pi(v):
            roots.add(v)
    for v in network.gates():
        if counts[v] >= 2:
            roots.add(v)
    return roots


def _build_trees(network: BaseNetwork, fathers: Dict[int, int], style: str,
                 absorb: bool, max_tree_size: int) -> Partition:
    """Expand trees from the root set along father links."""
    roots = sorted(_root_set(network))
    trees: Dict[int, Tree] = {}
    readers_by_father: Dict[int, List[int]] = {}
    for child, father in fathers.items():
        readers_by_father.setdefault(father, []).append(child)
    root_set = set(roots)
    for root in roots:
        members = {root}
        frontier = [root]
        while frontier:
            parent = frontier.pop()
            for child in sorted(readers_by_father.get(parent, [])):
                if child in members:
                    continue
                if child in root_set and (
                        not absorb or len(members) >= max_tree_size):
                    continue  # stays a leaf; its own tree materializes it
                members.add(child)
                frontier.append(child)
        trees[root] = Tree(root=root, members=frozenset(members))
    return Partition(style=style, fathers=fathers, roots=roots, trees=trees,
                     materialized=root_set)


def dagon_partition(network: BaseNetwork,
                    max_tree_size: int = DEFAULT_MAX_TREE_SIZE) -> Partition:
    """Break the DAG at every multi-fanout vertex (DAGON, [11])."""
    fathers: Dict[int, int] = {}
    fanout = _readers(network)
    counts = network.fanout_counts()
    for v in network.gates():
        if counts[v] == 1 and fanout[v]:
            fathers[v] = fanout[v][0]
    return _build_trees(network, fathers, DAGON, absorb=False,
                        max_tree_size=max_tree_size)


def cone_partition(network: BaseNetwork,
                   output_order: Optional[Sequence[str]] = None,
                   max_tree_size: int = DEFAULT_MAX_TREE_SIZE) -> Partition:
    """MIS-style cones: father = first reader in DFS from the POs ([12]).

    ``output_order`` controls the (result-affecting) traversal order;
    defaults to sorted output names.
    """
    if output_order is None:
        output_order = sorted(network.outputs)
    fathers: Dict[int, int] = {}
    visited: Set[int] = set()

    def claim(root: int) -> None:
        stack = [root]
        while stack:
            v = stack.pop()
            if v in visited:
                continue
            visited.add(v)
            for child in network.fanins[v]:
                if network.is_pi(child):
                    continue
                if child not in fathers:
                    fathers[child] = v
                stack.append(child)

    for name in output_order:
        if name not in network.outputs:
            raise MappingError(f"unknown primary output {name!r}")
        v = network.outputs[name]
        if not network.is_pi(v):
            claim(v)
    return _build_trees(network, fathers, CONE, absorb=True,
                        max_tree_size=max_tree_size)


def placement_partition(network: BaseNetwork, positions: PositionMap,
                        max_tree_size: int = DEFAULT_MAX_TREE_SIZE) -> Partition:
    """The paper's placement-driven partitioning (Figure 2).

    ``father(w)`` is the reader of ``w`` nearest to ``w`` on the layout
    image; ties break to the smallest vertex id.  The result depends
    only on the placement, not on any traversal order — the
    order-independence property Section 3.1 emphasises.
    """
    if len(positions) < network.num_vertices():
        raise MappingError("position map smaller than the network")
    fanout = _readers(network)
    fathers: Dict[int, int] = {}
    for v in network.gates():
        readers = fanout[v]
        if not readers:
            continue
        best = None
        best_dist = float("inf")
        for u in sorted(readers):
            d = positions.dist_vertices(u, v)
            if d < best_dist:
                best_dist = d
                best = u
        assert best is not None
        fathers[v] = best
    return _build_trees(network, fathers, PLACEMENT, absorb=True,
                        max_tree_size=max_tree_size)


def partition(network: BaseNetwork, style: str,
              positions: Optional[PositionMap] = None,
              max_tree_size: int = DEFAULT_MAX_TREE_SIZE) -> Partition:
    """Dispatch on partitioning style."""
    if style == DAGON:
        return dagon_partition(network, max_tree_size)
    if style == CONE:
        return cone_partition(network, max_tree_size=max_tree_size)
    if style == PLACEMENT:
        if positions is None:
            raise MappingError("placement partitioning needs a position map")
        return placement_partition(network, positions, max_tree_size)
    raise MappingError(f"unknown partition style {style!r}")
