"""RC-tree data structure.

An RC tree is a tree of resistors rooted at an ideal source (the switching
rail or driving input), with a capacitance to ground at every node.  It is
the structure the Penfield-Rubinstein-Horowitz bounds are defined on, and
the structure the RC-tree delay model extracts from a stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import AnalysisError


@dataclass
class RCTree:
    """A rooted RC tree.

    Build with :meth:`add_edge` (parent must already be in the tree; the
    root exists from construction).  Node capacitances accumulate via
    :meth:`add_cap`.
    """

    root: str
    _parent: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    _children: Dict[str, List[str]] = field(default_factory=dict)
    _cap: Dict[str, float] = field(default_factory=dict)
    #: memoized root->node path resistances.  Edges are append-only (a
    #: node's path to the root never changes once added), so entries
    #: never go stale — no invalidation needed.
    _rpath: Dict[str, float] = field(default_factory=dict, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        self._cap.setdefault(self.root, 0.0)
        self._children.setdefault(self.root, [])

    # -- construction -------------------------------------------------------

    def add_edge(self, parent: str, child: str, resistance: float) -> None:
        if resistance <= 0:
            raise AnalysisError(f"edge {parent}->{child}: non-positive R")
        if parent not in self._cap:
            raise AnalysisError(f"parent node {parent!r} not in tree")
        if child in self._cap:
            raise AnalysisError(f"node {child!r} already in tree (not a tree?)")
        self._parent[child] = (parent, resistance)
        self._children.setdefault(parent, []).append(child)
        self._children.setdefault(child, [])
        self._cap.setdefault(child, 0.0)

    def add_cap(self, node: str, capacitance: float) -> None:
        if capacitance < 0:
            raise AnalysisError(f"negative capacitance at {node!r}")
        if node not in self._cap:
            raise AnalysisError(f"unknown node {node!r}")
        self._cap[node] += capacitance

    # -- access --------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """All nodes, root first, in insertion (topological) order."""
        return list(self._cap)

    @property
    def non_root_nodes(self) -> List[str]:
        return [n for n in self._cap if n != self.root]

    def cap(self, node: str) -> float:
        try:
            return self._cap[node]
        except KeyError:
            raise AnalysisError(f"unknown node {node!r}") from None

    def total_cap(self) -> float:
        return sum(self._cap.values())

    def parent_edge(self, node: str) -> Tuple[str, float]:
        """``(parent, resistance)`` of the edge above *node*."""
        try:
            return self._parent[node]
        except KeyError:
            raise AnalysisError(f"node {node!r} has no parent (root?)") from None

    def children(self, node: str) -> List[str]:
        return list(self._children.get(node, []))

    def contains(self, node: str) -> bool:
        return node in self._cap

    def path_to_root(self, node: str) -> Iterator[Tuple[str, str, float]]:
        """Edges from *node* up to the root as ``(child, parent, R)``."""
        if node not in self._cap:
            raise AnalysisError(f"unknown node {node!r}")
        current = node
        while current != self.root:
            parent, resistance = self._parent[current]
            yield current, parent, resistance
            current = parent

    def path_resistance(self, node: str) -> float:
        """``R_ii``: total resistance from the root down to *node*.

        Memoized as a prefix sum: the walk up stops at the first cached
        ancestor and fills the cache for every node it crossed, so N
        queries over one tree cost O(N) total instead of O(N * depth) —
        the scalar reference for the O(N) kernel's ``rpath`` pass.
        """
        if node not in self._cap:
            raise AnalysisError(f"unknown node {node!r}")
        cache = self._rpath
        chain: List[Tuple[str, float]] = []
        current = node
        total = 0.0
        while current != self.root:
            hit = cache.get(current)
            if hit is not None:
                total = hit
                break
            parent, resistance = self._parent[current]
            chain.append((current, resistance))
            current = parent
        for name, resistance in reversed(chain):
            total += resistance
            cache[name] = total
        return total

    def shared_resistance(self, node_i: str, node_k: str) -> float:
        """``R_ki``: resistance of the portion of the root→k path shared
        with the root→i path (the central quantity of the RPH bounds)."""
        path_i = {child for child, _, _ in self.path_to_root(node_i)}
        total = 0.0
        for child, _, resistance in self.path_to_root(node_k):
            if child in path_i:
                total += resistance
        return total

    # -- convenience builders ------------------------------------------------

    @classmethod
    def chain(cls, resistances: List[float], capacitances: List[float],
              root: str = "src", prefix: str = "n") -> "RCTree":
        """A uniform ladder: root -R1- n1 -R2- n2 … with C_k at n_k."""
        if len(resistances) != len(capacitances):
            raise AnalysisError("chain needs equal-length R and C lists")
        tree = cls(root)
        previous = root
        for index, (r, c) in enumerate(zip(resistances, capacitances), start=1):
            node = f"{prefix}{index}"
            tree.add_edge(previous, node, r)
            tree.add_cap(node, c)
            previous = node
        return tree

    def leaf(self) -> str:
        """The last node added (useful for chains)."""
        names = self.nodes
        if len(names) < 2:
            raise AnalysisError("tree has no non-root node")
        return names[-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<RCTree root={self.root!r} nodes={len(self._cap)} "
                f"Ctot={self.total_cap():.3g}F>")
