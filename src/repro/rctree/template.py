"""Compiled, reusable array form of a stage's RC tree.

Building a dict-based :class:`~repro.rctree.tree.RCTree` per delay
candidate is exactly the redundant-representation cost Ousterhout warns
about: the same (stage, path topology, conduction state) is flattened
over and over.  A :class:`TreeTemplate` compiles that structure **once**
into a flat integer parent list plus R and C lists; subsequent
candidates re-use the template (the analyzer counts
``tree_template_hits``).

On top of the lists, the template memoizes the O(N) PRH kernel's
:class:`~repro.rctree.kernel.StageConstants` — Elmore, T_P and T_R for
*every* node in one pass — so a delay model asking about any measurement
node of the stage is a constant-time lookup.

This module stays independent of the netlist layer; see
:func:`repro.core.timing.paths.compile_template` for the glue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..trace.spans import span as _trace_span
from .elmore import TimeConstants
from .kernel import StageConstants, compute_stage_constants
from .tree import RCTree


class TreeTemplate:
    """One compiled RC tree: names + parent/R/C lists + cached kernel.

    Nodes are stored root-first in topological (insertion) order, so
    ``parent[i] < i`` always holds; ``r[i]`` is the resistance of the
    edge above node ``i`` (``r[0] = 0``), ``c[i]`` its capacitance.
    """

    __slots__ = ("names", "index", "parent", "r", "c", "_constants",
                 "_node_constants", "_rctree")

    def __init__(self, names: Sequence[str], parent: Sequence[int],
                 resistances: Sequence[float],
                 capacitances: Sequence[float]):
        n = len(names)
        if n < 1:
            raise AnalysisError("a tree template needs at least the root")
        if not (len(parent) == len(resistances) == len(capacitances) == n):
            raise AnalysisError("template arrays must all have one entry "
                                "per node")
        self.names: Tuple[str, ...] = tuple(names)
        self.index: Dict[str, int] = {m: i for i, m in enumerate(self.names)}
        if len(self.index) != n:
            raise AnalysisError("duplicate node name in tree template")
        if parent[0] != -1:
            raise AnalysisError("template node 0 must be the root "
                                "(parent -1)")
        for i in range(1, n):
            if not 0 <= parent[i] < i:
                raise AnalysisError(
                    f"template parent[{i}] = {parent[i]} breaks topological "
                    "order (parents must precede children)")
        if resistances[0] != 0.0:
            raise AnalysisError("the root carries no parent edge (r[0] "
                                "must be 0)")
        self.parent = list(parent)
        self.r = [float(x) for x in resistances]
        self.c = [float(x) for x in capacitances]
        self._constants: Optional[StageConstants] = None
        self._node_constants: Dict[str, TimeConstants] = {}
        self._rctree: Optional[RCTree] = None

    # -- basic access --------------------------------------------------------

    @property
    def root(self) -> str:
        return self.names[0]

    def __len__(self) -> int:
        return len(self.names)

    def contains(self, node: str) -> bool:
        return node in self.index

    def index_of(self, node: str) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise AnalysisError(f"unknown node {node!r}") from None

    # -- kernel results ------------------------------------------------------

    def constants(self) -> StageConstants:
        """All-node RPH constants, computed once and memoized."""
        if self._constants is None:
            # Traced as a span (once per template: memoized below).
            with _trace_span("kernel_constants", nodes=len(self.parent)):
                self._constants = compute_stage_constants(
                    self.parent, self.r, self.c)
        return self._constants

    def constants_for(self, node: str) -> TimeConstants:
        """The scalar :class:`TimeConstants` of one measurement node
        (memoized — repeat candidates pay one dict lookup)."""
        hit = self._node_constants.get(node)
        if hit is not None:
            return hit
        i = self.index_of(node)
        k = self.constants()
        made = TimeConstants(t_p=k.t_p, t_d=k.t_d[i], t_r=k.t_r[i])
        self._node_constants[node] = made
        return made

    def path_resistance(self, node: str) -> float:
        """``R_ii``: total resistance from the root down to *node*."""
        return self.constants().rpath[self.index_of(node)]

    def total_cap(self) -> float:
        return self.constants().c_total

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_rctree(cls, tree: RCTree) -> "TreeTemplate":
        """Compile an existing dict-based tree (test path)."""
        names = tree.nodes  # root first, parents precede children
        index = {name: i for i, name in enumerate(names)}
        parent: List[int] = [-1]
        r: List[float] = [0.0]
        for name in names[1:]:
            up, resistance = tree.parent_edge(name)
            parent.append(index[up])
            r.append(resistance)
        c = [tree.cap(name) for name in names]
        return cls(names, parent, r, c)

    def to_rctree(self) -> RCTree:
        """Materialize the dict-based tree (memoized) — what the O(N^2)
        scalar reference and the exact step response take."""
        if self._rctree is None:
            tree = RCTree(self.root)
            for i in range(1, len(self.names)):
                tree.add_edge(self.names[self.parent[i]], self.names[i],
                              self.r[i])
                cap = self.c[i]
                if cap:
                    tree.add_cap(self.names[i], cap)
            root_cap = self.c[0]
            if root_cap:
                tree.add_cap(self.root, root_cap)
            self._rctree = tree
        return self._rctree

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TreeTemplate root={self.root!r} nodes={len(self.names)}>"
