"""Compiled, reusable array form of a stage's RC tree.

Building a dict-based :class:`~repro.rctree.tree.RCTree` per delay
candidate is exactly the redundant-representation cost Ousterhout warns
about: the same (stage, path topology, conduction state) is flattened
over and over.  A :class:`TreeTemplate` compiles that structure **once**
into a flat integer parent array plus R and C vectors; subsequent
candidates re-use the template (the analyzer counts
``tree_template_hits``), and a technology or geometry change re-stamps
values into the preallocated arrays (:meth:`restamp`) instead of
rebuilding the tree.

On top of the arrays, the template memoizes the vectorized PRH kernel's
:class:`~repro.rctree.kernel.StageConstants` — Elmore, T_P and T_R for
*every* node in one pass — so a delay model asking about any measurement
node of the stage is a constant-time lookup.

Templates are deliberately **picklable** (plain tuples, dicts and numpy
arrays; cached constants ride along): the parallel workers receive the
parent's compiled templates through :class:`~repro.parallel.worker.AnalyzerSpec`
and start warm instead of re-deriving every tree.

This module stays independent of the netlist layer: stamping sources are
opaque element groups plus caller-supplied ``resistance_of`` /
``cap_of`` callables (see :func:`repro.core.timing.paths.compile_template`
for the glue).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..trace.spans import span as _trace_span
from .elmore import TimeConstants
from .kernel import (SMALL_TREE_CUTOFF, StageConstants,
                     compute_stage_constants, depth_levels, kernel_available)
from .tree import RCTree


class TreeTemplate:
    """One compiled RC tree: names + parent/R/C arrays + cached kernel.

    Nodes are stored root-first in topological (insertion) order, so
    ``parent[i] < i`` always holds; ``r[i]`` is the resistance of the
    edge above node ``i`` (``r[0] = 0``), ``c[i]`` its capacitance.

    ``edge_elements`` (optional) keeps, per node, the tuple of netlist
    elements whose parallel merge produced ``r[i]`` — the stamping
    source :meth:`restamp` refills the arrays from.  ``cap_mask[i]``
    marks nodes whose capacitance is (re)read from the network.

    ``parent``/``r``/``c`` are stored as plain lists: most compiled
    stages are small enough that the kernel dispatches to its list-based
    backend anyway (:data:`~repro.rctree.kernel.SMALL_TREE_CUTOFF`), and
    the numpy backend converts lazily, so compilation never pays numpy
    construction overhead it will not use.
    """

    __slots__ = ("names", "index", "parent", "r", "c", "cap_mask",
                 "edge_elements", "transition", "_depth", "_levels",
                 "_constants", "_node_constants", "_rctree")

    def __init__(self, names: Sequence[str], parent: Sequence[int],
                 resistances: Sequence[float],
                 capacitances: Sequence[float],
                 transition=None,
                 edge_elements: Optional[Tuple[Tuple, ...]] = None,
                 cap_mask: Optional[Sequence[bool]] = None):
        if not kernel_available():
            raise AnalysisError(
                "TreeTemplate needs numpy; use the dict-based RCTree "
                "(kernel='python') when numpy is unavailable")
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
        self.transition = transition
        self.edge_elements = edge_elements
        if cap_mask is None:
            cap_mask = [False] + [True] * (n - 1)
        self.cap_mask = tuple(bool(b) for b in cap_mask)
        self._depth = None
        self._levels = None
        self._constants: Optional[StageConstants] = None
        self._node_constants: Dict[str, TimeConstants] = {}
        self._rctree: Optional[RCTree] = None

    # -- basic access --------------------------------------------------------

    @property
    def root(self) -> str:
        return self.names[0]

    @property
    def depth(self) -> List[int]:
        """Per-node depth below the root (computed on first use)."""
        if self._depth is None:
            parent = self.parent
            depth = [0] * len(parent)
            for i in range(1, len(parent)):
                depth[i] = depth[parent[i]] + 1
            self._depth = depth
        return self._depth

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
            # The level grouping only serves the numpy backend; small
            # trees dispatch to the list backend, so don't build it for
            # them (a forced-numpy kernel computes its own).
            # Traced as a span (once per template: memoized below).
            with _trace_span("kernel_constants", nodes=len(self.parent)):
                if self._levels is None \
                        and len(self.parent) >= SMALL_TREE_CUTOFF:
                    self._levels = depth_levels(self.parent)
                self._constants = compute_stage_constants(
                    self.parent, self.r, self.c, self._levels)
        return self._constants

    def constants_for(self, node: str) -> TimeConstants:
        """The scalar :class:`TimeConstants` of one measurement node
        (memoized — repeat candidates pay one dict lookup)."""
        hit = self._node_constants.get(node)
        if hit is not None:
            return hit
        i = self.index_of(node)
        k = self.constants()
        made = TimeConstants(t_p=k.t_p, t_d=float(k.t_d[i]),
                             t_r=float(k.t_r[i]))
        self._node_constants[node] = made
        return made

    def path_resistance(self, node: str) -> float:
        """``R_ii``: total resistance from the root down to *node*."""
        return float(self.constants().rpath[self.index_of(node)])

    def total_cap(self) -> float:
        return self.constants().c_total

    # -- stamping ------------------------------------------------------------

    def restamp(self, resistance_of: Callable[[object], float],
                cap_of: Callable[[str], float]) -> None:
        """Refill the R/C arrays from the compiled stamping sources.

        ``resistance_of`` maps one netlist element to its effective
        resistance for this template's transition; parallel element
        groups merge by conductance sum, matching
        :func:`repro.core.timing.paths._merged_edge_resistance`.  Call
        after device geometry or technology tables changed in place —
        the preallocated arrays are reused, no tree is rebuilt.
        """
        if self.edge_elements is None:
            raise AnalysisError(
                "template was compiled without stamping sources "
                "(from_rctree?); rebuild it instead of restamping")
        for i in range(1, len(self.names)):
            conductance = 0.0
            for element in self.edge_elements[i]:
                conductance += 1.0 / resistance_of(element)
            self.r[i] = 1.0 / conductance
        for i, stamped in enumerate(self.cap_mask):
            self.c[i] = cap_of(self.names[i]) if stamped else 0.0
        self._constants = None
        self._node_constants.clear()
        self._rctree = None

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_rctree(cls, tree: RCTree, transition=None) -> "TreeTemplate":
        """Compile an existing dict-based tree (reference/test path)."""
        names = tree.nodes  # root first, parents precede children
        index = {name: i for i, name in enumerate(names)}
        parent: List[int] = [-1]
        r: List[float] = [0.0]
        for name in names[1:]:
            up, resistance = tree.parent_edge(name)
            parent.append(index[up])
            r.append(resistance)
        c = [tree.cap(name) for name in names]
        return cls(names, parent, r, c, transition=transition,
                   cap_mask=[True] * len(names))

    def to_rctree(self) -> RCTree:
        """Materialize the dict-based tree (memoized; fallback for
        consumers that want the full :class:`RCTree` API)."""
        if self._rctree is None:
            tree = RCTree(self.root)
            for i in range(1, len(self.names)):
                tree.add_edge(self.names[self.parent[i]], self.names[i],
                              float(self.r[i]))
                cap = float(self.c[i])
                if cap:
                    tree.add_cap(self.names[i], cap)
            root_cap = float(self.c[0])
            if root_cap:
                tree.add_cap(self.root, root_cap)
            self._rctree = tree
        return self._rctree

    # -- pickling (slots need explicit state) --------------------------------

    def __getstate__(self):
        # Cached constants ship with the template (that is the point of
        # sending compiled templates to workers); the dict-tree, depth
        # and level groupings are cheap to rebuild, so they stay home.
        return {
            "names": self.names,
            "parent": self.parent,
            "r": self.r,
            "c": self.c,
            "cap_mask": self.cap_mask,
            "edge_elements": self.edge_elements,
            "transition": self.transition,
            "constants": self._constants and (
                self._constants.t_p,
                list(self._constants.t_d),
                list(self._constants.t_r),
                list(self._constants.rpath),
                self._constants.c_total,
            ),
        }

    def __setstate__(self, state) -> None:
        self.names = state["names"]
        self.index = {m: i for i, m in enumerate(self.names)}
        self.parent = state["parent"]
        self.r = state["r"]
        self.c = state["c"]
        self.cap_mask = state["cap_mask"]
        self.edge_elements = state["edge_elements"]
        self.transition = state["transition"]
        self._depth = None
        self._levels = None
        self._node_constants = {}
        self._rctree = None
        packed = state["constants"]
        self._constants = None
        if packed is not None:
            t_p, t_d, t_r, rpath, c_total = packed
            self._constants = StageConstants(t_p=t_p, t_d=t_d, t_r=t_r,
                                             rpath=rpath, c_total=c_total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TreeTemplate root={self.root!r} nodes={len(self.names)} "
                f"depth={max(self.depth) if self.names else 0}>")
