"""Stage-level connectivity: which stages a node event can affect.

Stages communicate exclusively through gates (two distinct
channel-connected regions can only share a supply or a driven node), so
the stage graph has an edge S → T whenever an internal node of S gates a
transistor of T.  Driven inputs additionally fan out to every stage they
either gate or touch as a channel boundary (pass chains).

One gate is left out: a stage's own node that gates only depletion
devices of that stage.  The delay models treat a depletion load as
always on, so its gate never triggers a path; an nMOS load's gate is
tied to its own output, and listing it would only make the stage
re-schedule itself and read as a feedback cycle.

The graph also exposes a topological *levelization*: ``level(stage)`` is
the length of the longest predecessor chain feeding the stage.  The
analyzer's priority worklist pops stages in level order, which on
feed-forward logic means every stage is visited after all of its inputs
have settled — the classic levelized discipline that makes worst-case
(longest-path) propagation converge in one pass.  Stages on feedback
cycles cannot be levelized; they, and every stage downstream of one (the
*loop stages*), are assigned a level after every acyclic stage and the
analyzer's fixpoint iteration handles them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ...netlist import Network, NodeRole
from ...netlist.stages import Stage, StageMap
from ...tech import DeviceKind


@dataclass
class StageGraph:
    """Sensitivity, successor, and level maps over a network's stages.

    Nodes are numbered once per graph, rails included, in sorted name
    order (so sorting ids sorts names); the timing engine keys all of its
    per-run state on these ids (an event is ``2 * node id + transition``).
    """

    stage_map: StageMap
    #: node name -> id, and id -> name
    node_ids: Dict[str, int]
    node_names: List[str]
    #: node id -> driven externally (a rail or a primary input)
    driven: List[bool]
    #: names of the primary inputs
    inputs: FrozenSet[str]
    #: stage index -> its internal node ids, ascending
    internal: List[Tuple[int, ...]]
    #: node id -> indices of the stages to re-evaluate when the node changes
    sensitivity: List[List[int]]
    #: stage index -> successor stage indices, built once (stages are static)
    _successors: Dict[int, List[int]] = field(default_factory=dict)
    _levels: Optional[Dict[int, int]] = None
    _loops: FrozenSet[int] = frozenset()
    #: node id -> forward closure of stage indices (dirty-cone memo)
    _cones: Dict[int, FrozenSet[int]] = field(default_factory=dict)

    @classmethod
    def build(cls, network: Network) -> "StageGraph":
        stage_map = StageMap.build(network)
        nodes = sorted(network.nodes, key=attrgetter("name"))
        names = [node.name for node in nodes]
        ids = dict(zip(names, range(len(names))))
        sensitivity: List[List[int]] = [[] for _ in names]
        for stage in stage_map.stages:
            gates = stage.gate_inputs
            own = gates & stage.internal_nodes
            if own:
                # Own nodes that gate only depletion devices are left out
                # (the module docstring says why).
                gates = gates - (own - {
                    device.gate for device in stage.transistors
                    if device.kind is not DeviceKind.NMOS_DEP})
            for node in gates | stage.boundary_nodes:
                sensitivity[ids[node]].append(stage.index)
        return cls(stage_map=stage_map, node_ids=ids, node_names=names,
                   driven=[node.is_driven_externally for node in nodes],
                   inputs=frozenset(node.name for node in nodes
                                    if node.role is NodeRole.INPUT),
                   internal=[tuple(sorted(map(ids.__getitem__,
                                              stage.internal_nodes)))
                             for stage in stage_map.stages],
                   sensitivity=sensitivity)

    @property
    def stages(self) -> List[Stage]:
        return self.stage_map.stages

    def _successor_indices(self, index: int) -> List[int]:
        cached = self._successors.get(index)
        if cached is None:
            cached = self._successors[index] = list(dict.fromkeys(
                successor for node in self.internal[index]
                for successor in self.sensitivity[node]))
        return cached

    def successors(self, stage: Stage) -> List[Stage]:
        """Stages fed by this stage's internal nodes (cached)."""
        stages = self.stages
        return [stages[i] for i in self._successor_indices(stage.index)]

    # -- dirty cones ---------------------------------------------------

    def node_cone(self, node: str) -> FrozenSet[int]:
        """Forward closure of stages an event on *node* can reach.

        BFS from the node's sensitivity list through the successor
        stages, memoized per node id — a delta sweep asks for the same
        few changed-input cones over and over, so after the first vector
        every cone is a dict lookup.
        """
        number = self.node_ids[node]
        cached = self._cones.get(number)
        if cached is None:
            seen = set(self.sensitivity[number])
            queue = deque(sorted(seen))
            while queue:
                for successor in self._successor_indices(queue.popleft()):
                    if successor not in seen:
                        seen.add(successor)
                        queue.append(successor)
            cached = self._cones[number] = frozenset(seen)
        return cached

    def dirty_cone(self, nodes: Iterable[str]) -> FrozenSet[int]:
        """Stages whose evaluation can depend on any of *nodes* — the set
        a delta re-analysis must re-evaluate; everything else provably
        keeps its committed arrivals (no trigger of a stage outside the
        cone can have changed)."""
        cone: FrozenSet[int] = frozenset()
        for node in nodes:
            cone |= self.node_cone(node)
        return cone

    # -- levelization --------------------------------------------------

    def levels(self) -> Dict[int, int]:
        """Longest-predecessor-chain level per stage index.

        Kahn's algorithm over the stage graph (self-edges ignored); any
        stage left over sits on a feedback cycle or downstream of one
        (:meth:`loop_stages`) and is assigned one level past the deepest
        acyclic stage, preserving a deterministic order.
        """
        if self._levels is not None:
            return self._levels
        count = len(self.stages)
        indegree = [0] * count
        for index in range(count):
            for succ in self._successor_indices(index):
                if succ != index:
                    indegree[succ] += 1
        tentative = [0] * count
        level: Dict[int, int] = {}
        ready = deque(i for i in range(count) if indegree[i] == 0)
        for index in ready:
            level[index] = 0
        while ready:
            index = ready.popleft()
            for succ in self._successor_indices(index):
                if succ == index or succ in level:
                    continue
                tentative[succ] = max(tentative[succ], level[index] + 1)
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    level[succ] = tentative[succ]
                    ready.append(succ)
        if len(level) < count:
            # Feedback cycles (and everything downstream of them): one
            # level past the deepest acyclic stage, fixpoint handles them.
            self._loops = frozenset(set(range(count)) - level.keys())
            overflow = 1 + max(level.values(), default=0)
            for index in range(count):
                level.setdefault(index, overflow)
        self._levels = level
        return level

    def loop_stages(self) -> FrozenSet[int]:
        """Indices of the stages on a feedback cycle or downstream of one:
        those :meth:`levels` leaves for its overflow level.  Within that
        level stages pop in time order, not in topological order."""
        self.levels()
        return self._loops

    def has_feedback(self) -> bool:
        """True when the stage graph contains a cycle (latches, flip-flops,
        oscillators) — the analyzer then needs its iteration cap.

        Iterative three-color DFS (an explicit stack; deep feed-forward
        chains must not hit the Python recursion limit)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.stages)
        for start in range(len(color)):
            if color[start] != WHITE:
                continue
            stack = [(start, iter(self._successor_indices(start)))]
            color[start] = GRAY
            while stack:
                index, children = stack[-1]
                descended = False
                for successor in children:
                    if color[successor] == GRAY:
                        return True
                    if color[successor] == WHITE:
                        color[successor] = GRAY
                        stack.append((successor, iter(
                            self._successor_indices(successor))))
                        descended = True
                        break
                if not descended:
                    color[index] = BLACK
                    stack.pop()
        return False
