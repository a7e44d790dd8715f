"""O(N) Penfield-Rubinstein-Horowitz kernel.

The scalar reference (:mod:`repro.rctree.elmore`) evaluates the RPH time
constants with an O(N^2) double loop over ``shared_resistance`` pairs,
once per measurement node.  This module computes **all three constants
for every node of a tree in O(N)** using the edge decomposition of the
shared-resistance sums:

* ``R_kk`` (root->k path resistance) is a prefix sum of edge resistances
  down the parent array;
* ``T_P = sum_k R_kk C_k`` is one dot product;
* ``T_Dk = sum_i R_ik C_i`` telescopes to a prefix sum of
  ``r_e * Cdown_e`` along the root->k path, where ``Cdown_e`` is the
  total capacitance in the subtree hanging below edge ``e``;
* ``T_Rk * R_kk = sum_i R_ik^2 C_i`` telescopes the same way with the
  per-edge increment ``(R_e^2 - R_parent(e)^2) * Cdown_e`` (Abel
  summation over the branch capacitances grouped by their lowest common
  ancestor with k).

Trees arrive as flat lists (see :class:`~repro.rctree.template.TreeTemplate`):
``parent[i] < i`` (topological insertion order, ``parent[0] = -1``),
``r[i]`` the resistance of the edge above node ``i`` (``r[0] = 0``) and
``c[i]`` the node capacitance.  Compiled stage trees have a handful of
nodes, so three plain loops over lists are the whole implementation;
``repro verify``'s kernel invariant checks every tree an analysis
compiles against the O(N^2) reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Injected-bug hook for the conformance subsystem's self-test
#: (``tests/test_verify_conformance.py``): when set, every computed T_P,
#: T_D and T_R is scaled by this factor (together, so their ordering
#: still holds), and ``repro verify``'s kernel invariant must catch and
#: shrink the fault.  Production code never sets it.
_CONSTANTS_SCALE: Optional[float] = None


def set_constants_scale(scale: Optional[float]) -> None:
    """Install (``float``) or clear (``None``) the injected-bug hook."""
    global _CONSTANTS_SCALE
    _CONSTANTS_SCALE = None if scale is None else float(scale)


class StageConstants:
    """The RPH constants of one tree, for **all** nodes at once.

    ``t_d``/``t_r``/``rpath`` are lists aligned with the template's node
    order; ``t_p`` and ``c_total`` are tree-wide scalars.
    """

    __slots__ = ("t_p", "t_d", "t_r", "rpath", "c_total")

    def __init__(self, t_p: float, t_d: Sequence[float],
                 t_r: Sequence[float], rpath: Sequence[float],
                 c_total: float):
        self.t_p = t_p
        self.t_d = t_d
        self.t_r = t_r
        self.rpath = rpath
        self.c_total = c_total


def compute_stage_constants(parent: Sequence[int], r: Sequence[float],
                            c: Sequence[float]) -> StageConstants:
    """All-node RPH constants for one tree in O(N)."""
    n = len(parent)
    rpath = [0.0] * n
    cdown = list(c)
    t_d = [0.0] * n
    acc2 = [0.0] * n
    for i in range(1, n):
        rpath[i] = rpath[parent[i]] + r[i]
    for i in range(n - 1, 0, -1):
        cdown[parent[i]] += cdown[i]
    t_p = 0.0
    for i in range(1, n):
        p = parent[i]
        t_p += rpath[i] * c[i]
        t_d[i] = t_d[p] + r[i] * cdown[i]
        acc2[i] = acc2[p] + (rpath[i] * rpath[i]
                             - rpath[p] * rpath[p]) * cdown[i]
    t_r = [acc2[i] / rpath[i] if rpath[i] > 0.0 else 0.0 for i in range(n)]
    if _CONSTANTS_SCALE is not None:
        t_p *= _CONSTANTS_SCALE
        t_d = [value * _CONSTANTS_SCALE for value in t_d]
        t_r = [value * _CONSTANTS_SCALE for value in t_r]
    return StageConstants(t_p=t_p, t_d=t_d, t_r=t_r, rpath=rpath,
                          c_total=sum(c))
