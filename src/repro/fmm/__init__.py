"""Kernel-independent fast summation (PVFMM substitute).

The paper evaluates all global integrals with PVFMM [26, 27]. Here the
same role is played by a pure-numpy *kernel-independent FMM*
(:class:`GlobalKIFMM`): an adaptive octree is built over the sources;
each box carries an equivalent density on a cube surface fitted by
regularized least squares (upward pass: P2M at leaves, M2M up the tree),
a downward pass (M2L/P2L/L2L) gives every leaf a local expansion, and a
target sums its leaf's local field plus the adjacent boxes directly.
Complexity O(N) with accuracy set by the equivalent-surface resolution,
verified against the direct O(N^2) sums in the tests. The Stokes and
Laplace single layers are supported through the same machinery — kernel
independence is the point of the method.
"""
from .octree import InteractionLists, Octree, OctreeNode
from .kifmm import GlobalKIFMM, stokes_slp_global_fmm

__all__ = [
    "InteractionLists",
    "Octree",
    "OctreeNode",
    "GlobalKIFMM",
    "stokes_slp_global_fmm",
]
