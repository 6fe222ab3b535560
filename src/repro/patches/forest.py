"""Forest of quadtrees over the vessel quad mesh (p4est substitute).

The paper manages the patch hierarchy with p4est [7]: every face of the
input quad mesh is the root of a quadtree whose leaves are the current
patches; refining a leaf produces 4 children via polynomial subdivision.
This module reimplements the services the paper uses:

- leaf storage in global Morton order (tree id major, then interleaved
  quadrant coordinates),
- refinement with exact polynomial patch data transfer,
- parent/child relations between the coarse and fine discretizations.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from .patch import ChebPatch


def _interleave2(i: int, j: int, level: int) -> int:
    """Morton interleave of quadrant coordinates at a given level."""
    code = 0
    for b in range(level):
        code |= ((i >> b) & 1) << (2 * b + 1)
        code |= ((j >> b) & 1) << (2 * b)
    return code


@dataclasses.dataclass
class PatchNode:
    """One leaf quadrant: a patch at position (i, j) of ``level`` within
    its root tree."""

    tree: int
    level: int
    i: int
    j: int
    patch: ChebPatch

    def morton_key(self, max_level: int = 16) -> int:
        """Global ordering key: tree-major, then Morton within the tree.

        Quadrant coords are promoted to ``max_level`` so keys of leaves at
        different levels interleave correctly (p4est's linear order).
        """
        shift = max_level - self.level
        code = _interleave2(self.i << shift, self.j << shift, max_level)
        return (self.tree << (2 * max_level + 1)) | code

    def child_coords(self) -> list[tuple[int, int, int]]:
        """(level+1, i, j) of the 4 children in subdivision order.

        ``ChebPatch.subdivide(2)`` emits children with the u (i) block
        varying slowest, v (j) fastest.
        """
        out = []
        for bi in range(2):
            for bj in range(2):
                out.append((self.level + 1, 2 * self.i + bi, 2 * self.j + bj))
        return out


class QuadForest:
    """A forest of quadtrees whose leaves carry polynomial patches."""

    def __init__(self, roots: Sequence[ChebPatch]):
        self.leaves: list[PatchNode] = [
            PatchNode(tree=t, level=0, i=0, j=0, patch=p)
            for t, p in enumerate(roots)
        ]
        self.n_trees = len(self.leaves)
        self._sort()

    def _sort(self) -> None:
        self.leaves.sort(key=lambda n: n.morton_key())

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def patches(self) -> list[ChebPatch]:
        """Leaf patches in global Morton order."""
        return [n.patch for n in self.leaves]

    # -- refinement ------------------------------------------------------------
    def refine(self, marker: Optional[Callable[[PatchNode], bool]] = None) -> int:
        """Refine all leaves where ``marker`` returns True (default: all).

        Returns the number of leaves refined. Patch data transfers exactly
        (polynomial subdivision).
        """
        new_leaves: list[PatchNode] = []
        count = 0
        for node in self.leaves:
            if marker is None or marker(node):
                kids = node.patch.subdivide(2)
                for (lvl, ci, cj), kp in zip(node.child_coords(), kids):
                    new_leaves.append(PatchNode(node.tree, lvl, ci, cj, kp))
                count += 1
            else:
                new_leaves.append(node)
        self.leaves = new_leaves
        self._sort()
        return count
