"""Forest of quadtrees over the vessel quad mesh (p4est substitute).

The paper manages the patch hierarchy with p4est [7]: every face of the
input quad mesh is the root of a quadtree whose leaves are the current
patches; refining a leaf produces 4 children via polynomial subdivision.
This module reimplements the services the paper uses:

- leaf storage in global Morton order (tree id major, then interleaved
  quadrant coordinates),
- refine / coarsen with exact polynomial patch data transfer,
- parent/child relations between the coarse and fine discretizations.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

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

    def coarsen(self, marker: Optional[Callable[[PatchNode], bool]] = None) -> int:
        """Coarsen families of 4 sibling leaves where all 4 are marked.

        The parent patch is reconstructed by resampling the children at
        the parent's nodes (exact, since the children are restrictions of
        the same polynomial... for refined-then-coarsened data; for
        independently modified children this is an L2-consistent merge).
        Returns the number of families merged.
        """
        by_parent: dict[tuple[int, int, int, int], list[PatchNode]] = {}
        for n in self.leaves:
            if n.level == 0:
                continue
            key = (n.tree, n.level - 1, n.i // 2, n.j // 2)
            by_parent.setdefault(key, []).append(n)
        merged = 0
        to_remove: set[int] = set()
        new_nodes: list[PatchNode] = []
        for (tree, lvl, pi, pj), kids in by_parent.items():
            if len(kids) != 4:
                continue
            if marker is not None and not all(marker(k) for k in kids):
                continue
            parent_patch = self._merge_children(kids)
            new_nodes.append(PatchNode(tree, lvl, pi, pj, parent_patch))
            to_remove.update(id(k) for k in kids)
            merged += 1
        if merged:
            self.leaves = [n for n in self.leaves if id(n) not in to_remove]
            self.leaves.extend(new_nodes)
            self._sort()
        return merged

    @staticmethod
    def _merge_children(kids: list[PatchNode]) -> ChebPatch:
        n = kids[0].patch.n
        from ..quadrature.interpolation import chebyshev_lobatto_nodes
        nodes = chebyshev_lobatto_nodes(n)
        vals = np.empty((n, n, 3))
        kid_map = {(k.i % 2, k.j % 2): k.patch for k in kids}
        for a, u in enumerate(nodes):
            for b, v in enumerate(nodes):
                bi = 0 if u <= 0 else 1
                bj = 0 if v <= 0 else 1
                # Parent param -> child param.
                cu = 2.0 * u + (1.0 if bi == 0 else -1.0)
                cv = 2.0 * v + (1.0 if bj == 0 else -1.0)
                vals[a, b] = kid_map[(bi, bj)].evaluate(np.array([[cu, cv]]))[0]
        return ChebPatch(vals)

    def levels(self) -> np.ndarray:
        return np.array([n.level for n in self.leaves])
