"""Adaptive point octree in Morton order.

The tree stores, besides the box geometry, the *integer anchor* of every
box — its (i, j, k) coordinate on the uniform grid of its level — so
that box adjacency is exact integer arithmetic and the per-level node
orderings are true Morton (Z-curve) orderings of
:func:`repro.runtime.spatial_hash.morton_keys_3d` keys.  On top of that
:meth:`Octree.interaction_lists` builds the standard adaptive-FMM box
lists (colleagues and the U/V/W/X lists of Ying, Biros & Zorin) that the
global KIFMM driver of :mod:`repro.fmm.kifmm` consumes:

- ``colleagues[b]``: boxes of the same level whose closed cubes touch
  ``b``'s (``b`` included).
- ``U[b]`` (leaves only): every adjacent leaf of *any* level, ``b``
  included — handled by direct P2P.
- ``V[b]``: same-level children of ``b``'s parent's colleagues that are
  not adjacent to ``b`` — handled by M2L.
- ``W[b]`` (leaves only): strict descendants of ``b``'s colleagues whose
  parent is adjacent to ``b`` but which are not adjacent themselves —
  their multipole is evaluated directly at ``b``'s targets (M2P).
- ``X[b]``: the dual of W (``b in W[a]``) — leaf ``a``'s *source points*
  enter ``b``'s local expansion directly (P2L).

Every source point of the cloud reaches every target leaf through
exactly one of these routes (pinned by a brute-force test over random
clouds), which is what makes the two-pass FMM exact up to the
equivalent-density approximation.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..runtime.spatial_hash import morton_keys_3d


@dataclasses.dataclass
class OctreeNode:
    """One box: cube of half-width ``half`` centered at ``center``.

    ``indices`` holds the source indices of leaves; internal nodes store
    children ids. ``anchor`` is the integer (i, j, k) grid coordinate of
    the box on its level's uniform grid (root = (0, 0, 0)); a child's
    anchor is ``2 * parent_anchor + octant_bits``, matching the Morton
    bit convention of :func:`morton_keys_3d`.
    """

    center: np.ndarray
    half: float
    level: int
    indices: Optional[np.ndarray]
    children: list[int]
    parent: int
    anchor: Tuple[int, int, int] = (0, 0, 0)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclasses.dataclass
class InteractionLists:
    """The adaptive-FMM box lists of one :class:`Octree` (see module
    docstring for the definitions). ``U`` and ``W`` are empty for
    internal boxes; ``V`` and ``X`` exist for every box."""

    colleagues: List[List[int]]
    U: List[List[int]]
    V: List[List[int]]
    W: List[List[int]]
    X: List[List[int]]

    def v_groups(self, anchors: np.ndarray
                 ) -> Dict[Tuple[int, int, int],
                           Tuple[np.ndarray, np.ndarray]]:
        """V-list pairs grouped by integer offset ``anchor[src] -
        anchor[tgt]``.

        The offset fixes the *relative* geometry of an M2L interaction,
        and the kernel's homogeneity removes the level scale entirely
        (the combined M2L operators of :mod:`repro.fmm.kifmm` are
        scale-free), so every pair in a group — across all levels —
        shares one unit translation operator: the key to batching M2L as
        a few dense GEMMs. Within a group each target appears at most
        once (a box has at most one V partner per offset), so folding a
        group's contributions is a pure fancy-indexed add. Keys are
        returned in sorted (deterministic) order.
        """
        counts = [len(v) for v in self.V]
        if sum(counts) == 0:
            return {}
        tgt_all = np.repeat(np.arange(len(self.V), dtype=np.int64), counts)
        src_all = np.fromiter((s for v in self.V for s in v),
                              dtype=np.int64, count=sum(counts))
        offs = anchors[src_all] - anchors[tgt_all]
        # V offsets have components in [-3, 3]: a base-7 code sorts them
        # in the same order as the offset tuples themselves.
        code = ((offs[:, 0] + 3) * 49 + (offs[:, 1] + 3) * 7
                + (offs[:, 2] + 3))
        order = np.argsort(code, kind="stable")
        codes, starts = np.unique(code[order], return_index=True)
        bounds = np.append(starts[1:], order.size)
        out: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for c, a, b in zip(codes, starts, bounds):
            key = (int(c) // 49 - 3, (int(c) // 7) % 7 - 3, int(c) % 7 - 3)
            sel = order[a:b]
            out[key] = (tgt_all[sel], src_all[sel])
        return out


class Octree:
    """Adaptive octree over a point cloud (leaf capacity bound)."""

    def __init__(self, points: np.ndarray, max_leaf: int = 64,
                 max_level: int = 12):
        pts = np.atleast_2d(np.asarray(points, float))
        self.points = pts
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        center = 0.5 * (lo + hi)
        half = 0.5 * float((hi - lo).max()) * 1.0000001 + 1e-12
        self.nodes: list[OctreeNode] = [OctreeNode(
            center=center, half=half, level=0,
            indices=np.arange(pts.shape[0]), children=[], parent=-1)]
        self.max_leaf = int(max_leaf)
        self.max_level = int(max_level)
        self._build(0)
        self._depth = max(n.level for n in self.nodes)
        self._levels: Optional[List[np.ndarray]] = None
        self._lists: Optional[InteractionLists] = None
        self._leaf_ranges_cache: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _build(self, nid: int) -> None:
        node = self.nodes[nid]
        idx = node.indices
        if idx.size <= self.max_leaf or node.level >= self.max_level:
            return
        pts = self.points[idx]
        oct_id = ((pts[:, 0] > node.center[0]).astype(int) << 2 |
                  (pts[:, 1] > node.center[1]).astype(int) << 1 |
                  (pts[:, 2] > node.center[2]).astype(int))
        node.indices = None
        qh = 0.5 * node.half
        ax, ay, az = node.anchor
        for o in range(8):
            sel = idx[oct_id == o]
            if sel.size == 0:
                continue
            bx, by, bz = (o >> 2) & 1, (o >> 1) & 1, o & 1
            off = np.array([qh if bx else -qh,
                            qh if by else -qh,
                            qh if bz else -qh])
            cid = len(self.nodes)
            self.nodes.append(OctreeNode(
                center=node.center + off, half=qh, level=node.level + 1,
                indices=sel, children=[], parent=nid,
                anchor=(2 * ax + bx, 2 * ay + by, 2 * az + bz)))
            node.children.append(cid)
            self._build(cid)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def leaves(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.is_leaf]

    def depth(self) -> int:
        return self._depth

    # -- level-linearized Morton-ordered storage ------------------------------
    @property
    def anchors(self) -> np.ndarray:
        """(n_nodes, 3) integer anchors (each row at its node's level)."""
        return np.array([n.anchor for n in self.nodes], dtype=np.int64)

    @property
    def levels(self) -> np.ndarray:
        return np.array([n.level for n in self.nodes], dtype=np.int64)

    def morton_keys(self) -> np.ndarray:
        """Morton key of every node's anchor (orders nodes along the
        Z-curve *within* a level; keys of different levels are not
        comparable)."""
        return morton_keys_3d(self.anchors)

    def level_nodes(self) -> List[np.ndarray]:
        """Node ids grouped by level, each group sorted by Morton key."""
        if self._levels is None:
            keys = self.morton_keys()
            lev = self.levels
            out = []
            for l in range(self.depth() + 1):
                ids = np.nonzero(lev == l)[0]
                out.append(ids[np.argsort(keys[ids], kind="stable")])
            self._levels = out
        return self._levels

    def subtree_indices(self, nid: int) -> np.ndarray:
        """All source indices under box ``nid`` (the leaf indices of its
        subtree, concatenated in depth-first order). Test oracle for the
        completeness of the interaction lists."""
        node = self.nodes[nid]
        if node.is_leaf:
            return node.indices
        return np.concatenate([self.subtree_indices(c)
                               for c in node.children])

    # -- integer-exact adjacency ---------------------------------------------
    def adjacent(self, a: int, b: int) -> bool:
        """Whether the closed cubes of boxes ``a`` and ``b`` intersect
        (sharing a face, edge or corner counts). Pure integer arithmetic
        on finest-level grid units — this runs in the inner loop of the
        interaction-list build, so no array temporaries."""
        na, nb = self.nodes[a], self.nodes[b]
        sa = self._depth - na.level
        sb = self._depth - nb.level
        wa, wb = 1 << sa, 1 << sb
        aa, ab = na.anchor, nb.anchor
        for i in range(3):
            la = aa[i] << sa
            lb = ab[i] << sb
            if la > lb + wb or lb > la + wa:
                return False
        return True

    # -- interaction lists ----------------------------------------------------
    def interaction_lists(self) -> InteractionLists:
        """Build (and cache) the colleague/U/V/W/X lists of every box."""
        if self._lists is not None:
            return self._lists
        n = self.n_nodes
        colleagues: List[List[int]] = [[] for _ in range(n)]
        U: List[List[int]] = [[] for _ in range(n)]
        V: List[List[int]] = [[] for _ in range(n)]
        W: List[List[int]] = [[] for _ in range(n)]
        X: List[List[int]] = [[] for _ in range(n)]
        colleagues[0] = [0]
        # Top-down colleague/V construction: candidates for box B are the
        # children of B's parent's colleagues; adjacency splits them.
        for level in range(1, self.depth() + 1):
            for b in self.level_nodes()[level]:
                b = int(b)
                for c in colleagues[self.nodes[b].parent]:
                    for d in self.nodes[c].children:
                        if self.adjacent(d, b):
                            colleagues[b].append(d)
                        else:
                            V[b].append(d)
        # U (adjacent leaves of any level) and W for leaves; X as the
        # dual of W.
        for b in self.leaves():
            for c in colleagues[b]:
                if self.nodes[c].is_leaf:
                    U[b].append(c)
            # Coarser adjacent leaves are colleagues of an ancestor.
            a = self.nodes[b].parent
            while a >= 0:
                for c in colleagues[a]:
                    if self.nodes[c].is_leaf and self.adjacent(c, b):
                        U[b].append(c)
                a = self.nodes[a].parent
            # Finer boxes: descend adjacent colleagues' subtrees.
            stack = [d for c in colleagues[b]
                     for d in self.nodes[c].children]
            while stack:
                d = stack.pop()
                if self.adjacent(d, b):
                    if self.nodes[d].is_leaf:
                        U[b].append(d)
                    else:
                        stack.extend(self.nodes[d].children)
                else:
                    W[b].append(d)
                    X[d].append(b)
        self._lists = InteractionLists(colleagues=colleagues, U=U, V=V,
                                       W=W, X=X)
        return self._lists

    # -- point-to-leaf assignment --------------------------------------------
    def _leaf_ranges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaf ids with their finest-level Morton key ranges, sorted.

        A leaf's subtree covers a *contiguous* run of finest-grid Morton
        keys (``[key(anchor) << 3g, (key(anchor)+1) << 3g)`` for a level
        gap of ``g``), and distinct leaves cover disjoint runs — so
        point-in-leaf lookup is one ``searchsorted``.
        """
        if self._leaf_ranges_cache is None:
            ids = np.array(self.leaves(), dtype=np.int64)
            keys = morton_keys_3d(self.anchors[ids])
            gap = (3 * (self._depth - self.levels[ids])).astype(np.uint64)
            key_lo = keys << gap
            key_hi = ((keys + np.uint64(1)) << gap) - np.uint64(1)
            order = np.argsort(key_lo)
            self._leaf_ranges_cache = (ids[order], key_lo[order],
                                       key_hi[order])
        return self._leaf_ranges_cache

    def leaf_of_points(self, targets: np.ndarray) -> np.ndarray:
        """Leaf box id containing each target, or -1.

        A target falls outside every leaf when it lies outside the root
        cube or inside a pruned (source-free) octant; such targets need
        a fallback evaluation (the MAC descent of ``GlobalKIFMM``).
        """
        targets = np.atleast_2d(np.asarray(targets, float))
        root = self.nodes[0]
        lo = root.center - root.half
        width = 2.0 * root.half
        out = np.full(targets.shape[0], -1, dtype=np.int64)
        inside = np.nonzero(np.all((targets >= lo)
                                   & (targets <= lo + width), axis=1))[0]
        if inside.size == 0:
            return out
        depth = self.depth()
        scaled = np.floor((targets[inside] - lo) / width
                          * (1 << depth)).astype(np.int64)
        tkeys = morton_keys_3d(np.clip(scaled, 0, (1 << depth) - 1))
        ids, key_lo, key_hi = self._leaf_ranges()
        pos = np.clip(np.searchsorted(key_lo, tkeys, side="right") - 1,
                      0, ids.size - 1)
        hit = (tkeys >= key_lo[pos]) & (tkeys <= key_hi[pos])
        out[inside] = np.where(hit, ids[pos], -1)
        return out
