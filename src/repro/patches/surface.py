"""A boundary surface assembled from polynomial patches.

:class:`PatchSurface` caches the concatenated coarse discretization
(quadrature nodes/weights/normals over all patches, paper Eq. (3.1)), the
fine discretization used by the singular quadrature (each patch split into
4**eta subpatches with a q-point rule), the per-patch sizes L, and the
near-zone bounding boxes of Sec. 3.3, and the stacked per-patch tables the
batched closest-point search reads.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

import numpy as np

from ..analysis.guard import freeze
from ..config import NumericsOptions
from .patch import ChebPatch, equispaced_uv

#: target x coarse-node pairs per block of the nearest-patch distance scan
#: (bounds the transient difference tensor, like ``near_singular._DIST_CHUNK``).
_DIST_PAIR_BUDGET = 1 << 18


@dataclasses.dataclass
class _Discretization:
    points: np.ndarray    # (N, 3)
    weights: np.ndarray   # (N,)  includes area element
    normals: np.ndarray   # (N, 3)
    patch_of: np.ndarray  # (N,) patch index of each node


class PatchSurface:
    """An oriented closed surface given by non-overlapping patches."""

    def __init__(self, patches: Sequence[ChebPatch],
                 options: Optional[NumericsOptions] = None):
        self.patches = list(patches)
        if not self.patches:
            raise ValueError("surface needs at least one patch")
        self.options = options or NumericsOptions()
        self._coarse: Optional[_Discretization] = None
        self._fine: Optional[_Discretization] = None
        self._sizes: Optional[np.ndarray] = None
        self._newton_tables: Optional[tuple[np.ndarray, ...]] = None

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    # -- discretizations ------------------------------------------------------
    def coarse(self) -> _Discretization:
        """The coarse discretization: q x q CC rule on every patch."""
        if self._coarse is None:
            self._coarse = self._discretize(self.patches, self.options.patch_quad,
                                            np.arange(self.n_patches))
        return self._coarse

    def fine(self) -> _Discretization:
        """The fine discretization: 4**eta subpatches per patch, each with
        its own CC rule (paper Fig. 2 caption: eta such that 16 subpatches
        with 11th-order rules in the reference setup)."""
        if self._fine is None:
            k = 2 ** self.options.upsample_eta
            fine_patches: list[ChebPatch] = []
            owners: list[int] = []
            for i, p in enumerate(self.patches):
                kids = p.subdivide(k)
                fine_patches.extend(kids)
                owners.extend([i] * len(kids))
            self._fine = self._discretize(fine_patches, self.options.patch_quad,
                                          np.asarray(owners))
            self._fine_patches = fine_patches
        return self._fine

    @staticmethod
    def _discretize(patches: Iterable[ChebPatch], q: int,
                    owners: np.ndarray) -> _Discretization:
        pts, wts, nms, own = [], [], [], []
        for patch, owner in zip(patches, np.asarray(owners)):
            X, w, n = patch.quadrature(q)
            pts.append(X)
            wts.append(w)
            nms.append(n)
            own.append(np.full(w.size, owner, dtype=int))
        return _Discretization(points=np.concatenate(pts),
                               weights=np.concatenate(wts),
                               normals=np.concatenate(nms),
                               patch_of=np.concatenate(own))

    def nodes_per_patch(self) -> int:
        return self.options.patch_quad ** 2

    # -- geometry summaries -----------------------------------------------------
    def patch_sizes(self) -> np.ndarray:
        """L_i = sqrt(area of patch i) (paper Sec. 5.1)."""
        if self._sizes is None:
            self._sizes = np.array([p.size() for p in self.patches])
        return self._sizes

    def nearest_patches(self, targets: np.ndarray, k: int = 1
                        ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` patches nearest each target, ranked by their closest
        coarse node.

        Returns ``(patch_index, dist2)``, both ``(m, min(k, n_patches))``
        with the nearest patch first; ``dist2`` is the squared distance to
        that patch's closest coarse node. The target x node distance matrix
        is built in blocks of ``_DIST_PAIR_BUDGET`` pairs.
        """
        targets = np.asarray(targets, float).reshape(-1, 3)
        nodes = self.coarse().points
        m, k = targets.shape[0], min(k, self.n_patches)
        index = np.empty((m, k), dtype=int)
        dist2 = np.empty((m, k))
        chunk = max(1, _DIST_PAIR_BUDGET // nodes.shape[0])
        for a in range(0, m, chunk):
            diff = targets[a:a + chunk, None, :] - nodes[None, :, :]
            # Coarse nodes are stored patch by patch, q*q each.
            d2 = np.einsum("tnk,tnk->tn", diff, diff).reshape(
                -1, self.n_patches, self.nodes_per_patch()).min(axis=2)
            order = np.argsort(d2, axis=1, kind="stable")[:, :k]
            index[a:a + chunk] = order
            dist2[a:a + chunk] = np.take_along_axis(d2, order, axis=1)
        return index, dist2

    def newton_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frozen per-surface tables of the closest-point Newton search.

        ``(tables, seed_uv, seed_points)``: every patch's
        :meth:`ChebPatch.derivative_table` stacked to ``(P, n*n, 18)``, the
        ``n x n`` equispaced parameter samples ``(n*n, 2)`` the search is
        seeded from, and their positions on every patch ``(P, n*n, 3)``.
        """
        if self._newton_tables is None:
            n = self.patches[0].n
            if any(p.n != n for p in self.patches):
                raise ValueError("closest-point search needs patches of one "
                                 "order; got n in "
                                 f"{sorted({p.n for p in self.patches})}")
            self._newton_tables = freeze(
                np.stack([p.derivative_table() for p in self.patches]),
                equispaced_uv(n),
                np.stack([p.collision_points(n) for p in self.patches]))
        return self._newton_tables

    def area(self) -> float:
        return float(self.coarse().weights.sum())

    def volume(self) -> float:
        """Enclosed volume via the divergence theorem (orientation-aware)."""
        d = self.coarse()
        return float(np.einsum("nk,nk,n->", d.points, d.normals, d.weights)) / 3.0

    def collision_points(self, m: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """Equispaced collision samples for every patch.

        Returns ``(points, patch_of)``; the paper uses m = 22 (484 points).
        """
        m = m or 22
        pts = [p.collision_points(m) for p in self.patches]
        owner = np.repeat(np.arange(self.n_patches), m * m)
        return np.concatenate(pts), owner

    # -- refinement --------------------------------------------------------------
    def refined(self, k: int = 2) -> "PatchSurface":
        """Uniformly subdivide every patch into k x k children.

        This is the weak-scaling refinement step of Sec. 5.2 (k = 2 gives
        4x the patches).
        """
        out: list[ChebPatch] = []
        for p in self.patches:
            out.extend(p.subdivide(k))
        return PatchSurface(out, self.options)

    def flip_orientation(self) -> "PatchSurface":
        """Reverse the normal direction (swap u and v)."""
        flipped = [ChebPatch(np.transpose(p.values, (1, 0, 2))) for p in self.patches]
        return PatchSurface(flipped, self.options)
