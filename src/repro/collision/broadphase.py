"""Broad-phase candidate search via space-time AABBs on a Morton grid.

This is the adaptation of the spatial sorting of Sec. 3.3 to collision
candidates described in Sec. 4 / Fig. 3: each mesh contributes the
smallest axis-aligned box containing it at both its current and candidate
next positions (for vessel patches P+ = P); boxes are rasterized onto an
implicit uniform grid keyed by Morton codes, keys are sorted, and meshes
sharing a key become candidate pairs.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..runtime.spatial_hash import SpatialHash
from .mesh import CollisionMesh


def space_time_boxes(meshes: Sequence[CollisionMesh],
                     candidates: Sequence[Optional[np.ndarray]],
                     pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """AABBs covering each mesh at its current and candidate positions."""
    lo = np.empty((len(meshes), 3))
    hi = np.empty((len(meshes), 3))
    for i, (mesh, cand) in enumerate(zip(meshes, candidates)):
        lo[i], hi[i] = mesh.aabb(other_vertices=cand, pad=pad)
    return lo, hi


def candidate_object_pairs(meshes: Sequence[CollisionMesh],
                           candidates: Sequence[Optional[np.ndarray]],
                           contact_eps: float) -> list[tuple[int, int]]:
    """Indices (i, j), i < j, of meshes whose space-time boxes share a
    Morton grid cell (at least one cell<->anything pair; boundary-boundary
    pairs are skipped since the vessel is rigid).
    """
    lo, hi = space_time_boxes(meshes, candidates, pad=contact_eps)
    H = float(np.mean(np.linalg.norm(hi - lo, axis=1)))
    if H <= 0:
        H = max(contact_eps, 1e-6)
    grid = SpatialHash(lo.min(axis=0) - H, H)

    keys_list = []
    owner_list = []
    for i in range(len(meshes)):
        k = grid.box_keys(lo[i], hi[i])
        keys_list.append(k)
        owner_list.append(np.full(k.size, i, dtype=np.int64))
    keys = np.concatenate(keys_list)
    owners = np.concatenate(owner_list)

    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    owners = owners[order]

    pairs: set[tuple[int, int]] = set()
    start = 0
    n = keys.size
    while start < n:
        end = start
        while end < n and keys[end] == keys[start]:
            end += 1
        cell_owners = np.unique(owners[start:end])
        if cell_owners.size > 1:
            for ii in range(cell_owners.size):
                for jj in range(ii + 1, cell_owners.size):
                    a, b = int(cell_owners[ii]), int(cell_owners[jj])
                    if meshes[a].kind == "boundary" and meshes[b].kind == "boundary":
                        continue
                    pairs.add((a, b))
        start = end
    # AABB overlap check to cull hash-box false positives.
    out = []
    for a, b in sorted(pairs):
        if np.all(lo[a] <= hi[b]) and np.all(lo[b] <= hi[a]):
            out.append((a, b))
    return out
