"""Interference volumes V(t) and their configuration gradients.

Instead of the exact space-time
interference volumes of Harmon et al. [17], each connected overlap between
a pair of meshes contributes the penetration-volume proxy

    ``V_c = sum_{i in c} d_i a_i``   (<= 0 when penetrating),

where ``d_i < 0`` is the signed distance of a penetrating vertex of one
mesh to the other mesh and ``a_i`` its area weight. The complementarity
structure (one Lagrange multiplier per connected component, sparse
couplings through shared cells) is exactly that of the paper; only the
volume metric differs.
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .distance import signed_distance_to_mesh
from .mesh import CollisionMesh


@dataclasses.dataclass
class ContactComponent:
    """One connected overlap (one component of V, one multiplier lambda).

    ``vertex_forces`` maps object id -> (vertex indices, direction
    vectors, weights); the contact force of multiplier lambda on object o
    at vertex k is ``lambda * weight_k * direction_k`` (this is the column
    grad_X V of paper Eq. (2.7) restricted to this component).
    """

    pair: tuple[int, int]
    volume: float
    vertex_forces: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]


def _connected_groups(vertex_ids: np.ndarray, mesh: CollisionMesh) -> list[np.ndarray]:
    """Group penetrating vertices into mesh-connected components."""
    if vertex_ids.size == 0:
        return []
    vset = set(int(v) for v in vertex_ids)
    adj: dict[int, set[int]] = {v: set() for v in vset}
    for tri in mesh.triangles:
        tv = [int(t) for t in tri if int(t) in vset]
        for a in tv:
            for b in tv:
                if a != b:
                    adj[a].add(b)
    seen: set[int] = set()
    groups: list[np.ndarray] = []
    for v in vset:
        if v in seen:
            continue
        stack = [v]
        comp = []
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for wv in adj[u]:
                if wv not in seen:
                    seen.add(wv)
                    stack.append(wv)
        groups.append(np.array(sorted(comp), dtype=np.int64))
    return groups


def _pair_contacts(mesh_a: CollisionMesh, mesh_b: CollisionMesh,
                   contact_eps: float) -> list[ContactComponent]:
    """Contacts from vertices of A penetrating (or within eps of) B.

    ``contact_eps`` activates the constraint slightly before geometric
    interpenetration, the standard practice for constraint-based contact:
    the volume is measured relative to the eps-offset surface of B.
    """
    verts = mesh_a.vertices
    # Cull by B's AABB for speed.
    lo, hi = mesh_b.aabb(pad=contact_eps)
    inside_box = np.all((verts >= lo) & (verts <= hi), axis=1)
    cand = np.nonzero(inside_box & (mesh_a.vertex_weights > 0))[0]
    if cand.size == 0:
        return []
    d, tri, cp, _ = signed_distance_to_mesh(verts[cand], mesh_b)
    pen = d < contact_eps
    if not np.any(pen):
        return []
    pen_ids = cand[pen]
    depths = d[pen] - contact_eps          # negative depth
    normals = mesh_b.triangle_normals()[tri[pen]]
    out = []
    weights = mesh_a.vertex_weights
    id_to_local = {int(v): k for k, v in enumerate(pen_ids)}
    for group in _connected_groups(pen_ids, mesh_a):
        loc = np.array([id_to_local[int(v)] for v in group])
        w = weights[group]
        V = float((depths[loc] * w).sum())
        # dV/dx_i for i on A: moving vertex i along n_B changes d_i.
        forces_a = (group, normals[loc], w)
        comp = ContactComponent(pair=(mesh_a.object_id, mesh_b.object_id),
                                volume=V,
                                vertex_forces={mesh_a.object_id: forces_a})
        # Reaction on B, if deformable: -w n_B distributed at the closest
        # triangle's vertices (lumped at the nearest vertex for simplicity
        # of the restriction back to the spectral grid).
        if mesh_b.kind == "cell":
            tri_v = mesh_b.triangles[tri[pen][loc]]
            # nearest vertex of each closest triangle
            bverts = tri_v[:, 0]
            comp.vertex_forces[mesh_b.object_id] = (
                bverts, -normals[loc], w)
        out.append(comp)
    return out


def compute_contacts(meshes: Sequence[CollisionMesh],
                     pairs: Sequence[tuple[int, int]],
                     contact_eps: float) -> list[ContactComponent]:
    """All contact components over the candidate pairs from the broad phase.

    For each unordered mesh pair the test runs in both directions
    (vertices of A against B and vice versa) when both are cells; vessel
    patches only act as obstacles (their vertices are never constrained).
    """
    comps: list[ContactComponent] = []
    for a, b in pairs:
        ma, mb = meshes[a], meshes[b]
        if ma.kind == "boundary" and mb.kind == "boundary":
            continue
        if ma.kind == "cell":
            comps.extend(_pair_contacts(ma, mb, contact_eps))
        if mb.kind == "cell" and ma.kind != mb.kind or (mb.kind == "cell" and ma.kind == "cell"):
            comps.extend(_pair_contacts(mb, ma, contact_eps))
    return comps
