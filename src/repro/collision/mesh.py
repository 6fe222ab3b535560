"""Linear triangle-mesh approximations of cells and vessel patches."""
from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Optional

import numpy as np

from ..analysis.guard import freeze
from ..sph import get_transform
from ..surfaces import SpectralSurface
from ..patches import ChebPatch


@dataclasses.dataclass
class CollisionMesh:
    """A triangle mesh participating in collision handling.

    ``kind`` is ``"cell"`` (deformable, closed, outward-oriented) or
    ``"boundary"`` (rigid vessel patch, open). ``object_id`` identifies the
    owning simulation object; ``vertex_weights`` are per-vertex area
    weights used when converting penetration depths to volumes and contact
    forces to force densities.
    """

    vertices: np.ndarray          # (nv, 3)
    triangles: np.ndarray         # (nt, 3) int
    kind: str
    object_id: int
    vertex_weights: np.ndarray    # (nv,)
    closed: bool

    def aabb(self, other_vertices: Optional[np.ndarray] = None,
             pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box, optionally the *space-time* box that
        also covers ``other_vertices`` (the next-time-step positions)."""
        pts = self.vertices
        if other_vertices is not None:
            pts = np.vstack([pts, other_vertices])
        return pts.min(axis=0) - pad, pts.max(axis=0) + pad

    def triangle_normals(self) -> np.ndarray:
        v = self.vertices
        t = self.triangles
        n = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        ln = np.linalg.norm(n, axis=1, keepdims=True)
        ln[ln == 0] = 1.0
        return n / ln

    def edge_length_scale(self) -> float:
        v = self.vertices
        t = self.triangles
        e = np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1)
        return float(np.median(e))


@lru_cache(maxsize=16)
def _grid_triangulation(nlat: int, nphi: int) -> np.ndarray:
    """Triangulation of a lat-long grid (phi periodic) plus two pole fans.

    Vertex layout: grid row-major (nlat * nphi), then north pole, then
    south pole.
    """
    tris: list[tuple[int, int, int]] = []

    def vid(i, j):
        return i * nphi + (j % nphi)

    for i in range(nlat - 1):
        for j in range(nphi):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            # Orientation: outward for theta down / phi across.
            tris.append((a, c, b))
            tris.append((b, c, d))
    north = nlat * nphi
    south = north + 1
    for j in range(nphi):
        tris.append((north, vid(0, j), vid(0, j + 1)))
        tris.append((south, vid(nlat - 1, j + 1), vid(nlat - 1, j)))
    return freeze(np.asarray(tris, dtype=np.int64))


@lru_cache(maxsize=16)
def _pole_rows(order: int) -> np.ndarray:
    """Synthesis rows of the two pole-guard points (geometry-independent)."""
    return freeze(get_transform(order).evaluation_rows(
        np.array([1e-6, np.pi - 1e-6]), np.zeros(2)))


def cell_collision_mesh(surface: SpectralSurface, object_id: int,
                        collision_order: Optional[int] = None) -> CollisionMesh:
    """Closed triangle mesh of a cell at the collision sampling order.

    The paper discretizes each RBC with 2,112 collision points; with our
    grid convention that corresponds roughly to ``collision_order = 2p``
    (default). Pole vertices close the mesh; their weights are zero so
    contact forces land on true grid points only.
    """
    pc = collision_order or 2 * surface.order
    fine = surface.upsampled(pc) if pc != surface.order else surface
    grid = fine.grid
    c = surface.coeffs()
    # One contraction per coordinate (not a stacked GEMM): the pole
    # vertices stay bit-identical to a per-coordinate series evaluation.
    rows = _pole_rows(surface.order)
    poles = np.stack([(rows @ c[k].ravel()).real for k in range(3)], axis=-1)
    vertices = np.vstack([fine.points, poles])
    tris = _grid_triangulation(grid.nlat, grid.nphi)
    w = fine.quadrature_weights().ravel()
    weights = np.concatenate([w, [0.0, 0.0]])
    return CollisionMesh(vertices=vertices, triangles=tris, kind="cell",
                         object_id=object_id, vertex_weights=weights,
                         closed=True)


@lru_cache(maxsize=8)
def _patch_triangulation(m: int) -> np.ndarray:
    tris: list[tuple[int, int, int]] = []
    for i in range(m - 1):
        for j in range(m - 1):
            a = i * m + j
            b = i * m + j + 1
            c = (i + 1) * m + j
            d = (i + 1) * m + j + 1
            tris.append((a, c, b))
            tris.append((b, c, d))
    return freeze(np.asarray(tris, dtype=np.int64))


def patch_collision_mesh(patch: ChebPatch, object_id: int,
                         m: int = 22) -> CollisionMesh:
    """Open triangle mesh of one vessel patch (paper: 484 points, m=22).

    Triangle winding is *reversed* relative to the patch normal (Xu x Xv):
    vessel surfaces are oriented outward (enclosed volume positive) while
    the collision sign convention needs wall normals pointing into the
    fluid, so that cell vertices on the fluid side have positive signed
    distance and wall penetration is negative — the same convention as
    the closed outward-oriented cell meshes.
    """
    verts = patch.collision_points(m)
    tris = _patch_triangulation(m)[:, [0, 2, 1]]
    # Uniform parameter-area weights scaled by patch area.
    area = patch.area()
    weights = np.full(verts.shape[0], area / verts.shape[0])
    return CollisionMesh(vertices=verts, triangles=tris, kind="boundary",
                         object_id=object_id, vertex_weights=weights,
                         closed=False)
