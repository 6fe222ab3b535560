"""Vascular networks: centerline graphs swept into patch-based tubes.

A :class:`VesselNetwork` owns a networkx graph whose nodes carry 3-D
positions and radii. Geometry services:

- ``signed_distance(x)`` — distance to the vessel *medial* description
  (union of edge capsules); negative inside the lumen. The filling
  algorithm and collision margins use this analytic form.
- ``build_patch_surfaces()`` — one closed capsule patch tube per edge;
  the tubes of adjacent edges overlap at junctions instead of blending.
- degree-1 nodes are inlets/outlets.
"""
from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np

from ..config import NumericsOptions
from ..patches import PatchSurface, capsule_tube
from ..patches.patch import ChebPatch


def _rotation_to(axis_from: np.ndarray, axis_to: np.ndarray) -> np.ndarray:
    a = axis_from / np.linalg.norm(axis_from)
    b = axis_to / np.linalg.norm(axis_to)
    v = np.cross(a, b)
    c = float(a @ b)
    if np.linalg.norm(v) < 1e-14:
        if c > 0:
            return np.eye(3)
        # 180 degrees: rotate about any perpendicular axis.
        perp = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            perp = np.array([0.0, 1.0, 0.0])
        v = np.cross(a, perp)
        v /= np.linalg.norm(v)
        return 2.0 * np.outer(v, v) - np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx * (1.0 / (1.0 + c))


class VesselNetwork:
    """A vascular network defined by a centerline graph."""

    def __init__(self, graph: nx.Graph,
                 options: Optional[NumericsOptions] = None):
        for n, data in graph.nodes(data=True):
            if "pos" not in data or "radius" not in data:
                raise ValueError("every node needs 'pos' and 'radius'")
        self.graph = graph
        self.options = options or NumericsOptions()

    # -- topology ---------------------------------------------------------
    def terminals(self) -> list:
        """Degree-1 nodes: the inflow/outflow ports."""
        return [n for n in self.graph.nodes if self.graph.degree[n] == 1]

    def edge_segments(self) -> list[tuple[np.ndarray, np.ndarray, float, float]]:
        """(p0, p1, r0, r1) per edge."""
        out = []
        for u, v in self.graph.edges:
            out.append((np.asarray(self.graph.nodes[u]["pos"], float),
                        np.asarray(self.graph.nodes[v]["pos"], float),
                        float(self.graph.nodes[u]["radius"]),
                        float(self.graph.nodes[v]["radius"])))
        return out

    # -- medial geometry -----------------------------------------------------
    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the lumen boundary (negative inside).

        Distance to the union of linearly-tapered edge capsules.
        """
        pts = np.atleast_2d(np.asarray(points, float))
        best = np.full(pts.shape[0], np.inf)
        for p0, p1, r0, r1 in self.edge_segments():
            d = p1 - p0
            L2 = float(d @ d)
            t = np.clip(((pts - p0) @ d) / L2, 0.0, 1.0)
            proj = p0 + t[:, None] * d
            rad = r0 + t * (r1 - r0)
            dist = np.linalg.norm(pts - proj, axis=1) - rad
            best = np.minimum(best, dist)
        return best

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        return self.signed_distance(points) < -margin

    def bounding_box(self, pad_factor: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        pos = np.array([self.graph.nodes[n]["pos"] for n in self.graph.nodes])
        rad = np.array([self.graph.nodes[n]["radius"] for n in self.graph.nodes])
        pad = pad_factor * rad.max()
        return pos.min(axis=0) - pad, pos.max(axis=0) + pad

    def lumen_volume(self, samples_per_axis: int = 40) -> float:
        """Monte-Carlo-free volume estimate on a regular grid."""
        lo, hi = self.bounding_box(pad_factor=1.0)
        axes = [np.linspace(lo[k], hi[k], samples_per_axis) for k in range(3)]
        A, B, C = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([A.ravel(), B.ravel(), C.ravel()])
        inside = self.contains(pts)
        cell = np.prod((hi - lo) / (samples_per_axis - 1))
        return float(inside.sum() * cell)

    # -- patch geometry -----------------------------------------------------
    def build_patch_surfaces(self, refine: int = 1) -> list[PatchSurface]:
        """One closed capsule patch surface per edge (C0 at junctions)."""
        out = []
        for p0, p1, r0, r1 in self.edge_segments():
            d = p1 - p0
            length = float(np.linalg.norm(d))
            r = 0.5 * (r0 + r1)
            surf = capsule_tube(length=length + 2 * r, radius=r,
                                refine=refine, options=self.options)
            R = _rotation_to(np.array([0.0, 0.0, 1.0]), d)
            center = 0.5 * (p0 + p1)
            moved = []
            for patch in surf.patches:
                vals = patch.values.reshape(-1, 3) @ R.T + center
                moved.append(ChebPatch(vals.reshape(patch.values.shape)))
            out.append(PatchSurface(moved, self.options))
        return out

    def all_patches(self, refine: int = 1):
        patches = []
        for s in self.build_patch_surfaces(refine=refine):
            patches.extend(s.patches)
        return patches


def demo_bifurcation_network(scale: float = 1.0,
                             options: Optional[NumericsOptions] = None
                             ) -> VesselNetwork:
    """A Y-bifurcation: one inlet branch splitting into two outlets
    (the minimal analogue of the paper's Fig. 8 weak-scaling vessel:
    inflow on one side, outflow on the two others)."""
    g = nx.Graph()
    s = scale
    g.add_node(0, pos=(-4.0 * s, 0.0, 0.0), radius=1.2 * s)
    g.add_node(1, pos=(0.0, 0.0, 0.0), radius=1.1 * s)
    g.add_node(2, pos=(3.5 * s, 2.2 * s, 0.5 * s), radius=0.9 * s)
    g.add_node(3, pos=(3.5 * s, -2.2 * s, -0.5 * s), radius=0.9 * s)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    return VesselNetwork(g, options)


def demo_tree_network(levels: int = 3, scale: float = 1.0,
                      seed: int = 7,
                      options: Optional[NumericsOptions] = None
                      ) -> VesselNetwork:
    """A random binary vascular tree (Murray-law-ish radius decay),
    standing in for the complex capillary geometry of the paper's Fig. 1."""
    rng = np.random.default_rng(seed)
    g = nx.Graph()
    g.add_node(0, pos=(0.0, 0.0, 0.0), radius=1.4 * scale)
    frontier = [(0, np.array([1.0, 0.0, 0.0]), 1.4 * scale)]
    nid = 1
    for lvl in range(levels):
        nxt = []
        for parent, direction, rad in frontier:
            for sgn in (-1.0, 1.0):
                tilt = rng.normal(scale=0.35, size=3)
                tilt[1] += sgn * 0.8
                d = direction + tilt
                d /= np.linalg.norm(d)
                length = scale * (3.5 * 0.8 ** lvl)
                pos = np.asarray(g.nodes[parent]["pos"]) + length * d
                r = rad * 0.79   # Murray's law for a symmetric split
                g.add_node(nid, pos=tuple(pos), radius=r)
                g.add_edge(parent, nid)
                nxt.append((nid, d, r))
                nid += 1
        frontier = nxt
    return VesselNetwork(g, options)
