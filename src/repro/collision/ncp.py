"""The nonlinear complementarity loop (sequence of LCPs, paper Sec. 4).

Given the candidate positions produced by the unconstrained (locally
implicit) update, detect interpenetrations, and repeatedly

1. linearize the contact volumes (Eq. (4.3)),
2. solve the LCP for the multipliers lambda (Item 3b),
3. push the cells by the contact-force-induced velocity ``dt * S_i f_c``,
4. re-detect contacts,

until all components of V are nonnegative (the paper reports ~7 LCP
solves per NCP). Cell-vessel contacts move only the cell; the vessel is
rigid. Contact force densities live on the collision grid and are
band-limited back to the simulation grid before the single-layer mobility
is applied.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from ..config import NumericsOptions
from ..sph import get_transform
from ..surfaces import SpectralSurface, seed_upsampled
from ..vesicle import SingularSelfInteraction
from .broadphase import candidate_object_pairs
from .mesh import CollisionMesh, cell_collision_mesh
from .lcp import solve_lcp
from .volume import ContactComponent, compute_contacts


@dataclasses.dataclass
class NCPReport:
    """Diagnostics of one contact projection."""

    n_candidates: int
    n_components: int
    lcp_solves: int
    max_penetration_before: float
    max_penetration_after: float
    contact_active: bool
    lambdas: np.ndarray
    #: whether the projection drove every contact volume above the
    #: tolerance before exhausting ``ncp_max_lcp`` linearizations
    #: (``True`` when no contact was active). The health sentinel rejects
    #: a step on ``False``.
    resolved: bool = True
    #: AND of the inner LCP solves' ``converged`` flags (within the
    #: documented slack of :func:`repro.collision.lcp.solve_lcp`).
    lcp_converged: bool = True
    #: worst final minimum-map residual across the inner LCP solves.
    lcp_residual: float = 0.0


class NCPSolver:
    """Projects candidate cell positions to a contact-free state."""

    def __init__(self, boundary_meshes: Sequence[CollisionMesh],
                 options: Optional[NumericsOptions] = None,
                 collision_order: Optional[int] = None,
                 contact_eps: Optional[float] = None,
                 volume_tol_factor: float = 1e-3,
                 mesh_cache_size: int = 4):
        self.boundary_meshes = list(boundary_meshes)
        self.options = options or NumericsOptions()
        self.collision_order = collision_order
        self.contact_eps = contact_eps
        self.volume_tol_factor = volume_tol_factor
        # Per-cell collision meshes keyed by the exact positions they were
        # built from (see _cell_mesh): rebuilding a SpectralSurface + full
        # fine-grid geometry per projection iteration was a measurable
        # per-step cost even without contacts, and within the LCP loop
        # only the cells actually touched by contact forces move.
        self.mesh_cache_size = int(mesh_cache_size)
        self._mesh_cache: list[dict[bytes, CollisionMesh]] = []

    # -- mesh caching ----------------------------------------------------------
    def _cell_meshes(self, cells: Sequence[SpectralSurface],
                     positions: Sequence[np.ndarray], pc: int,
                     surfaces: Optional[Sequence[SpectralSurface]] = None
                     ) -> list[CollisionMesh]:
        """Collision meshes of all cells at ``positions``, cached.

        A tiny per-cell LRU keyed by the raw position bytes: across a
        projection this hits for every cell the LCP loop did not move,
        and across steps the accepted candidate mesh of step ``n`` is
        reused as the "current" mesh of step ``n + 1``. The misses share
        one stacked fine-grid pass (:func:`repro.surfaces.seed_upsampled`),
        less what the caller's ``surfaces`` at ``positions`` hold cached.
        """
        while len(self._mesh_cache) < len(cells):
            self._mesh_cache.append({})
        keys = [pos.tobytes() for pos in positions]
        miss = {i: SpectralSurface(positions[i], cells[i].order,
                                   cells[i].aliasing_factor)
                for i, key in enumerate(keys)
                if key not in self._mesh_cache[i]}
        if surfaces is not None:
            for i, tmp in miss.items():
                tmp.adopt_caches(surfaces[i])
        seed_upsampled([s for s in miss.values() if s.order != pc], pc)
        meshes = []
        for i, key in enumerate(keys):
            cache = self._mesh_cache[i]
            mesh = cache.pop(key, None)
            if mesh is None:
                mesh = cell_collision_mesh(miss[i], object_id=i,
                                           collision_order=pc)
                if len(cache) >= self.mesh_cache_size:
                    cache.pop(next(iter(cache)))
            cache[key] = mesh  # (re)insert most-recently-used last
            meshes.append(mesh)
        return meshes

    # -- grid transfer helpers -------------------------------------------------
    @staticmethod
    def _restrict(cell: SpectralSurface, field_c: np.ndarray,
                  pc: int) -> np.ndarray:
        """Collision-grid vector field -> simulation grid (band-limit)."""
        Tc = get_transform(pc)
        p = cell.order
        cf = Tc.forward(np.moveaxis(field_c, -1, 0))
        return np.moveaxis(Tc.resample(cf, p), 0, -1)

    @staticmethod
    def _prolong(cell: SpectralSurface, field_p: np.ndarray,
                 pc: int) -> np.ndarray:
        """Simulation-grid vector field -> collision grid."""
        T = cell.transform
        cf = T.forward(np.moveaxis(field_p, -1, 0))
        return np.moveaxis(T.resample(cf, pc), 0, -1)

    # -- main entry -------------------------------------------------------------
    def project(self, cells: Sequence[SpectralSurface],
                candidates: Sequence[np.ndarray],
                mobilities: Sequence[Callable[[np.ndarray], np.ndarray]],
                dt: float,
                surfaces: Optional[Sequence[SpectralSurface]] = None
                ) -> tuple[list[np.ndarray], NCPReport]:
        """Resolve contacts of the candidate state.

        Parameters
        ----------
        cells:
            Cell surfaces at the *current* (pre-step, collision-free) state.
        candidates:
            Candidate next positions per cell, grid shape (nlat, nphi, 3).
        mobilities:
            Per cell, maps a force density grid field to the surface
            velocity it induces (the implicit term ``S_i``).
        dt:
            Time step.
        surfaces:
            Optionally, per cell, a surface at the candidate positions
            with seeded coefficient / ``upsampled`` caches for the meshes
            to reuse (the result is bit-identical either way).

        Returns the corrected positions and a report.
        """
        ncell = len(cells)
        if ncell == 0:
            return [], NCPReport(n_candidates=0, n_components=0, lcp_solves=0,
                                 max_penetration_before=0.0,
                                 max_penetration_after=0.0,
                                 contact_active=False, lambdas=np.zeros(0))
        pc = self.collision_order or 2 * cells[0].order
        Tc = get_transform(pc)
        nlat_c, nphi_c = Tc.grid.nlat, Tc.grid.nphi

        def build_meshes(positions, seeded=None):
            meshes = self._cell_meshes(cells, positions, pc, seeded)
            for bm in self.boundary_meshes:
                meshes.append(dataclasses.replace(
                    bm, object_id=ncell + (bm.object_id)))
            return meshes

        current = build_meshes([c.X for c in cells])
        eps = self.contact_eps
        if eps is None:
            scale = current[0].edge_length_scale() if current else 1.0
            eps = 0.5 * scale

        cand_pos = [np.asarray(c, float).reshape(cells[i].grid.nlat,
                                                 cells[i].grid.nphi, 3)
                    for i, c in enumerate(candidates)]
        cand_meshes = build_meshes(cand_pos, surfaces)
        cand_verts = [m.vertices for m in cand_meshes[:ncell]] + \
                     [None] * len(self.boundary_meshes)
        pairs = candidate_object_pairs(current, cand_verts, eps)

        contacts = compute_contacts(cand_meshes, pairs, eps)
        vol_before = min((c.volume for c in contacts), default=0.0)

        report = NCPReport(n_candidates=len(pairs), n_components=len(contacts),
                           lcp_solves=0,
                           max_penetration_before=-vol_before,
                           max_penetration_after=0.0,
                           contact_active=bool(contacts),
                           lambdas=np.zeros(0))
        if not contacts:
            return cand_pos, report

        vol_tol = self.volume_tol_factor * eps * np.mean(
            [m.vertex_weights.sum() for m in cand_meshes[:ncell]])
        positions = [p.copy() for p in cand_pos]
        lam_all = []
        resolved = False
        for _ in range(self.options.ncp_max_lcp):
            m = len(contacts)
            # Displacement response of every component's unit force.
            unit_disp: list[dict[int, np.ndarray]] = []
            for comp in contacts:
                disp: dict[int, np.ndarray] = {}
                for oid, (idx, dirs, w) in comp.vertex_forces.items():
                    if oid >= ncell:
                        continue  # rigid vessel
                    dens_c = np.zeros((nlat_c * nphi_c + 2, 3))
                    dens_c[idx] = dirs
                    dens_c = dens_c[:-2].reshape(nlat_c, nphi_c, 3)
                    dens_p = self._restrict(cells[oid], dens_c, pc)
                    u = mobilities[oid](dens_p)
                    du = self._prolong(cells[oid], dt * u, pc)
                    disp[oid] = du.reshape(-1, 3)
                unit_disp.append(disp)

            # Dense B: change of component volume c1 per unit lambda of c2.
            B = np.zeros((m, m))
            for c2, disp in enumerate(unit_disp):
                for c1, comp in enumerate(contacts):
                    acc = 0.0
                    for oid, (idx, dirs, w) in comp.vertex_forces.items():
                        if oid in disp:
                            # pole vertices (last two) carry zero weight
                            valid = idx < disp[oid].shape[0]
                            acc += float(np.einsum(
                                "nk,nk,n->", dirs[valid],
                                disp[oid][idx[valid]], w[valid]))
                    B[c1, c2] = acc
            q = np.array([c.volume for c in contacts])
            res = solve_lcp(lambda x: B @ x, q)
            report.lcp_solves += 1
            report.lcp_converged = report.lcp_converged and res.converged
            report.lcp_residual = max(report.lcp_residual, res.residual)
            lam_all.append(res.lam)

            # Apply the combined contact displacement.
            for oid in range(ncell):
                total = np.zeros((cells[oid].grid.nlat,
                                  cells[oid].grid.nphi, 3))
                touched = False
                for lam_c, comp in zip(res.lam, contacts):
                    if lam_c == 0.0 or oid not in comp.vertex_forces:
                        continue
                    idx, dirs, w = comp.vertex_forces[oid]
                    dens_c = np.zeros((nlat_c * nphi_c + 2, 3))
                    dens_c[idx] = lam_c * dirs
                    dens_p = self._restrict(
                        cells[oid], dens_c[:-2].reshape(nlat_c, nphi_c, 3), pc)
                    total += dens_p
                    touched = True
                if touched:
                    positions[oid] = positions[oid] + dt * mobilities[oid](total)

            cand_meshes = build_meshes(positions)
            contacts = compute_contacts(cand_meshes, pairs, eps)
            worst = min((c.volume for c in contacts), default=0.0)
            if worst >= -abs(vol_tol):
                resolved = True
                break

        report.resolved = resolved
        report.max_penetration_after = -min(
            (c.volume for c in contacts), default=0.0)
        report.lambdas = (np.concatenate(lam_all) if lam_all else np.zeros(0))
        return positions, report
