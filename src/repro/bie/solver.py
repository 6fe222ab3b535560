"""Nystrom discretization and GMRES solution of the boundary equation."""
from __future__ import annotations

import dataclasses
from typing import Callable, Literal, Optional

import numpy as np

from ..config import NumericsOptions
from ..kernels import (
    laplace_dlp_apply,
    laplace_dlp_matrix,
    stokes_dlp_apply,
    stokes_dlp_matrix,
)
from ..linalg import gmres
from ..patches import PatchSurface, surface_closest_point
from ..quadrature import extrapolation_weights
from ..quadrature.interpolation import chebyshev_lobatto_nodes, interp_matrix_2d

KernelName = Literal["stokes", "laplace"]


@dataclasses.dataclass
class BIESolveReport:
    """Diagnostics of one boundary solve."""

    iterations: int
    residual: float
    converged: bool
    matvecs: int


def _upsample_matrix(q: int, k: int) -> np.ndarray:
    """Interpolation from a patch's q x q nodes to the nodes of its k x k
    subpatches, rows ordered to match ``ChebPatch.subdivide`` + per-subpatch
    tensor-CC node ordering."""
    nodes = chebyshev_lobatto_nodes(q)
    rows = []
    for bi in range(k):
        for bj in range(k):
            lo_u = -1.0 + 2.0 * bi / k
            lo_v = -1.0 + 2.0 * bj / k
            U, V = np.meshgrid(lo_u + (nodes + 1.0) / k,
                               lo_v + (nodes + 1.0) / k, indexing="ij")
            uv = np.column_stack([U.ravel(), V.ravel()])
            rows.append(interp_matrix_2d(q, uv))
    return np.vstack(rows)


class BoundarySolver:
    """Boundary solver for the interior Dirichlet problem on Gamma.

    Parameters
    ----------
    surface:
        Closed patch surface with outward normals (fluid inside).
    kernel:
        ``"stokes"`` (3 components, rank completion N on) or ``"laplace"``
        (scalar, rank completion off — the interior Laplace DLP equation
        is already full rank).
    viscosity:
        Stokes viscosity mu.
    check_r_factor / check_order:
        Check points at distances ``(R + i r)`` along the inward normal,
        ``R = r = check_r_factor * L`` with L the owning patch size and
        ``i = 0..check_order`` (paper Sec. 5.1 uses 0.15 L, p = 8).
    """

    def __init__(self, surface: PatchSurface, kernel: KernelName = "stokes",
                 viscosity: float = 1.0,
                 options: Optional[NumericsOptions] = None,
                 rank_completion: Optional[bool] = None,
                 far_backend: Optional[Callable] = None):
        self.surface = surface
        self.kernel: KernelName = kernel
        self.viscosity = viscosity
        self.options = options or surface.options
        self.ncomp = 3 if kernel == "stokes" else 1
        self.rank_completion = (kernel == "stokes") if rank_completion is None \
            else rank_completion
        self.far_backend = far_backend

        opts = self.options
        self.coarse = surface.coarse()
        self.fine = surface.fine()
        self.N = self.coarse.points.shape[0]
        q = opts.patch_quad
        k = 2 ** opts.upsample_eta
        self._Mup = _upsample_matrix(q, k)
        self._q2 = q * q

        # Check points: per coarse node, p+1 points along the inward normal.
        p = opts.check_order
        L = surface.patch_sizes()[self.coarse.patch_of]
        self._Rr = opts.check_r_factor * L                        # (N,)
        offsets = (1.0 + np.arange(p + 1))[None, :] * self._Rr[:, None]
        self.check_points = (self.coarse.points[:, None, :]
                             - offsets[:, :, None] * self.coarse.normals[:, None, :]
                             ).reshape(-1, 3)
        # Scale-invariant extrapolation weights to the surface (t = 0).
        self._extrap = extrapolation_weights(1.0, 1.0, p, 0.0)

        self._dense_dlp: Optional[np.ndarray] = None
        self._A: Optional[np.ndarray] = None

    # -- internals -------------------------------------------------------------
    def _upsample(self, phi: np.ndarray) -> np.ndarray:
        """Density on coarse nodes -> fine nodes (per-patch polynomial
        interpolation), shape (N_fine, ncomp)."""
        npatch = self.surface.n_patches
        per = phi.reshape(npatch, self._q2, self.ncomp)
        fine = np.einsum("fc,pcn->pfn", self._Mup, per)
        return fine.reshape(-1, self.ncomp)

    def _dlp_to_points(self, weighted_fine: np.ndarray,
                       targets: np.ndarray) -> np.ndarray:
        """Smooth double-layer quadrature from fine nodes to targets."""
        if self.far_backend is not None:
            return self.far_backend(self.fine.points, self.fine.normals,
                                    weighted_fine, targets)
        if self.kernel == "stokes":
            return stokes_dlp_apply(self.fine.points, self.fine.normals,
                                    weighted_fine, targets)
        return laplace_dlp_apply(self.fine.points, self.fine.normals,
                                 weighted_fine.ravel(), targets)[:, None]

    def _maybe_dense(self, max_bytes: float = 1.5e9) -> Optional[np.ndarray]:
        """Precompute the fine-to-check-point DLP matrix when it fits.

        The geometry is fixed during a solve, so caching this operator
        turns every GMRES iteration into one BLAS multiply.
        """
        if self._dense_dlp is not None:
            return self._dense_dlp
        nt = self.check_points.shape[0]
        ns = self.fine.points.shape[0]
        nbytes = (nt * self.ncomp) * (ns * self.ncomp) * 8.0
        if nbytes > max_bytes:
            return None
        if self.kernel == "stokes":
            M = stokes_dlp_matrix(self.fine.points, self.fine.normals,
                                  self.check_points)
        else:
            M = laplace_dlp_matrix(self.fine.points, self.fine.normals,
                                   self.check_points)
        self._dense_dlp = M
        return M

    def _check_values(self, weighted_fine: np.ndarray) -> np.ndarray:
        M = self._maybe_dense() if self.far_backend is None else None
        if M is not None:
            if self.kernel == "stokes":
                vals = (M @ weighted_fine.reshape(-1)).reshape(-1, 3)
            else:
                vals = (M @ weighted_fine.ravel())[:, None]
        else:
            vals = self._dlp_to_points(weighted_fine, self.check_points)
        return vals

    # -- precomputed singular operator (the [28] optimization) -------------------
    def assemble(self, check_chunk: int = 4096) -> np.ndarray:
        """Assemble the dense Nystrom matrix A of Eq. (3.5).

        The operator is the composition (extrapolate) o (smooth DLP from
        the fine grid to the check points) o (weights) o (upsample); since
        the upsample operator is block-diagonal per patch, A is assembled
        patch-by-patch with BLAS matmuls and costs O(N_check * N_fine *
        q^2) once — after which every GMRES iteration (and every time step
        on a static vessel) is a single gemv. This is the precomputed
        singular integration operator of [28] cited in paper Sec. 2.2.
        """
        if self._A is not None:
            return self._A
        nc = self.ncomp
        q2 = self._q2
        k2 = 4 ** self.options.upsample_eta
        npatch = self.surface.n_patches
        p1 = self.options.check_order + 1
        N = self.N
        A = np.zeros((N * nc, N * nc))
        fine_per_patch = k2 * q2
        checks = self.check_points
        e = self._extrap
        # Align chunks with whole coarse nodes (p1 check points each).
        chunk = max(p1, (check_chunk // p1) * p1)

        for pi in range(npatch):
            sl = slice(pi * fine_per_patch, (pi + 1) * fine_per_patch)
            src = self.fine.points[sl]
            nrm = self.fine.normals[sl]
            w = self.fine.weights[sl]
            # Weighted upsample operator for this patch: (nfine_p, q2).
            B = w[:, None] * self._Mup
            cols = slice(pi * q2 * nc, (pi + 1) * q2 * nc)
            for a in range(0, checks.shape[0], chunk):
                trg = checks[a:a + chunk]
                m = trg.shape[0]
                mn = m // p1          # whole coarse nodes in this chunk
                n0 = a // p1
                if nc == 3:
                    K = stokes_dlp_matrix(src, nrm, trg)      # (3m, 3nf)
                    Kr = K.reshape(3 * m, fine_per_patch, 3)
                    Kt = np.ascontiguousarray(Kr.transpose(0, 2, 1)
                                              ).reshape(9 * m, fine_per_patch)
                    Ct = (Kt @ B).reshape(3 * m, 3, q2)
                    C = Ct.transpose(0, 2, 1).reshape(m, 3, q2 * 3)
                    # extrapolation contraction over the p1 checks per node
                    D = np.einsum("q,nqcs->ncs", e,
                                  C.reshape(mn, p1, 3, q2 * 3))
                    A[n0 * 3:(n0 + mn) * 3, cols] += D.reshape(mn * 3, q2 * 3)
                else:
                    K = laplace_dlp_matrix(src, nrm, trg)     # (m, nf)
                    C = (K @ B).reshape(mn, p1, q2)
                    D = np.einsum("q,nqs->ns", e, C)
                    A[n0:n0 + mn, cols] += D
        if self.rank_completion:
            wn = (self.coarse.weights[:, None] * self.coarse.normals).reshape(-1)
            nrm = self.coarse.normals.reshape(-1)
            A += np.outer(nrm, wn)
        self._A = A
        return A

    # -- the Nystrom operator ----------------------------------------------------
    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Apply the discrete operator A of Eq. (3.5): the interior limit of
        the double layer (which carries the +1/2 jump) plus the rank
        completion N."""
        phi = np.asarray(phi, float).reshape(self.N, self.ncomp)
        fine_phi = self._upsample(phi)
        weighted = fine_phi * self.fine.weights[:, None]
        p1 = self.options.check_order + 1
        vals = self._check_values(weighted).reshape(self.N, p1, self.ncomp)
        out = np.einsum("q,nqc->nc", self._extrap, vals)
        if self.rank_completion:
            flux = np.einsum("n,nk,nk->", self.coarse.weights,
                             phi, self.coarse.normals)
            out = out + flux * self.coarse.normals
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x).ravel()

    # -- solve ---------------------------------------------------------------
    def solve(self, g: np.ndarray, tol: Optional[float] = None,
              max_iter: Optional[int] = None
              ) -> tuple[np.ndarray, BIESolveReport]:
        """Solve A phi = g for the density.

        ``g`` is the Dirichlet data at the coarse nodes, shape (N, ncomp)
        (or flat). Returns (phi, report); GMRES iterations are capped per
        paper Sec. 5.1.
        """
        g = np.asarray(g, float).reshape(self.N, self.ncomp)
        n_dof = self.N * self.ncomp
        if self._A is None and n_dof <= 45000:
            self.assemble()
        mv = (lambda x: self._A @ x) if self._A is not None else self.matvec
        res = gmres(mv, g.ravel(),
                    tol=tol if tol is not None else self.options.gmres_tol,
                    max_iter=max_iter if max_iter is not None else self.options.gmres_max_iter)
        report = BIESolveReport(iterations=res.iterations,
                                residual=res.final_residual,
                                converged=res.converged, matvecs=res.matvecs)
        return res.x.reshape(self.N, self.ncomp), report

    # -- off-surface evaluation -----------------------------------------------
    def evaluate(self, phi: np.ndarray, targets: np.ndarray,
                 near_tol_factor: float = 1.5) -> np.ndarray:
        """Evaluate u_Gamma = D phi at points inside the domain.

        Targets within ``near_tol_factor * (R + p r)`` of the surface use
        the check-point extrapolation anchored at their closest point
        (near-singular integration, Sec. 3.1); the rest use the smooth
        fine-grid quadrature directly.
        """
        phi = np.asarray(phi, float).reshape(self.N, self.ncomp)
        targets = np.asarray(targets, float).reshape(-1, 3)
        fine_phi = self._upsample(phi)
        weighted = fine_phi * self.fine.weights[:, None]
        out = self._dlp_to_points(weighted, targets)

        # Distance screen against coarse nodes (cheap, conservative). The
        # completed operator is only modified *on* Gamma, so off-surface
        # evaluation uses the plain double layer throughout.
        opts = self.options
        p = opts.check_order
        # One ranking serves the screen (column 0, the nearest patch) and
        # the closest-point candidates of the targets that pass it.
        ranked, d2 = self.surface.nearest_patches(targets, 4)
        reach = (near_tol_factor * opts.check_r_factor * (1 + p)
                 * self.surface.patch_sizes()[ranked[:, 0]])
        near = np.nonzero(np.sqrt(d2[:, 0]) <= reach)[0]
        if near.size:
            cp = surface_closest_point(self.surface, targets[near],
                                       candidates=ranked[near])
            R = opts.check_r_factor * cp.patch_size
            # Signed distance along the inward direction (fluid side).
            t_par = np.einsum("nk,nk->n", cp.point - targets[near], cp.normal)
            offsets = R[:, None] * (1.0 + np.arange(p + 1))
            checks = (cp.point[:, None, :]
                      - offsets[:, :, None] * cp.normal[:, None, :])
            vals = self._dlp_to_points(weighted, checks.reshape(-1, 3))
            e = extrapolation_weights(1.0, 1.0, p, t_par / R)
            out[near] = np.einsum("nq,nqc->nc", e, vals.reshape(
                near.size, p + 1, self.ncomp))
        return out if self.ncomp > 1 else out.ravel()
