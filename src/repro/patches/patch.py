"""A single tensor-product Chebyshev polynomial patch.

A patch is stored by its values at the n x n tensor Clenshaw-Curtis
(Chebyshev-Lobatto) nodes; interpolation/differentiation use the stable
barycentric formula and the standard Chebyshev differentiation matrix, so
all operations are spectrally accurate for the polynomial the patch
represents. The paper uses 8th-order patches sampled at 11 x 11 points.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ..analysis.guard import freeze
from ..quadrature import clenshaw_curtis, tensor_clenshaw_curtis
from ..quadrature.interpolation import (
    barycentric_matrix,
    chebyshev_lobatto_nodes,
    interp_matrix_2d,
)


@lru_cache(maxsize=32)
def cheb_diff_matrix(n: int) -> np.ndarray:
    """Chebyshev differentiation matrix on ascending CL nodes (n x n)."""
    x = chebyshev_lobatto_nodes(n)
    c = np.ones(n)
    c[0] = 2.0
    c[-1] = 2.0
    c = c * (-1.0) ** np.arange(n)
    X = np.tile(x[:, None], (1, n))
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    return freeze(D)


@lru_cache(maxsize=64)
def _sub_interp_matrix(n: int, k: int):
    """Interpolation matrices mapping a patch's nodal values to the nodal
    values of its k x k parametric subpatches (exact for polynomials)."""
    nodes = chebyshev_lobatto_nodes(n)
    mats = {}
    for bi in range(k):
        lo_u = -1.0 + 2.0 * bi / k
        targets_u = lo_u + (nodes + 1.0) / k
        Mu = barycentric_matrix(nodes, targets_u)
        mats[bi] = freeze(Mu)
    return mats


def equispaced_uv(m: int) -> np.ndarray:
    """The m x m equispaced parameter grid on [-1, 1]^2, shape (m*m, 2),
    u-index first."""
    t = np.linspace(-1.0, 1.0, m)
    U, V = np.meshgrid(t, t, indexing="ij")
    return np.column_stack([U.ravel(), V.ravel()])


class ChebPatch:
    """One polynomial patch P : [-1, 1]^2 -> R^3.

    Parameters
    ----------
    values:
        Nodal positions at the tensor CL grid, shape (n, n, 3), u-index
        first (matching ``tensor_clenshaw_curtis``).
    """

    def __init__(self, values: np.ndarray):
        # A private, read-only copy: the cached derivative table below and
        # the owning surface's cached discretizations are derived from it.
        values = np.array(values, dtype=float, order="C")
        if values.ndim != 3 or values.shape[0] != values.shape[1] or values.shape[2] != 3:
            raise ValueError("patch values must have shape (n, n, 3)")
        self.n = values.shape[0]
        self.values = freeze(values)
        self._D = cheb_diff_matrix(self.n)
        self._table: Optional[np.ndarray] = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      n: int) -> "ChebPatch":
        """Sample a smooth map (u, v) -> R^3 at the CL tensor nodes."""
        x = chebyshev_lobatto_nodes(n)
        U, V = np.meshgrid(x, x, indexing="ij")
        pts = fn(U.ravel(), V.ravel())
        return cls(np.asarray(pts, float).reshape(n, n, 3))

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, uv: np.ndarray) -> np.ndarray:
        """Positions at (m, 2) parameter points."""
        M = interp_matrix_2d(self.n, uv)
        return M @ self.values.reshape(-1, 3)

    def _nodal_derivative(self, du: int, dv: int) -> np.ndarray:
        V = self.values
        for _ in range(du):
            V = np.einsum("ij,jkl->ikl", self._D, V)
        for _ in range(dv):
            V = np.einsum("ij,kjl->kil", self._D, V)
        return V

    def derivative_table(self) -> np.ndarray:
        """Nodal values of ``X, Xu, Xv, Xuu, Xuv, Xvv`` as one frozen
        ``(n*n, 18)`` block (three columns each, in that order), built on
        first use: one interpolation row times this block evaluates the
        patch and all its derivatives up to second order."""
        if self._table is None:
            orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
            self._table = freeze(np.concatenate(
                [self._nodal_derivative(du, dv).reshape(-1, 3)
                 for du, dv in orders], axis=1))
        return self._table

    def derivatives(self, uv: np.ndarray, second: bool = False):
        """First (and optionally second) parametric derivatives at points.

        Returns ``(X, Xu, Xv)`` or ``(X, Xu, Xv, Xuu, Xuv, Xvv)``.
        """
        ncol = 18 if second else 9
        vals = interp_matrix_2d(self.n, uv) @ self.derivative_table()[:, :ncol]
        return tuple(vals[:, c:c + 3] for c in range(0, ncol, 3))

    def normals(self, uv: np.ndarray) -> np.ndarray:
        """Unit normals (orientation: Xu x Xv)."""
        _, Xu, Xv = self.derivatives(uv)
        nrm = np.cross(Xu, Xv)
        return nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)

    # -- quadrature -----------------------------------------------------------
    def quadrature(self, q: Optional[int] = None):
        """Nodes, weights (with area element), and normals of the tensor
        CC rule of size q (defaults to the patch's own n)."""
        q = q or self.n
        uv, w2 = tensor_clenshaw_curtis(q)
        X, Xu, Xv = self.derivatives(uv)
        cr = np.cross(Xu, Xv)
        W = np.linalg.norm(cr, axis=-1)
        normals = cr / W[:, None]
        return X, w2 * W, normals

    def area(self) -> float:
        _, w, _ = self.quadrature()
        return float(w.sum())

    def size(self) -> float:
        """Patch size L = sqrt(area), the length scale of paper Sec. 5.1."""
        return float(np.sqrt(self.area()))

    def bounding_box(self, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the nodal values, padded by ``pad``.

        (The CL nodes of a polynomial patch give a tight practical bound;
        the near-zone inflation d_eps of Sec. 3.3 is applied via ``pad``.)
        """
        lo = self.values.reshape(-1, 3).min(axis=0) - pad
        hi = self.values.reshape(-1, 3).max(axis=0) + pad
        return lo, hi

    # -- subdivision ------------------------------------------------------------
    def subdivide(self, k: int = 2) -> list["ChebPatch"]:
        """Split into k x k equivalent subpatches (exact resampling).

        Used both for the fine discretization of the singular quadrature
        (k = 2**eta) and for the weak-scaling refinement of Sec. 5.2
        ("subdivide the M polynomial patches into 4M new but equivalent
        polynomial patches").
        """
        mats = _sub_interp_matrix(self.n, k)
        out = []
        flatv = self.values.reshape(self.n, self.n, 3)
        for bi in range(k):
            Mu = mats[bi]
            tmp = np.einsum("iu,uvk->ivk", Mu, flatv)
            for bj in range(k):
                Mv = mats[bj]
                child = np.einsum("jv,ivk->ijk", Mv, tmp)
                out.append(ChebPatch(child))
        return out

    def collision_points(self, m: int) -> np.ndarray:
        """m x m equispaced parameter samples for the collision mesh
        (paper: 484 = 22 x 22 points per patch)."""
        return self.evaluate(equispaced_uv(m))
