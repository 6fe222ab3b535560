"""Surface tension and the inextensibility constraint.

The membrane is inextensible: ``div_Gamma(u) = 0`` (paper Eq. (2.9)). The
tension ``sigma`` acts as the Lagrange multiplier of that constraint, with
force density

``f_sigma = grad_Gamma(sigma) + sigma * Delta_Gamma(X) = grad_Gamma(sigma)
            + 2 sigma H n``.

:class:`TensionSolver` solves the Schur-complement problem for sigma:
given a background velocity ``u_bg`` (everything except the tension's own
contribution), find sigma with ``div_Gamma(u_bg + S[f_sigma(sigma)]) = 0``.

Every factor of the Schur operator — the surface gradient/divergence,
the curvature term and the singular self-interaction — is a dense matrix
at frozen geometry, so the solver assembles the per-cell (N, N) operator
``Div . S . (Grad + 2Hn .)`` explicitly and LU-factorizes it once per
refresh; each :meth:`~TensionSolver.solve` is then a single
back-substitution instead of an inner GMRES loop. The matrix-free GMRES
path is kept as :meth:`~TensionSolver.solve_iterative` for equivalence
testing and for callers without an assembled self-interaction matrix.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..linalg import LUFactorization, gmres
from ..surfaces import SpectralSurface
from ..surfaces.spectral_surface import bandlimit_projector


def tension_force(surface: SpectralSurface, sigma: np.ndarray) -> np.ndarray:
    """Force density of a tension field, shape (nlat, nphi, 3)."""
    g = surface.geometry()
    sigma = np.asarray(sigma, float).reshape(surface.grid.nlat, surface.grid.nphi)
    grad = surface.surface_gradient(sigma)
    return grad + (2.0 * sigma * g.H)[..., None] * g.normal


def tension_operator_matrix(surface: SpectralSurface) -> np.ndarray:
    """Dense (3N, N) matrix of :func:`tension_force`:
    ``sigma.ravel() -> (grad_Gamma sigma + 2 sigma H n).ravel()``."""
    g = surface.geometry()
    n = surface.grid.n_points
    F = surface.surface_gradient_matrix().copy()
    curv = (2.0 * g.H[..., None] * g.normal).reshape(n, 3)
    idx = np.arange(n)
    for k in range(3):
        F[3 * idx + k, idx] += curv[:, k]
    return F


class TensionSolver:
    """Solves the inextensibility constraint for the tension field.

    Parameters
    ----------
    self_interaction:
        Callable mapping a force grid field (nlat, nphi, 3) to the velocity
        it induces on the same surface (the singular single-layer
        self-interaction operator).
    self_matrix:
        Optional dense (3N, 3N) matrix of that same operator (e.g.
        :attr:`repro.vesicle.SingularSelfInteraction.matrix`). When given,
        the Schur complement is assembled and factorized at construction
        and :meth:`solve` becomes a direct back-substitution.
    """

    def __init__(self, surface: SpectralSurface,
                 self_interaction: Callable[[np.ndarray], np.ndarray],
                 tol: float = 1e-8, max_iter: int = 60,
                 self_matrix: Optional[np.ndarray] = None):
        self.surface = surface
        self.self_interaction = self_interaction
        self.tol = tol
        self.max_iter = max_iter
        self._schur: Optional[LUFactorization] = None
        if self_matrix is not None:
            self.factorize(self_matrix)

    def schur_system(self, self_matrix: np.ndarray) -> np.ndarray:
        """The regularized dense system :meth:`solve` inverts at the
        surface's *current* geometry.

        The Schur operator is rank-deficient on the grid: the grid has
        (p+1)(2p+2) points but band-limited fields span only (p+1)^2
        modes, and both the operator's range and the right-hand side are
        band-limited. Solving A P + (I - P) — on the band-limited
        subspace this is A, on the complement the identity — reproduces
        the unique band-limited solution the Krylov path converges to.
        Split from :meth:`factorize` so the stepper can gather the
        systems of an equal-order cell group and factorize them as one
        stacked getrf pass.
        """
        P = bandlimit_projector(self.surface.order)
        A = self.schur_matrix(self_matrix) @ P
        A += np.eye(P.shape[0]) - P
        return A

    def factorize(self, self_matrix: np.ndarray) -> None:
        """(Re)assemble and LU-factorize the Schur complement at the
        surface's *current* geometry.

        The per-cell factor-and-solve stage of the time stepper calls
        this as an independent batch task per cell after each operator
        refresh (or assembles via :meth:`schur_system` and installs a
        slice of a stacked group factorization instead).
        """
        self._schur = LUFactorization(self.schur_system(self_matrix))

    def install_factorization(self, factorization) -> None:
        """Adopt an externally built factorization of
        :meth:`schur_system`'s matrix (anything with ``.solve(rhs)``,
        e.g. a :class:`repro.linalg.StackedLUHandle` of a stacked
        equal-order group factorization)."""
        self._schur = factorization

    def _shape(self):
        return self.surface.grid.nlat, self.surface.grid.nphi

    def schur_matrix(self, self_matrix: np.ndarray) -> np.ndarray:
        """Assemble the dense (N, N) Schur operator
        ``Div . S . (Grad + 2Hn .)`` at the current geometry."""
        F = tension_operator_matrix(self.surface)
        return self.surface.surface_divergence_matrix() @ (self_matrix @ F)

    @property
    def direct(self) -> bool:
        """Whether :meth:`solve` uses the factorized Schur complement."""
        return self._schur is not None

    def operator(self, sigma_flat: np.ndarray) -> np.ndarray:
        sigma = sigma_flat.reshape(self._shape())
        f = tension_force(self.surface, sigma)
        u = self.self_interaction(f)
        return self.surface.surface_divergence(u).ravel()

    def solve(self, u_background: np.ndarray) -> tuple[np.ndarray, int]:
        """Return (sigma grid field, inner iterations; 0 when direct).

        ``u_background`` is the velocity on the surface from all sources
        except the tension force of this cell.
        """
        if self._schur is None:
            return self.solve_iterative(u_background)
        rhs = -self.surface.surface_divergence(u_background).ravel()
        return self._schur.solve(rhs).reshape(self._shape()), 0

    def solve_report(self, u_background: np.ndarray
                     ) -> tuple[np.ndarray, int, bool]:
        """:meth:`solve` plus the convergence flag: ``(sigma,
        iterations, converged)``.

        The direct path is a back-substitution against the factorized
        Schur complement and always reports converged (unless the
        factorization went singular and fell back to GMRES — see
        :class:`repro.linalg.LUFactorization`); the matrix-free path
        surfaces the GMRES flag the plain :meth:`solve` drops. Returned
        rather than stored on the solver so batch tasks mapped over the
        threaded executor never write shared state.
        """
        if self._schur is None:
            rhs = -self.surface.surface_divergence(u_background).ravel()
            res = gmres(self.operator, rhs, tol=self.tol,
                        max_iter=self.max_iter)
            return res.x.reshape(self._shape()), res.iterations, res.converged
        sigma, iters = self.solve(u_background)
        return sigma, iters, not getattr(self._schur, "singular", False)

    def solve_iterative(self, u_background: np.ndarray
                        ) -> tuple[np.ndarray, int]:
        """The matrix-free GMRES path (reference for :meth:`solve`)."""
        rhs = -self.surface.surface_divergence(u_background).ravel()
        res = gmres(self.operator, rhs, tol=self.tol, max_iter=self.max_iter)
        return res.x.reshape(self._shape()), res.iterations
