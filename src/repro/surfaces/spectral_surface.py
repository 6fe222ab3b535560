"""Spectral representation of one deformable cell surface.

The surface is the image of the unit sphere under a band-limited map
``X(theta, phi)``; all differential geometry is obtained by spectral
differentiation of the coordinate series. Products of derivatives are
formed pointwise on the sampling grid; to control aliasing, geometry can be
computed on a grid upsampled by ``aliasing_factor`` (default 2) and
band-limited back, the standard 2/3-style dealiasing used by spectral
vesicle codes such as [48].
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..analysis.guard import HEAVY_TABLE_CACHE_SIZE, freeze, locked_cache
from ..sph import SHTransform, get_transform
from ..sph.grid import SphGrid


def _phi_derivative_rows(F: np.ndarray) -> np.ndarray:
    """Exact d/dphi via per-latitude FFT (rows are smooth periodic)."""
    nphi = F.shape[1]
    Fk = np.fft.fft(F, axis=1)
    m = np.fft.fftfreq(nphi, d=1.0 / nphi)
    m[nphi // 2] = 0.0  # drop the Nyquist mode of the derivative
    return np.fft.ifft(Fk * (1j * m)[None, :], axis=1).real


@locked_cache(maxsize=HEAVY_TABLE_CACHE_SIZE)
def _grid_operator_matrices(p: int, q: int) -> dict:
    """Dense real grid-to-grid operators between orders ``p`` and ``q``.

    Each matrix is the composition (forward SHT at the source order) ∘
    (pad/truncate) ∘ (derivative synthesis at the target order), assembled
    per azimuthal mode — the composition is block-diagonal in ``m``, so
    assembly is a handful of tiny latitude GEMMs plus rank-1 phase outer
    products rather than a dense complex triple product. With these, every
    surface differential operator is one real GEMV per field instead of a
    round of FFT-based transforms.

    Keys: ``up_theta``/``up_phi`` (native grid -> theta/phi derivative on
    the order-q grid), ``down`` (order-q grid -> band-limited native
    grid), ``theta_q`` (order-q grid -> theta derivative on itself) and
    ``dphi_rows`` (right-multiplication matrix for exact per-latitude
    d/dphi on the order-q grid).
    """
    Tp, Tq = get_transform(p), get_transform(q)
    gp, gq = Tp.grid, Tq.grid
    Pp = Tp._P
    Pq, dPq = Tq._P, Tq._dP
    Dqp = gq.phi[:, None] - gp.phi[None, :]
    Dqq = gq.phi[:, None] - gq.phi[None, :]

    def compose(tab_syn, P_ana, w_ana, Delta, lmax, mmax, phi_deriv=False):
        nls, nla = tab_syn.shape[2], P_ana.shape[2]
        nps, npa = Delta.shape
        M = np.zeros((nls, nps, nla, npa))
        scale = 2.0 * np.pi / npa
        for m in range(mmax + 1):
            if phi_deriv and m == 0:
                continue
            # latitude kernel of mode m: contraction over degrees l
            L = tab_syn[m: lmax + 1, m, :].T @ (P_ana[m: lmax + 1, m, :]
                                                * w_ana[None, :])
            if phi_deriv:
                ph = (-2.0 * m * scale) * np.sin(m * Delta)
            else:
                ph = ((1.0 if m == 0 else 2.0) * scale) * np.cos(m * Delta)
            M += L[:, None, :, None] * ph[None, :, None, :]
        return M.reshape(nls * nps, nla * npa)

    return {
        "up_theta": freeze(compose(dPq, Pp, gp.glw, Dqp, p, p)),
        "up_phi": freeze(compose(Pq, Pp, gp.glw, Dqp, p, p,
                                 phi_deriv=True)),
        "down": freeze(compose(Pp, Pq, gq.glw, -Dqp.T, p, p)),
        "theta_q": freeze(compose(dPq, Pq, gq.glw, Dqq, q, q)),
        "dphi_rows": freeze(_phi_derivative_rows(np.eye(gq.nphi))),
    }


@locked_cache(maxsize=HEAVY_TABLE_CACHE_SIZE)
def bandlimit_projector(p: int) -> np.ndarray:
    """Dense (N, N) projector onto band-limited order-``p`` grid fields.

    The sampling grid has ``(p+1)(2p+2)`` points but band-limited fields
    span only the ``(p+1)^2`` spherical-harmonic modes, so grid-space
    operators whose range is band-limited (every operator here ending in
    a band-limiting synthesis) are rank-deficient by the complement. The
    projector ``synthesis . analysis`` restricts a direct solve to the
    subspace the iterative Krylov solvers implicitly work in (their
    right-hand sides and operator ranges are band-limited).
    """
    T = get_transform(p)
    return freeze((T.synthesis_matrix() @ T.analysis_matrix()).real)


@dataclasses.dataclass
class SurfaceGeometry:
    """First/second fundamental forms and derived fields on the grid.

    All arrays have grid shape ``(nlat, nphi[, 3])``. ``W`` is the area
    element ``|X_theta x X_phi|``; ``area_ratio = W / sin(theta)`` is the
    smooth density of surface measure against the sphere measure, so
    ``integral_Gamma f dS = grid.integrate(f * area_ratio)``. With the
    grid's orientation the normal points outward; the mean curvature of a
    sphere of radius R is ``H = -1/R`` in this convention.
    """

    X_theta: np.ndarray
    X_phi: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    W: np.ndarray
    normal: np.ndarray
    area_ratio: np.ndarray
    H: np.ndarray
    K: np.ndarray

    def cell(self, k: int) -> "SurfaceGeometry":
        """Cell ``k`` of a geometry evaluated on a stack of surfaces."""
        return SurfaceGeometry(*(getattr(self, f.name)[k]
                                 for f in dataclasses.fields(self)))


class SpectralSurface:
    """A closed surface with spherical-harmonic order ``p``.

    Parameters
    ----------
    positions:
        Grid samples of the surface map, shape ``(nlat, nphi, 3)`` or the
        flattened ``(nlat * nphi, 3)``.
    order:
        Spherical-harmonic order ``p``; inferred from the array shape when
        omitted.
    """

    def __init__(self, positions: np.ndarray, order: Optional[int] = None,
                 aliasing_factor: int = 2):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 2:
            # infer order: n = (p+1)(2p+2) = 2(p+1)^2
            n = positions.shape[0]
            p = int(round(np.sqrt(n / 2.0))) - 1
            positions = positions.reshape(p + 1, 2 * p + 2, 3)
        if order is None:
            order = positions.shape[0] - 1
        self.order = int(order)
        self.transform = get_transform(self.order)
        self.grid: SphGrid = self.transform.grid
        if positions.shape != (self.grid.nlat, self.grid.nphi, 3):
            raise ValueError("positions do not match the grid of this order")
        self.X = positions.copy()
        self.aliasing_factor = int(aliasing_factor)
        self._coeffs: Optional[np.ndarray] = None
        self._geom: Optional[SurfaceGeometry] = None
        self._up_tables: Optional[tuple] = None
        self._fine: Optional[SpectralSurface] = None
        self._dense_ops: Optional[dict] = None

    # -- basics ------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def points(self) -> np.ndarray:
        """Flattened point cloud view, shape (n_points, 3)."""
        return self.X.reshape(-1, 3)

    def coeffs(self) -> np.ndarray:
        """SH coefficients of the three coordinates, shape (3, p+1, 2p+1)."""
        if self._coeffs is None:
            stacked_coeffs([self])
        return self._coeffs

    def seed_coeffs(self, coeffs: np.ndarray) -> None:
        """Install externally computed SH coefficients of the *current*
        positions (a slice of :func:`stacked_coeffs`' transform, a
        snapshot, a checkpoint); only the shape is validated."""
        coeffs = np.ascontiguousarray(coeffs)
        expected = (3, self.order + 1, 2 * self.order + 1)
        if coeffs.shape != expected:
            raise ValueError(f"expected coefficients of shape {expected}, "
                             f"got {coeffs.shape}")
        self._coeffs = coeffs

    def set_positions(self, positions: np.ndarray) -> None:
        """Update the surface (invalidates cached geometry)."""
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 2:
            positions = positions.reshape(self.grid.nlat, self.grid.nphi, 3)
        self.X = positions.copy()
        self._coeffs = None
        self._geom = None
        self._up_tables = None
        self._fine = None
        self._dense_ops = None

    def adopt_caches(self, other: "SpectralSurface") -> bool:
        """Share ``other``'s coefficient and :meth:`upsampled` caches if it
        sits at exactly these positions; returns whether it does."""
        same = ((other.order, other.aliasing_factor)
                == (self.order, self.aliasing_factor)
                and np.array_equal(self.X, other.X))
        if same:
            self._coeffs, self._fine = other._coeffs, other._fine
        return same

    def translated(self, shift: np.ndarray) -> "SpectralSurface":
        return SpectralSurface(self.X + np.asarray(shift, float), self.order,
                               self.aliasing_factor)

    def scaled(self, factor: float, about_centroid: bool = True) -> "SpectralSurface":
        c = self.centroid() if about_centroid else np.zeros(3)
        return SpectralSurface(c + factor * (self.X - c), self.order,
                               self.aliasing_factor)

    def rotated(self, R: np.ndarray) -> "SpectralSurface":
        c = self.centroid()
        pts = (self.points - c) @ np.asarray(R, float).T + c
        return SpectralSurface(pts.reshape(self.X.shape), self.order,
                               self.aliasing_factor)

    def upsampled(self, new_order: int) -> "SpectralSurface":
        """Exact band-limited resampling to a finer grid: a stack of one
        through :func:`seed_upsampled`, cached until :meth:`set_positions`
        and shared by its readers (near evaluator, collision mesh)."""
        seed_upsampled([self], new_order)
        return self._fine

    # -- geometry ------------------------------------------------------------
    @staticmethod
    def _geometry_from_transform(T: SHTransform, coeffs) -> SurfaceGeometry:
        """Pointwise-exact differential geometry on T's grid.

        All parametric derivatives come straight from the coefficient
        series (exact for band-limited X); the subsequent products are
        formed pointwise, so no spherical re-expansion of the pole-singular
        coordinate-derivative fields is ever needed. Leading axes of
        ``coeffs`` ``(..., 3, p+1, 2p+1)`` stack surfaces; every operation
        is batch-invariant, so a slice equals the single-surface call.
        """
        grid = T.grid
        coeffs = np.asarray(coeffs)

        def d(which):
            return np.moveaxis(T.derivative_grid(coeffs, which), -3, -1)

        Xt, Xp = d("theta"), d("phi")
        Xtt, Xtp, Xpp = d("theta2"), d("thetaphi"), d("phi2")

        E = np.einsum("...k,...k->...", Xt, Xt)
        F = np.einsum("...k,...k->...", Xt, Xp)
        G = np.einsum("...k,...k->...", Xp, Xp)
        cross = np.cross(Xt, Xp)
        W = np.linalg.norm(cross, axis=-1)
        normal = cross / W[..., None]
        L = np.einsum("...k,...k->...", Xtt, normal)
        M = np.einsum("...k,...k->...", Xtp, normal)
        N = np.einsum("...k,...k->...", Xpp, normal)
        W2 = W * W
        H = (E * N + G * L - 2.0 * F * M) / (2.0 * W2)
        K = (L * N - M * M) / W2
        area_ratio = W / grid.sin_theta[:, None]
        return SurfaceGeometry(X_theta=Xt, X_phi=Xp, E=E, F=F, G=G, W=W,
                               normal=normal, area_ratio=area_ratio, H=H, K=K)

    def geometry(self) -> SurfaceGeometry:
        """Compute (and cache) the differential geometry on the native grid."""
        if self._geom is None:
            seed_geometry([self])
        return self._geom

    # -- integral quantities ---------------------------------------------------
    def area(self) -> float:
        g = self.geometry()
        return float(self.grid.integrate(g.area_ratio))

    def volume(self) -> float:
        g = self.geometry()
        integrand = np.einsum("ijk,ijk->ij", self.X, g.normal) * g.area_ratio
        return float(self.grid.integrate(integrand)) / 3.0

    def centroid(self) -> np.ndarray:
        """Volume centroid computed from the divergence theorem."""
        g = self.geometry()
        xn = np.einsum("ijk,ijk->ij", self.X, g.normal)
        vol = float(self.grid.integrate(xn * g.area_ratio)) / 3.0
        # centroid_i = (1/V) int x_i dV = (1/2V) int x_i (x . n) ... use
        # int_V x_i dV = (1/4) int_Gamma x_i (x . n) dS for star-shaped exact
        # forms; we use the standard surface form (1/2) int x_i^2 n_i dS.
        mom = np.stack([
            0.5 * self.grid.integrate(self.X[:, :, i] ** 2 * g.normal[:, :, i] * g.area_ratio)
            for i in range(3)
        ])
        return mom / vol

    def reduced_volume(self) -> float:
        """3 sqrt(4 pi) V / A^{3/2}; 1 for a sphere, ~0.65 for an RBC."""
        A = self.area()
        V = self.volume()
        return 3.0 * np.sqrt(4.0 * np.pi) * V / A ** 1.5

    def cylindrical_frames(self) -> np.ndarray:
        """Orthonormal cylindrical component frames about the
        parametrization's polar axis, shape ``(nlat, nphi, 3, 3)``.

        Row ``k`` of the ``(3, 3)`` block at a grid point is the ``k``-th
        frame vector ``(e_rho, e_phi, e_z)`` at that point's longitude
        (the frame depends only on ``phi``, not on the actual surface
        position). For a surface of revolution about the polar axis,
        conjugating a grid operator into these frames per point makes it
        block-circulant in the target longitude — the geometric limit of
        the structure the block-circulant self-interaction assembly
        exploits at the parametrization level for arbitrary shapes
        (see :mod:`repro.vesicle.self_interaction`); the equivalence
        suite pins that limit on a sphere.
        """
        grid = self.grid
        cp, sp = np.cos(grid.phi), np.sin(grid.phi)
        F = np.zeros((grid.nphi, 3, 3))
        F[:, 0, 0] = cp
        F[:, 0, 1] = sp
        F[:, 1, 0] = -sp
        F[:, 1, 1] = cp
        F[:, 2, 2] = 1.0
        return np.broadcast_to(F[None], (grid.nlat, grid.nphi, 3, 3)).copy()

    def quadrature_weights(self) -> np.ndarray:
        """Surface-quadrature weight of each grid point, shape (nlat, nphi).

        ``sum_i w_i f(x_i)`` approximates ``int_Gamma f dS`` spectrally.
        """
        g = self.geometry()
        return self.grid.weights * g.area_ratio

    # -- surface differential operators ----------------------------------------
    def _upsampled_tables(self):
        """Anti-aliasing workspace: transform and geometry at order
        ``aliasing_factor * p`` (cached)."""
        if self._up_tables is None:
            seed_geometry([self], aliased=True)
        return self._up_tables

    @staticmethod
    def _pad_coeffs_any(c: np.ndarray, p: int, q: int) -> np.ndarray:
        """Zero-pad order-p coefficients to order q (batched over leading
        axes); a block slice, since entries outside the triangle are zero."""
        c = np.asarray(c)
        cq = np.zeros((*c.shape[:-2], q + 1, 2 * q + 1), dtype=complex)
        cq[..., : p + 1, q - p: q + p + 1] = c
        return cq

    def _aliasing_order(self) -> int:
        """Order of the anti-aliasing workspace grid."""
        return max(self.order + 2, self.aliasing_factor * self.order)

    def _op_matrices(self) -> dict:
        """Dense surface-operator building blocks for this surface's
        (native, anti-aliasing) order pair."""
        return _grid_operator_matrices(self.order, self._aliasing_order())

    def surface_gradient(self, f: np.ndarray) -> np.ndarray:
        """Tangential gradient of a scalar grid field, shape (nlat, nphi, 3)."""
        Tq, g = self._upsampled_tables()
        ops = self._op_matrices()
        shq = (Tq.grid.nlat, Tq.grid.nphi)
        fv = np.asarray(f, float).reshape(-1)
        ft = (ops["up_theta"] @ fv).reshape(shq)
        fp = (ops["up_phi"] @ fv).reshape(shq)
        W2 = g.W ** 2
        a = (g.G * ft - g.F * fp) / W2
        b = (g.E * fp - g.F * ft) / W2
        grad_q = a[..., None] * g.X_theta + b[..., None] * g.X_phi
        # The gradient is a smooth ambient vector field; band-limit all
        # three components back with one GEMM.
        return (ops["down"] @ grad_q.reshape(-1, 3)).reshape(
            self.grid.nlat, self.grid.nphi, 3)

    def surface_divergence(self, v: np.ndarray) -> np.ndarray:
        """Surface divergence of an ambient vector field sampled on the grid.

        Used for the inextensibility constraint div_gamma(u) = 0 of paper
        Eq. (2.9).
        """
        Tq, g = self._upsampled_tables()
        ops = self._op_matrices()
        shq3 = (Tq.grid.nlat, Tq.grid.nphi, 3)
        v = np.asarray(v, float).reshape(-1, 3)
        vt = (ops["up_theta"] @ v).reshape(shq3)
        vp = (ops["up_phi"] @ v).reshape(shq3)
        W2 = g.W ** 2
        e1 = (g.G[..., None] * g.X_theta - g.F[..., None] * g.X_phi) / W2[..., None]
        e2 = (g.E[..., None] * g.X_phi - g.F[..., None] * g.X_theta) / W2[..., None]
        div_q = (np.einsum("ijk,ijk->ij", e1, vt)
                 + np.einsum("ijk,ijk->ij", e2, vp))
        return (ops["down"] @ div_q.reshape(-1)).reshape(self.grid.nlat,
                                                         self.grid.nphi)

    def laplace_beltrami(self, f: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami of a scalar grid field.

        Divergence form (1/W)[d_theta((G f_t - F f_p)/W) + d_phi((E f_p -
        F f_t)/W)]. The theta-flux P is a smooth spherical function (the
        sin(theta) inside W cancels the pole behaviour of f_theta) and is
        differentiated via a spherical re-expansion; the phi-flux Q is
        *not* smooth at the poles (it tends to a nonzero function of phi),
        but each latitude row of it is smooth and periodic, so d/dphi is
        taken row-wise with an FFT, which is exact.
        """
        Tq, g = self._upsampled_tables()
        ops = self._op_matrices()
        shq = (Tq.grid.nlat, Tq.grid.nphi)
        fv = np.asarray(f, float).reshape(-1)
        ft = (ops["up_theta"] @ fv).reshape(shq)
        fp = (ops["up_phi"] @ fv).reshape(shq)
        P = (g.G * ft - g.F * fp) / g.W
        Q = (g.E * fp - g.F * ft) / g.W
        dP = (ops["theta_q"] @ P.reshape(-1)).reshape(shq)
        dQ = Q @ ops["dphi_rows"]
        lb_q = (dP + dQ) / g.W
        return (ops["down"] @ lb_q.reshape(-1)).reshape(self.grid.nlat,
                                                        self.grid.nphi)

    # -- dense operators at the current geometry -------------------------------
    def _dense_operator_tables(self) -> dict:
        """Assembled dense surface operators at the current configuration.

        Every surface differential operator above is an affine composition
        of the fixed grid-to-grid matrices of
        :func:`_grid_operator_matrices` with diagonal scalings by the
        (geometry-dependent) fundamental forms, so each one *is* a dense
        matrix at frozen geometry. These feed the per-step direct linear
        algebra (the tension Schur complement and the factorized implicit
        bending operator); they are cached until :meth:`set_positions`.

        Keys: ``grad`` maps ``f.ravel()`` (N,) to the gradient field
        raveled in grid order (3N,); ``div`` maps a raveled vector field
        (3N,) to the divergence (N,); ``lb`` is the (N, N)
        Laplace-Beltrami matrix.
        """
        if self._dense_ops is not None:
            return self._dense_ops
        Tq, g = self._upsampled_tables()
        ops = self._op_matrices()
        n = self.grid.n_points
        nq = Tq.grid.n_points
        up_t, up_p, down = ops["up_theta"], ops["up_phi"], ops["down"]
        W2 = (g.W ** 2).ravel()
        E, F, G = g.E.ravel(), g.F.ravel(), g.G.ravel()
        Xt = g.X_theta.reshape(nq, 3)
        Xp = g.X_phi.reshape(nq, 3)

        # gradient: grad_q[.., k] = c1_k * (up_t f) + c2_k * (up_p f) with
        # c1 = (G Xt - F Xp)/W^2, c2 = (E Xp - F Xt)/W^2, then band-limit.
        # The divergence uses the *same* reciprocal-basis fields per
        # component (div v = sum_k e1_k (up_t v_k) + e2_k (up_p v_k) with
        # e = c), so its three column blocks equal the gradient's three
        # row blocks; assemble the blocks once with a single stacked GEMM.
        c1 = (G[:, None] * Xt - F[:, None] * Xp) / W2[:, None]
        c2 = (E[:, None] * Xp - F[:, None] * Xt) / W2[:, None]
        stacked = np.concatenate(
            [c1[:, k, None] * up_t + c2[:, k, None] * up_p
             for k in range(3)], axis=1)
        blocks = (down @ stacked).reshape(n, 3, n)
        grad = np.empty((3 * n, n))
        div = np.empty((n, 3 * n))
        for k in range(3):
            grad[k::3] = blocks[:, k]
            div[:, k::3] = blocks[:, k]

        # Laplace-Beltrami in divergence form (see laplace_beltrami):
        # theta-flux through the order-q theta-derivative matrix, phi-flux
        # through the per-latitude-row FFT derivative matrix.
        Wq = g.W.ravel()
        MP = ((G / Wq)[:, None] * up_t - (F / Wq)[:, None] * up_p)
        MQ = ((E / Wq)[:, None] * up_p - (F / Wq)[:, None] * up_t)
        dP = ops["theta_q"] @ MP
        nlat_q, nphi_q = Tq.grid.nlat, Tq.grid.nphi
        # row-wise d/dphi as a batched GEMM over latitude rows:
        # dQ[i, l, n] = sum_j dphi_rows[j, l] MQ[i, j, n]
        dQ = np.matmul(ops["dphi_rows"].T[None, :, :],
                       MQ.reshape(nlat_q, nphi_q, n)).reshape(nq, n)
        lb = down @ ((dP + dQ) / Wq[:, None])

        self._dense_ops = {"grad": grad, "div": div, "lb": lb}
        return self._dense_ops

    def surface_gradient_matrix(self) -> np.ndarray:
        """Dense (3N, N) operator: scalar grid field -> tangential
        gradient field, both raveled in grid order (cached per geometry)."""
        return self._dense_operator_tables()["grad"]

    def surface_divergence_matrix(self) -> np.ndarray:
        """Dense (N, 3N) operator: raveled vector grid field -> surface
        divergence (cached per geometry)."""
        return self._dense_operator_tables()["div"]

    def laplace_beltrami_matrix(self) -> np.ndarray:
        """Dense (N, N) Laplace-Beltrami operator on scalar grid fields
        (cached per geometry)."""
        return self._dense_operator_tables()["lb"]


def stacked_coeffs(surfaces: Sequence[SpectralSurface]) -> np.ndarray:
    """SH coefficients of same-order surfaces, ``(k, 3, p+1, 2p+1)``;
    the empty caches are filled from *one* forward SHT (leading axes are
    batch dimensions). :meth:`SpectralSurface.coeffs` is the stack of one."""
    todo = [s for s in surfaces if s._coeffs is None]
    if todo:
        coeffs = todo[0].transform.forward(
            np.stack([np.moveaxis(s.X, -1, 0) for s in todo]))
        for s, c in zip(todo, coeffs):
            s.seed_coeffs(c)
    return np.stack([s._coeffs for s in surfaces])


def seed_upsampled(surfaces: Sequence[SpectralSurface],
                   new_order: Optional[int] = None) -> None:
    """Fill the :meth:`~SpectralSurface.upsampled` caches not already at
    ``new_order`` (default ``2p`` per surface), one stacked pass per order:
    one forward SHT, one padded resample, one forward SHT on the fine
    grid and one geometry evaluation. Only batch-invariant operations
    are stacked, so the fine surfaces (coefficients and geometry
    installed) are bit-identical to per-surface calls. The fine
    coefficients are the transform of the resampled points, never a
    zero-padding: 1e-14 apart, which a 64-cell scene amplifies past 1e-8.
    """
    groups: dict = {}
    for s in surfaces:
        q = int(new_order or 2 * s.order)
        if s._fine is None or s._fine.order != q:
            groups.setdefault((s.order, q, s.aliasing_factor), []).append(s)
    for (p, q, aliasing), group in groups.items():
        Xq = np.moveaxis(
            get_transform(p).resample(stacked_coeffs(group), q), -3, -1)
        fine = [SpectralSurface(X, q, aliasing) for X in Xq]
        seed_geometry(fine)     # and, through it, their coefficients
        for s, f in zip(group, fine):
            s._fine = f


def seed_geometry(surfaces: Sequence[SpectralSurface],
                  aliased: bool = False) -> None:
    """Fill the empty geometry caches — native grid, or with ``aliased``
    the anti-aliasing workspace ``(transform, geometry)`` on the order
    ``_aliasing_order()`` grid — from one stacked evaluation per order."""
    attr = "_up_tables" if aliased else "_geom"
    groups: dict = {}
    for s in surfaces:
        if getattr(s, attr) is None:
            q = s._aliasing_order() if aliased else s.order
            groups.setdefault((s.order, q), []).append(s)
    for (p, q), group in groups.items():
        T = get_transform(q)
        geom = SpectralSurface._geometry_from_transform(
            T, SpectralSurface._pad_coeffs_any(stacked_coeffs(group), p, q))
        for k, s in enumerate(group):
            setattr(s, attr, (T, geom.cell(k)) if aliased else geom.cell(k))
