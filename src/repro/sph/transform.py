"""Forward and inverse spherical-harmonic transforms.

The forward transform combines an FFT in longitude with Gauss-Legendre
quadrature in colatitude; it is exact for fields band-limited at the grid
order. Coefficients are stored densely as a complex array ``c[l, m + p]``
for ``0 <= l <= p`` and ``-l <= m <= l`` (entries outside the triangle are
zero). Real fields keep the Hermitian symmetry ``c[l, -m] = (-1)^m
conj(c[l, m])``; we store the full complex triangle for simplicity and
return real grids from synthesis when the input was real.

The Legendre (latitude) half of every transform is applied as one dense
matrix contraction over the flattened ``(l, m)`` index rather than a
Python loop over ``m``: the per-order tables cache analysis/synthesis
matrices of shape ``(ncoef, nlat)`` (value, d/dtheta, d^2/dtheta^2) plus
the per-coefficient phi-mode bookkeeping, so ``forward`` / ``inverse`` /
``derivative_grid`` are an FFT plus a single vectorized contraction.
Transforms themselves are cached per order via :func:`get_transform`.
"""
from __future__ import annotations

import threading

import numpy as np

from ..analysis.guard import (PER_ORDER_CACHE_SIZE, freeze,
                              freeze_attributes, locked_cache)
from .alp import (
    normalized_alp,
    normalized_alp_theta_derivative,
    normalized_alp_theta_derivative2,
)
from .grid import SphGrid, get_grid


class _TransformTables:
    """Per-order dense transform machinery (shared by all instances)."""

    def __init__(self, order: int):
        p = order
        grid = get_grid(order)
        self.grid = grid
        P, dP, d2P = normalized_alp_theta_derivative2(order, grid.cos_theta)
        self.P, self.dP, self.d2P = P, dP, d2P

        # Flattened dense (l, m) index of the (p+1, 2p+1) coefficient array.
        ls = np.repeat(np.arange(p + 1), 2 * p + 1)
        ms = np.tile(np.arange(-p, p + 1), p + 1)
        self.ls, self.ms = ls, ms
        #: FFT column holding mode m (negative m wrap around).
        self.cols = ms % grid.nphi
        #: negative-m sign factors of the Y_l^{-m} = (-1)^m conj(Y_l^m)
        #: convention, on the flat (l, m) index.
        self.sign = np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0)
        sign = self.sign
        # S_*[r, j] = sign_m * tab[l, |m|, j]; rows with |m| > l are zero
        # because the ALP tables are zero there.
        self.S_val = sign[:, None] * P[ls, np.abs(ms), :]
        self.S_dth = sign[:, None] * dP[ls, np.abs(ms), :]
        self.S_d2th = sign[:, None] * d2P[ls, np.abs(ms), :]
        #: analysis matrix: S_val with the quadrature weights folded in.
        self.A_lat = self.S_val * grid.glw[None, :]
        self._analysis_dense = None
        self._synthesis_dense = None
        # Guards the lazy dense-matrix builds: concurrent simulations
        # share one table set per order, and an unlocked lazy build
        # races the same way an unlocked factory does.
        self._dense_lock = threading.Lock()
        # One table set per order, shared by every transform/surface of
        # that order via the _transform_tables cache: freeze them.
        freeze_attributes(self)

    def synthesis_tab(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """(latitude matrix, per-coefficient phi factor) for a derivative."""
        if which in ("theta", "thetaphi"):
            S = self.S_dth
        elif which == "theta2":
            S = self.S_d2th
        else:
            S = self.S_val
        if which in ("phi", "thetaphi"):
            fac = 1j * self.ms
        elif which == "phi2":
            fac = -(self.ms.astype(float) ** 2)
        else:
            fac = np.ones(self.ms.size)
        return S, fac

    def analysis_dense(self) -> np.ndarray:
        """Full dense analysis matrix ``A``: ``c.ravel() = A @ f.ravel()``.

        Shape ``((p+1)(2p+1), nlat * nphi)`` complex; built lazily (only
        operator-assembly code paths need it).
        """
        if self._analysis_dense is None:
            with self._dense_lock:
                if self._analysis_dense is None:
                    grid = self.grid
                    phase = np.exp(-1j * np.outer(self.ms, grid.phi))
                    A = (self.A_lat[:, :, None] * phase[:, None, :]
                         * (2.0 * np.pi / grid.nphi))
                    self._analysis_dense = freeze(
                        A.reshape(self.ms.size, grid.n_points))
        return self._analysis_dense

    def synthesis_dense(self) -> np.ndarray:
        """Full dense synthesis matrix ``S``: ``f.ravel() = S @ c.ravel()``
        (real part for real fields). Shape ``(nlat * nphi, (p+1)(2p+1))``."""
        if self._synthesis_dense is None:
            with self._dense_lock:
                if self._synthesis_dense is None:
                    grid = self.grid
                    phase = np.exp(1j * np.outer(self.ms, grid.phi))
                    S = self.S_val[:, :, None] * phase[:, None, :]
                    self._synthesis_dense = freeze(
                        S.reshape(self.ms.size, grid.n_points).T.copy())
        return self._synthesis_dense


@locked_cache(maxsize=PER_ORDER_CACHE_SIZE)
def _transform_tables(order: int) -> _TransformTables:
    return _TransformTables(order)


class SHTransform:
    """Reusable transform object for a fixed order ``p``.

    The heavy tables are cached per order, so constructing these objects
    is cheap; prefer :func:`get_transform` to share instances outright.
    """

    def __init__(self, order: int):
        self.order = int(order)
        self._tab = _transform_tables(self.order)
        self.grid: SphGrid = self._tab.grid
        self._P, self._dP, self._d2P = (self._tab.P, self._tab.dP,
                                        self._tab.d2P)

    # -- analysis ---------------------------------------------------------
    def forward(self, f: np.ndarray) -> np.ndarray:
        """Forward SHT of a real or complex field of shape (..., nlat, nphi).

        Returns coefficients ``c`` of shape ``(..., p+1, 2p+1)`` with
        column index ``m + p``; leading axes are batch dimensions (e.g.
        the three coordinates of a vector field, transformed in one call).
        """
        p = self.order
        grid = self.grid
        tab = self._tab
        f = np.asarray(f)
        if f.shape[-2:] != (grid.nlat, grid.nphi):
            raise ValueError(f"expected field of shape {(grid.nlat, grid.nphi)}")
        # Fourier analysis in phi: F[j, m] = (2 pi / nphi) sum_k f e^{-im phi_k}
        F = np.fft.fft(f, axis=-1) * (2.0 * np.pi / grid.nphi)
        # Legendre analysis as one contraction over the flat (l, m) index:
        # c_lm = sum_j A_lat[lm, j] F[j, col(m)].
        c = np.einsum("rj,...jr->...r", tab.A_lat, F[..., tab.cols])
        return c.reshape(*f.shape[:-2], p + 1, 2 * p + 1)

    def analysis_matrix(self) -> np.ndarray:
        """Dense analysis operator: ``forward(f).ravel() == A @ f.ravel()``."""
        return self._tab.analysis_dense()

    def analysis_latitude_matrix(self) -> np.ndarray:
        """The latitude factor of the analysis operator (real).

        The forward transform separates exactly into a longitude DFT and
        a latitude contraction: on the flat ``(l, m)`` index,

        ``A[(l, m), (j, s)] = A_lat[(l, m), j] exp(-i m phi_s) (2 pi / nphi)``

        with ``A_lat`` real (quadrature-weighted associated Legendre
        values, negative-``m`` sign convention folded in). Because the
        longitudes are uniform, shifting the source column ``s`` by ``t``
        equals multiplying row ``(l, m)`` by ``exp(i m phi_t)`` — the
        azimuthal-shift structure the block-circulant self-interaction
        assembly diagonalizes with FFTs. Shape ``((p+1)(2p+1), nlat)``.
        """
        return self._tab.A_lat

    def synthesis_matrix(self) -> np.ndarray:
        """Dense synthesis operator: ``inverse(c) == (S @ c.ravel()).real``."""
        return self._tab.synthesis_dense()

    # -- synthesis --------------------------------------------------------
    def _grid_synthesis(self, c: np.ndarray, which: str,
                        real: bool) -> np.ndarray:
        """Shared synthesis path of :meth:`inverse` / :meth:`derivative_grid`:
        one latitude contraction, a phi-mode scatter, and an inverse FFT.
        Leading axes of ``c`` are batch dimensions."""
        p = self.order
        grid = self.grid
        tab = self._tab
        S, fac = tab.synthesis_tab(which)
        c = np.asarray(c)
        lead = c.shape[:-2]
        cf = c.reshape(*lead, -1) * fac
        # G[r, j] = S[r, j] c_r, folded over l for each m: (2p+1, nlat).
        G = (S * cf[..., None]).reshape(*lead, p + 1, 2 * p + 1,
                                        grid.nlat).sum(axis=-3)
        F = np.zeros((*lead, grid.nlat, grid.nphi), dtype=complex)
        F[..., tab.cols[: 2 * p + 1]] = np.swapaxes(G, -1, -2)
        f = np.fft.ifft(F * grid.nphi, axis=-1)
        return f.real if real else f

    def inverse(self, c: np.ndarray, real: bool = True) -> np.ndarray:
        """Synthesize the field on the native grid from coefficients."""
        return self._grid_synthesis(c, "none", real)

    def evaluation_rows(self, theta: np.ndarray, phi: np.ndarray,
                        derivative: str = "none") -> np.ndarray:
        """Rows ``R`` with ``evaluate(c, theta, phi) == (R @ c.ravel()).real``
        (for a phi derivative, times the coefficients' ``im`` factors):
        geometry-independent, so fixed evaluation points can cache them."""
        p, t = self.order, self._tab
        x = np.cos(np.asarray(theta, dtype=float).ravel())
        phi = np.asarray(phi, dtype=float).ravel()
        if derivative in ("theta", "thetaphi"):
            tab = normalized_alp_theta_derivative(p, x)[1]
        elif derivative == "theta2":
            tab = normalized_alp_theta_derivative2(p, x)[2]
        else:
            tab = normalized_alp(p, x)
        B = t.sign[:, None] * tab[t.ls, np.abs(t.ms), :]  # (ncoef, npts)
        return (B * np.exp(1j * np.outer(t.ms, phi))).T

    def evaluate(self, c: np.ndarray, theta: np.ndarray, phi: np.ndarray,
                 derivative: str = "none", real: bool = True) -> np.ndarray:
        """Evaluate the SH series (or an angular derivative) at points.
        Test oracle for the grid derivatives and the collision mesh poles.

        ``derivative`` is one of ``"none"``, ``"theta"``, ``"phi"``,
        ``"theta2"``, ``"thetaphi"``, ``"phi2"``. Points may not lie on the
        poles when a theta derivative is requested.
        """
        ms = self._tab.ms
        cf = np.asarray(c).ravel().copy()
        if derivative in ("phi", "thetaphi"):
            cf = cf * (1j * ms)
        elif derivative == "phi2":
            cf = cf * (-(ms.astype(float) ** 2))
        out = self.evaluation_rows(theta, phi, derivative) @ cf
        return out.real if real else out

    # -- spectral derivatives on the native grid --------------------------
    def derivative_grid(self, c: np.ndarray, which: str, real: bool = True) -> np.ndarray:
        """Evaluate an angular derivative of the series on the native grid.

        ``which`` is one of ``"none"``, ``"theta"``, ``"phi"``, ``"theta2"``,
        ``"thetaphi"``, ``"phi2"``. Derivatives are exact for band-limited
        series (no product aliasing is introduced here).
        """
        return self._grid_synthesis(c, which, real)

    # -- resampling --------------------------------------------------------
    def resample(self, c: np.ndarray, new_order: int, real: bool = True) -> np.ndarray:
        """Synthesize on the grid of a different order (up/downsampling).

        Upsampling is exact; downsampling truncates the expansion.
        """
        q = int(new_order)
        p = self.order
        c = np.asarray(c)
        cq = np.zeros((*c.shape[:-2], q + 1, 2 * q + 1), dtype=complex)
        lm = min(p, q)
        # Entries outside the (l, |m| <= l) triangle are zero, so the
        # triangle-preserving copy is a single block slice.
        cq[..., : lm + 1, q - lm: q + lm + 1] = \
            c[..., : lm + 1, p - lm: p + lm + 1]
        return get_transform(q).inverse(cq, real=real)


@locked_cache(maxsize=PER_ORDER_CACHE_SIZE)
def get_transform(order: int) -> SHTransform:
    """Cached per-order transform accessor (instances are stateless).

    Bound and build-locking follow the shared-table cache policy in
    :mod:`repro.analysis.guard` (``PER_ORDER_CACHE_SIZE``): concurrent
    first calls build once, and mixed-order sweeps never evict a live
    scene's tables."""
    return SHTransform(order)
