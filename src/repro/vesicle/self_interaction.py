"""Singular single-layer quadrature on spherical-harmonic surfaces.

For a target point on the surface of its own cell, the Stokes single-layer
integrand has a 1/r singularity. Following [48] and the quadrature rule of
Graham & Sloan [14] (paper Sec. 2.2), the sphere parametrization is rotated
so the target sits at the north pole; in rotated coordinates
``dS = (W / sin theta) sin psi dpsi dalpha`` and ``sin psi / r`` is smooth,
so a Gauss-Legendre rule in ``cos psi`` times a trapezoid rule in ``alpha``
converges spectrally.

The expensive, geometry-independent parts (rotated parameter coordinates
and complex synthesis matrices) depend only on the pair of orders
``(p, q_rot)`` and the target's *latitude row* — a rotation about the polar
axis only multiplies SH coefficients by phases. They are therefore built
once per order pair and cached.

At frozen geometry the whole operator ``density -> velocity`` is a fixed
linear map, so :meth:`SingularSelfInteraction.refresh` additionally
assembles it as one dense ``(3N, 3N)`` matrix (the precomputed singular
integration operator of [28] the paper credits with a substantial
complexity improvement): the per-target kernel tensor is contracted with
the cached rotated-synthesis matrices and composed with the dense forward
SHT, after which every :meth:`~SingularSelfInteraction.apply` — called
inside the tension solve, every implicit-GMRES matvec, and the NCP
mobility — is a single GEMV.

The assembly is *block-circulant*: it exploits the azimuthal structure
the uniform longitudes give both table factors exactly, for arbitrary
(non-axisymmetric) shapes:

- moving a target around its latitude ring rotates the quadrature rule
  about the polar axis, so the ring's rotated-synthesis matrices differ
  only by per-mode phases ``exp(i m phi_t)``
  (:func:`repro.sph.rotation.rotated_ring_points`), and
- the forward SHT factors into a latitude contraction times a uniform
  longitude DFT (:meth:`repro.sph.SHTransform.analysis_latitude_matrix`),
  so the target phase is an exact circular shift of the *source*
  longitude: the composed (synthesis, phase, SHT) table is
  block-circulant in (target longitude, source longitude).

FFT-diagonalizing both pieces replaces the per-target work with
``O(nlat)`` GEMMs against per-ring mode symbols plus batched inverse real
FFTs: the rotated geometry of a whole ring is one per-mode GEMM and an
inverse FFT over the target longitude, and the operator rows of a ring
are one GEMM against the ``(nrot, (p+1) nlat)`` conjugate symbol, a
diagonal target-phase multiply, and an inverse FFT over the source
longitude. Only the pointwise Stokeslet kernel fields remain per-target
(they carry the actual, generally non-axisymmetric geometry), which is
why the route is exact. The per-ring symbol is ``(nlat, nrot, (p+1)
nlat)``, so the route has no memory gate and order-12+ scenes are
practical. (In cylindrical vector components about the polar axis the
full operator of a surface of revolution is itself block-circulant in
the target longitude; the equivalence suite demonstrates that limit, but
the assembly here only relies on the parametrization-level circulance,
which is exact for every shape.)
"""
from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from ..analysis.guard import (HEAVY_TABLE_CACHE_SIZE, freeze,
                              freeze_attributes, locked_cache)
from ..quadrature import gauss_legendre
from ..sph.alp import normalized_alp_theta_derivative
from ..sph.grid import get_grid
from ..sph.rotation import rotated_ring_points
from ..surfaces import SpectralSurface

_POLE_GUARD = 1e-7


def _coeff_index(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (l, m) indexing of the dense (p+1, 2p+1) coefficient array."""
    ls, ms = [], []
    for l in range(p + 1):
        for m in range(-l, l + 1):
            ls.append(l)
            ms.append(m)
    return np.array(ls), np.array(ms)


def pack_coeffs(c: np.ndarray) -> np.ndarray:
    """Dense (..., p+1, 2p+1) coefficient array -> flat (..., (l, m)) vector.

    Leading axes are batch dimensions (e.g. vector-field components).
    """
    c = np.asarray(c)
    p = c.shape[-2] - 1
    ls, ms = _coeff_index(p)
    return c[..., ls, p + ms]


class _RotationTables:
    """Per-(p, q_rot) rotation quadrature machinery, shared through the
    :func:`_rotation_tables` factory cache."""

    def __init__(self, p: int, q_rot: int):
        self.p = p
        self.q_rot = q_rot
        grid = get_grid(p)
        self.grid = grid
        # Rotated quadrature rule: Gauss-Legendre in psi itself (not in
        # cos psi), trapezoid in alpha. Written in psi the single-layer
        # integrand is smooth: sin(psi)/r ~ sin(psi)/(2 sin(psi/2)) =
        # cos(psi/2), which is the cancellation the Graham-Sloan rule [14]
        # exploits; Gauss-Legendre in psi then converges spectrally.
        npsi = q_rot + 1
        nalpha = 2 * q_rot + 2
        psi, wpsi = gauss_legendre(npsi, 0.0, np.pi)
        wpsi = wpsi * np.sin(psi)  # fold in the sphere Jacobian
        alpha = 2.0 * np.pi * np.arange(nalpha) / nalpha
        PSI, ALPHA = np.meshgrid(psi, alpha, indexing="ij")
        self.weights = np.outer(wpsi, np.full(nalpha, 2.0 * np.pi / nalpha)).ravel()
        self.nrot = npsi * nalpha

        ls, ms = _coeff_index(p)
        self.ncoef = ls.size
        self.ms = ms
        #: packed rows inside the dense (p+1)(2p+1) coefficient layout.
        self.packed_rows = ls * (2 * p + 1) + (p + ms)
        #: loop-invariant longitude phases exp(i m phi_t), shape
        #: (ncoef, nphi) — the azimuthal-rotation trick: moving a target
        #: around its latitude row only multiplies coefficients by these.
        self.phases = np.exp(1j * ms[:, None] * grid.phi[None, :])

        # Per latitude row: rotated coordinates for phi0 = 0 and synthesis
        # matrices (value, d/dtheta) from packed coefficients; stacked
        # over rows so downstream contractions are batched GEMMs.
        row_sin, Bvs, Bts = [], [], []
        for i in range(grid.nlat):
            th_r, ph_r = rotated_ring_points(grid.theta[i],
                                             PSI.ravel(), ALPHA.ravel())
            th_r = np.clip(th_r, _POLE_GUARD, np.pi - _POLE_GUARD)
            x = np.cos(th_r)
            P, dP = normalized_alp_theta_derivative(p, x)
            phase = np.exp(1j * ms[None, :] * ph_r[:, None])  # (nrot, ncoef)
            sign = np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0)
            Pm = P[ls, np.abs(ms), :].T * sign[None, :]   # (nrot, ncoef)
            dPm = dP[ls, np.abs(ms), :].T * sign[None, :]
            Bv = Pm * phase
            row_sin.append(np.sin(th_r))
            Bvs.append(Bv)
            Bts.append(dPm * phase)
        #: (nlat, nrot) / (nlat, nrot, ncoef) stacks; row i of each is the
        #: per-latitude machinery of the phi0 = 0 target of that row.
        self.row_sin_theta_r = np.stack(row_sin)
        self.B_val = np.stack(Bvs)
        self.B_dth = np.stack(Bts)
        # Contiguous real/imaginary parts: downstream compositions only
        # need real results, so complex GEMMs are split into real pairs.
        self.B_val_re = np.ascontiguousarray(self.B_val.real)
        self.B_val_im = np.ascontiguousarray(self.B_val.imag)
        self._circ: dict | None = None
        # Tables are shared by every same-order cell; when refresh tasks
        # run on a thread pool the lazy circulant table build must happen
        # exactly once.
        self._circ_lock = threading.Lock()
        # One table set per (p, q_rot), shared by every same-order cell
        # through the _rotation_tables cache: mark everything read-only.
        freeze_attributes(self)

    def circulant_tables(self) -> dict:
        """Per-ring azimuthal-mode symbols of the block-circulant assembly.

        Both factors of the per-target table are diagonal in the
        azimuthal mode ``m`` once the target phase is absorbed:

        - ``syn``, a list over modes ``m`` of complex ``(nlat, 2, nrot,
          p+1-m)`` blocks: the value and d/dtheta rotated-synthesis
          columns ``B[rot, l]``, ``l = m..p``, of the ``phi_t = 0``
          target. The rotated geometry of a whole ring is per-mode GEMMs
          against the coefficients' ``m >= 0`` block (exact by the
          Hermitian symmetry of real fields) followed by the inverse
          azimuthal transform over the target longitude; d/dphi is the
          same modes times ``i m``.
        - ``Ec_even`` / ``Ec_odd``: the *conjugate* composed symbol
          ``conj(sum_l B[rot, (l, m)] A_lat[(l, m), j]) * 2 pi / nphi``
          split into real/imaginary parts and *folded* over the exact
          mirror symmetry ``alpha -> -alpha`` of the rotated rule (the
          real part is even in ``alpha``, the imaginary part odd — the
          pole rotation preserves the rule's reflection plane), which
          halves the inner dimension of the assembly's dominant GEMM.
          Row order along the folded axis is ``(psi, [alpha=0,
          alpha=nalpha/2, alpha=1..nalpha/2-1])`` for both parts (the
          self-paired columns ride along verbatim — see the inline
          comment); columns are ``(j, m)`` j-major. Shapes
          ``(nlat, npsi*(nalpha/2+1), nlat*(p+1))``.
        - ``Ci``/``Si``/``mCi``/``mSi``, shape ``(p+1, nphi)``: the
          dense inverse azimuthal transform ``fac_m cos(m phi_t)`` /
          ``fac_m sin(m phi_t)`` (``fac = 2 - delta_m0``) and its
          ``m``-weighted variants for the phi derivative. This *is* the
          FFT diagonalization — at the ``nphi = 2p + 2`` sizes used here
          the dense length-``nphi`` transform beats a batched FFT call.
        - ``Einv_cos`` / ``Einv_sin``, shape ``(nphi, p+1, nphi)``: the
          diagonalized block shift of the operator rows,
          ``fac_m cos(m (phi_s - phi_t))`` and ``-fac_m sin(m (phi_s -
          phi_t))`` — the target-longitude phase and the inverse
          transform over the *source* longitude in one batched factor.

        Geometry-independent, shared by every cell of this order pair;
        built lazily under a lock.
        """
        if self._circ is None:
            with self._circ_lock:
                if self._circ is not None:      # built by a racing task
                    return self._circ
                from ..sph import get_transform
                grid = self.grid
                p = self.p
                nm = p + 1
                npsi = self.q_rot + 1
                nal = 2 * self.q_rot + 2
                half = nal // 2
                syn = []
                A_lat = get_transform(p).analysis_latitude_matrix()[
                    self.packed_rows]
                E_re = np.empty((grid.nlat, self.nrot, grid.nlat, nm))
                E_im = np.empty_like(E_re)
                for m in range(nm):
                    cols = np.nonzero(self.ms == m)[0]  # l = m..p ascending
                    syn.append(np.ascontiguousarray(np.stack(
                        [self.B_val[:, :, cols], self.B_dth[:, :, cols]],
                        axis=1)))                # (nlat, 2, nrot, p+1-m)
                    Am = (2.0 * np.pi / grid.nphi) * A_lat[cols]
                    E_re[:, :, :, m] = self.B_val_re[:, :, cols] @ Am
                    E_im[:, :, :, m] = -(self.B_val_im[:, :, cols] @ Am)
                # Fold the alpha-mirror symmetry (exact up to rounding;
                # the fold symmetrizes, so the folded contraction agrees
                # with the unfolded one to machine precision).
                K = grid.nlat * nm
                E_re = E_re.reshape(grid.nlat, npsi, nal, K)
                E_im = E_im.reshape(grid.nlat, npsi, nal, K)
                # The self-paired alpha = 0, pi columns are kept verbatim
                # in both halves (the imaginary part there is zero in
                # exact arithmetic, but when a rotated node lands on a
                # pole the computed longitude — and hence the imaginary
                # column — is an arbitrary finite value every other
                # assembly route shares; dropping it would break the
                # cross-route equivalence at ~1e-9).
                Ec_even = np.concatenate([
                    E_re[:, :, :1], E_re[:, :, half: half + 1],
                    0.5 * (E_re[:, :, 1: half] + E_re[:, :, :half: -1]),
                ], axis=2).reshape(grid.nlat, npsi * (half + 1), K)
                Ec_odd = np.concatenate([
                    E_im[:, :, :1], E_im[:, :, half: half + 1],
                    0.5 * (E_im[:, :, 1: half] - E_im[:, :, :half: -1]),
                ], axis=2).reshape(grid.nlat, npsi * (half + 1), K)
                marr = np.arange(nm)
                fac = np.where(marr == 0, 1.0, 2.0)
                Ci = fac[:, None] * np.cos(np.outer(marr, grid.phi))
                Si = fac[:, None] * np.sin(np.outer(marr, grid.phi))
                dphi = grid.phi[None, :] - grid.phi[:, None]   # (t, s)
                Einv_cos = np.ascontiguousarray(
                    (fac[:, None, None]
                     * np.cos(marr[:, None, None] * dphi)).transpose(1, 0, 2))
                Einv_sin = np.ascontiguousarray(
                    (-fac[:, None, None]
                     * np.sin(marr[:, None, None] * dphi)).transpose(1, 0, 2))
                self._circ = {
                    "syn": [freeze(s) for s in syn],
                    "Ec_even": freeze(np.ascontiguousarray(Ec_even)),
                    "Ec_odd": freeze(np.ascontiguousarray(Ec_odd)),
                    "Ci": freeze(Ci), "Si": freeze(Si),
                    "mCi": freeze(marr[:, None] * Ci),
                    "mSi": freeze(marr[:, None] * Si),
                    "Einv_cos": freeze(Einv_cos),
                    "Einv_sin": freeze(Einv_sin),
                    "npsi": npsi, "nalpha": nal,
                }
        return self._circ


@locked_cache(maxsize=HEAVY_TABLE_CACHE_SIZE)
def _rotation_tables(p: int, q_rot: int) -> _RotationTables:
    """Shared per-(p, q_rot) tables (every same-order cell reuses one).

    Bound and build-locking per the shared-table cache policy in
    :mod:`repro.analysis.guard` (``HEAVY_TABLE_CACHE_SIZE``)."""
    return _RotationTables(p, q_rot)


#: symmetric pairs (k, j) of the ``r (x) r`` part of the Stokeslet, and
#: where each contraction lands in the (3, 3) component block.
_STOKESLET_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

#: flat byte budget of one row chunk's kernel-field transients in
#: :func:`assemble_circulant` (measured optimum on the bench host: small
#: enough that a chunk's several elementwise passes stay cache-resident).
_CHUNK_BUDGET = 4e6


def assemble_circulant(tables: _RotationTables,
                       surfaces: Sequence[SpectralSurface],
                       viscosity: float = 1.0
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-circulant assembly of the singular operator, stacked over a
    group of same-order surfaces.

    Per latitude ring, the rotated geometry of all targets comes from
    per-azimuthal-mode GEMMs plus an inverse real FFT over the target
    longitude, and the operator rows come from one GEMM pair against the
    ring's conjugate circulant symbol, a diagonal target-phase multiply
    and an inverse real FFT over the *source* longitude (see
    :meth:`_RotationTables.circulant_tables`); only the pointwise
    Stokeslet kernel fields are evaluated per target, so the result is
    exact for arbitrary shapes. All GEMMs and inverse transforms carry a
    leading cell axis: stacking same-order cells widens the batched
    calls without changing the per-cell arithmetic, so a stacked slice
    agrees with the single-surface assembly of that cell to roundoff
    (<= 1e-16 observed; BLAS blocking may differ with the batch width).

    Every surface must have the tables' order. Returns ``(M, X_rot,
    w_rot)``: the dense operators ``(ncell, 3N, 3N)`` and the rotated
    quadrature geometry ``(ncell, nlat, nphi, nrot[, 3])``.
    """
    tb = tables
    grid = tb.grid
    p = tb.p
    nlat, nphi, nrot = grid.nlat, grid.nphi, tb.nrot
    n = grid.n_points
    nm = p + 1
    ncell = len(surfaces)
    for s in surfaces:
        if s.order != p:
            raise ValueError(f"surface order {s.order} does not match the "
                             f"rotation tables' order {p}")
    ct = tb.circulant_tables()
    syn = ct["syn"]
    Ec_even, Ec_odd = ct["Ec_even"], ct["Ec_odd"]
    Ci, Si, mCi, mSi = ct["Ci"], ct["Si"], ct["mCi"], ct["mSi"]
    Einv_cos, Einv_sin = ct["Einv_cos"], ct["Einv_sin"]
    npsi, nal = ct["npsi"], ct["nalpha"]
    half = nal // 2
    scale = 1.0 / (8.0 * np.pi * viscosity)
    targets = np.stack([s.X for s in surfaces])        # (ncell, nlat, nphi, 3)
    # m >= 0 coefficient block of every surface, arranged (m, l, cell*comp)
    # for the per-mode synthesis GEMMs (the m < 0 half is the Hermitian
    # conjugate for real coordinate fields, supplied by the real inverse
    # azimuthal transform).
    cg = np.stack([s.coeffs()[:, :, p:] for s in surfaces])
    cg = np.ascontiguousarray(
        cg.transpose(3, 2, 0, 1).reshape(nm, nm, ncell * 3))
    pairs = _STOKESLET_PAIRS

    M = np.empty((ncell, nlat, nphi, 3, n, 3))
    X_rot = np.empty((ncell, nlat, nphi, nrot, 3))
    w_rot = np.empty((ncell, nlat, nphi, nrot))
    # The (rows, nphi, nrot, ...) transients scale like O(p^5); bound the
    # per-chunk working set so it stays cache-resident (the whole chunk
    # makes several elementwise passes).
    rows = max(1, int(_CHUNK_BUDGET // (ncell * nphi * nrot * 9 * 8)))
    for a in range(0, nlat, rows):
        sl = slice(a, min(a + rows, nlat))
        nsl = sl.stop - a

        # -- rotated geometry: compact per-mode GEMMs, then the dense
        # inverse azimuthal transform over the target longitude (one
        # flattened GEMM per derivative kind) --
        G = np.stack([syn[m][sl].reshape(nsl * 2 * nrot, nm - m)
                      @ cg[m, m:] for m in range(nm)], axis=-1)
        Gr = np.ascontiguousarray(G.real).reshape(-1, nm)
        Gi = np.ascontiguousarray(G.imag).reshape(-1, nm)
        Xboth = (Gr @ Ci - Gi @ Si).reshape(nsl, 2, nrot, ncell, 3, nphi)
        Xr = Xboth[:, 0].transpose(2, 0, 4, 1, 3)   # (ncell,nsl,nphi,nrot,3)
        Xt = Xboth[:, 1]                            # (nsl,nrot,ncell,3,nphi)
        Gval = np.s_[:, 0]
        Xp = (-(Gr.reshape(nsl, 2, -1, nm)[Gval].reshape(-1, nm) @ mSi)
              - (Gi.reshape(nsl, 2, -1, nm)[Gval].reshape(-1, nm) @ mCi)
              ).reshape(nsl, nrot, ncell, 3, nphi)
        # area element |X_theta x X_phi| without the np.cross temporaries
        W = ((Xt[:, :, :, 1] * Xp[:, :, :, 2]
              - Xt[:, :, :, 2] * Xp[:, :, :, 1]) ** 2
             + (Xt[:, :, :, 2] * Xp[:, :, :, 0]
                - Xt[:, :, :, 0] * Xp[:, :, :, 2]) ** 2
             + (Xt[:, :, :, 0] * Xp[:, :, :, 1]
                - Xt[:, :, :, 1] * Xp[:, :, :, 0]) ** 2)
        np.sqrt(W, out=W)
        X_rot[:, sl] = Xr
        w_rot[:, sl] = ((W.transpose(2, 0, 3, 1)
                         / tb.row_sin_theta_r[None, sl, None, :])
                        * tb.weights[None, None, None, :])

        # -- pointwise Stokeslet kernel fields (the per-target part; the
        # trace delta_kj term is folded into the diagonal pairs) --
        r = targets[:, sl, :, None, :] - Xr
        inv_r = np.einsum("aitsk,aitsk->aits", r, r)
        np.sqrt(inv_r, out=inv_r)
        np.reciprocal(inv_r, out=inv_r)
        trace = (scale * w_rot[:, sl]) * inv_r
        g3 = trace * inv_r * inv_r           # w / r^3
        F = np.empty((ncell, nsl, nphi, 6, nrot))
        for idx, (k, j) in enumerate(pairs):
            np.multiply(r[..., k], r[..., j], out=F[:, :, :, idx])
            F[:, :, :, idx] *= g3
            if k == j:
                F[:, :, :, idx] += trace
        # -- fold the alpha-mirror symmetry: even part meets the real
        # symbol, odd part the imaginary one (half-size inner dims) --
        F = F.reshape(ncell, nsl, nphi, 6, npsi, nal)
        Fe = np.empty((ncell, nsl, nphi, 6, npsi, half + 1))
        Fe[..., 0] = F[..., 0]
        Fe[..., 1] = F[..., half]
        Fe[..., 2:] = F[..., 1: half] + F[..., :half: -1]
        Fo = np.empty_like(Fe)
        Fo[..., 0] = F[..., 0]
        Fo[..., 1] = F[..., half]
        Fo[..., 2:] = F[..., 1: half] - F[..., :half: -1]

        # -- contraction against the folded conjugate symbols, then the
        # diagonalized block shift (target phase + inverse transform over
        # the source longitude) --
        c2re = np.matmul(Fe.reshape(ncell, nsl, nphi * 6, npsi * (half + 1)),
                         Ec_even[sl]).reshape(ncell, nsl, nphi, 6 * nlat, nm)
        c2im = np.matmul(Fo.reshape(ncell, nsl, nphi * 6, npsi * (half + 1)),
                         Ec_odd[sl]).reshape(ncell, nsl, nphi, 6 * nlat, nm)
        Q = np.matmul(c2re, Einv_cos)
        Q += np.matmul(c2im, Einv_sin)
        Q = Q.reshape(ncell, nsl, nphi, 6, n)

        Msl = M[:, sl]
        for idx, (k, j) in enumerate(pairs):
            Msl[:, :, :, k, :, j] = Q[:, :, :, idx]
            if k != j:
                Msl[:, :, :, j, :, k] = Q[:, :, :, idx]
    return M.reshape(ncell, 3 * n, 3 * n), X_rot, w_rot


class SingularSelfInteraction:
    """Applies the singular single-layer operator ``S_i`` of one cell.

    ``apply(density)`` returns the velocity induced *on the cell's own
    surface* by a force density sampled on its grid — the implicit
    self-interaction term ``S_i f_i`` of paper Eq. (2.8). The operator is
    assembled as a dense matrix at every :meth:`refresh`, so ``apply`` is
    a single matrix-vector product.

    Full reassemblies run the block-circulant route of the module
    docstring (:func:`assemble_circulant`); intermediate refreshes apply
    the first-order correction of :meth:`_correct_matrix`.
    """

    #: smallest best-fit rotation angle (rad) the intermediate refresh
    #: corrects by kernel conjugation; see :meth:`_correct_matrix` for
    #: the rationale of the gate.
    KABSCH_MIN_ANGLE = 5e-3

    def __init__(self, surface: SpectralSurface, viscosity: float = 1.0,
                 upsample: float = 1.5, refresh_interval: int = 1,
                 assembly: str = "circulant"):
        self.surface = surface
        self.viscosity = viscosity
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1, got "
                             f"{refresh_interval}")
        # `assembly` survives only because bench/probes.py still passes
        # "circulant"; drop the argument there, then the parameter here.
        if assembly != "circulant":
            raise ValueError(f"unknown assembly mode {assembly!r}; "
                             "expected 'circulant'")
        self.refresh_interval = int(refresh_interval)
        p = surface.order
        q_rot = max(p, int(np.ceil(upsample * p)))
        self.tables = _rotation_tables(p, q_rot)
        self._since_full = 0
        self._pending_install = False
        self.refresh(full=True)

    def _assemble(self) -> None:
        """Full reassembly: the single-surface case of
        :func:`assemble_circulant`."""
        M, _, _ = assemble_circulant(self.tables, [self.surface],
                                     self.viscosity)
        self._finalize_full(M[0])

    def _finalize_full(self, matrix: np.ndarray) -> None:
        """Shared bookkeeping of a full assembly (own or installed):
        install the operator and snapshot the reference configuration of the
        intermediate-refresh correction — the best-fit rotation is
        extracted against these points, with the surface quadrature
        weights as the (area-faithful) fit weights."""
        surf = self.surface
        self._matrix = matrix
        self._ref_matrix = matrix
        self._ref_area = surf.area()
        self._ref_points = surf.points.copy()
        self._ref_weights = surf.quadrature_weights().ravel().copy()

    def install_full(self, matrix: np.ndarray) -> None:
        """Install an externally assembled full operator.

        Used by :meth:`repro.core.cellbatch.CellBatch.assemble_selfops`,
        which runs :func:`assemble_circulant` stacked over a same-order
        group of cells and scatters the slices here. The matrix must
        describe this surface's *current* geometry; the next
        :meth:`refresh` that lands on a full reassembly consumes the
        installed state instead of assembling its own.
        """
        self._finalize_full(matrix)
        self._pending_install = True

    def _best_fit_rotation(self) -> np.ndarray:
        """Kabsch best-fit rotation from the reference points to the
        current points (area-weighted, orientation-safe)."""
        w = self._ref_weights[:, None]
        wsum = w.sum()
        ref = self._ref_points
        cur = self.surface.points
        A = ref - (w * ref).sum(axis=0) / wsum
        B = cur - (w * cur).sum(axis=0) / wsum
        H = (w * A).T @ B
        U, _, Vt = np.linalg.svd(H)
        R = Vt.T @ U.T
        if np.linalg.det(R) < 0.0:          # exclude reflections
            Vt = Vt.copy()
            Vt[-1] *= -1.0
            R = Vt.T @ U.T
        return R

    def _correct_matrix(self) -> None:
        """First-order geometric correction of the last full assembly.

        The Stokeslet is translation-invariant, so a rigid translation
        leaves the assembled operator exactly unchanged; under a uniform
        dilation ``X -> c + s (X - c)`` the single layer scales exactly
        like ``s`` (weights ``s^2``, kernel ``1/s``); and under a rigid
        rotation ``X -> c + R (X - c)`` the operator conjugates exactly,
        ``S -> R S R^T`` blockwise (kernel covariance, rotation-invariant
        weights). The cheap intermediate refresh therefore applies the
        best-fit (Kabsch) rotation by conjugation and rescales by
        ``s = sqrt(area / area_ref)`` — exact for any similarity motion
        of the reference configuration; the remaining *shear* part of the
        shape change is the O(deformation) error bounded by the refresh
        interval (see ``NumericsOptions.selfop_refresh_interval``).

        The conjugation is gated on the rotation *angle*: a deforming
        but non-tumbling cell yields a small spurious best-fit rotation
        (measured ~1e-3 rad per cycle on the sedimentation benchmark,
        vs >=2.5e-2 rad for genuine tumbling in shear), and at that
        scale conjugating buys less than it costs in consistency with
        the per-cell factorized solvers frozen at the reference
        orientation — so below :data:`KABSCH_MIN_ANGLE` the exact
        closed-form translation/dilation correction of PR 3 is kept
        unchanged.
        """
        s = float(np.sqrt(self.surface.area() / self._ref_area))
        R = self._best_fit_rotation()
        angle = float(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0,
                                        -1.0, 1.0)))
        if angle > self.KABSCH_MIN_ANGLE:
            n = self.surface.grid.n_points
            M4 = self._ref_matrix.reshape(n, 3, n, 3)
            M4 = np.einsum("ab,ibjc,dc->iajd", R, M4, R, optimize=True)
            self._matrix = s * M4.reshape(3 * n, 3 * n)
        else:
            # Translation/dilation/deformation-noise regime: skip the
            # near-identity conjugation, keeping those motions' exact
            # closed-form correction (and the PR 3 trajectories).
            self._matrix = s * self._ref_matrix

    def refresh(self, full: bool | None = None) -> bool:
        """Re-evaluate cached state after the surface has moved.

        ``full=None`` applies the amortization policy: a full reassembly
        every ``refresh_interval``-th call, the first-order correction in
        between. ``full=True`` forces reassembly (and restarts the cycle)
        — callers making out-of-band position changes (recycling,
        steering) should force it, since the correction is only accurate
        for the small per-step motion. Returns whether a full reassembly
        happened, so dependents (e.g. the per-cell factorized solvers)
        can align their own refresh cycle with this operator's.
        """
        if full is None:
            full = self.due_full()
        if full:
            if self._pending_install:
                # a stacked group assembly already installed this
                # geometry's operator (see install_full)
                self._pending_install = False
            else:
                self._assemble()
            self._since_full = 1
        else:
            self._pending_install = False
            self._correct_matrix()
            self._since_full += 1
        return full

    def due_full(self) -> bool:
        """Whether the next policy-driven ``refresh()`` (``full=None``)
        will be a full reassembly — lets the stepper route due cells
        through the stacked group assembly beforehand."""
        return self._since_full % self.refresh_interval == 0

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``(3N, 3N)`` operator at the current geometry."""
        return self._matrix

    def apply(self, density: np.ndarray) -> np.ndarray:
        """Velocity on the surface from force density ``f`` (grid field).

        Shape in/out: ``(nlat, nphi, 3)``. One GEMV against the assembled
        operator matrix.
        """
        grid = self.surface.grid
        density = np.asarray(density, float)
        return (self._matrix @ density.ravel()).reshape(
            grid.nlat, grid.nphi, 3)

    def apply_reference(self, density: np.ndarray) -> np.ndarray:
        """Seed-path re-synthesis evaluation (reference for the assembled
        matrix; kept for verification and convergence tests).

        Rotates the quadrature geometry of the surface's *current*
        position on every call, so it is the exact operator at any
        geometry — including after a first-order-corrected refresh,
        where it differs from :meth:`apply` by the correction error.
        """
        surf = self.surface
        tb = self.tables
        grid = surf.grid
        _, X_rot, w_rot = assemble_circulant(tb, [surf], self.viscosity)
        X_rot, w_rot = X_rot[0], w_rot[0]
        density = np.asarray(density, float).reshape(grid.nlat, grid.nphi, 3)
        cf = np.stack([surf.transform.forward(density[:, :, k]) for k in range(3)])
        packed = np.stack([pack_coeffs(cf[k]) for k in range(3)], axis=1)
        out = np.empty_like(density)
        scale = 1.0 / (8.0 * np.pi * self.viscosity)
        targets = surf.X
        C = (packed[:, None, :] * tb.phases[:, :, None]).reshape(tb.ncoef, -1)
        for i in range(grid.nlat):
            f_rot = (tb.B_val[i] @ C).reshape(tb.nrot, grid.nphi, 3).real
            f_rot = f_rot.transpose(1, 0, 2)                    # (nphi, nrot, 3)
            fw = f_rot * w_rot[i][:, :, None]
            r = targets[i][:, None, :] - X_rot[i]               # (nphi, nrot, 3)
            r2 = np.einsum("tsk,tsk->ts", r, r)
            inv_r = 1.0 / np.sqrt(r2)
            rf = np.einsum("tsk,tsk->ts", r, fw)
            out[i] = scale * (
                np.einsum("ts,tsk->tk", inv_r, fw)
                + np.einsum("ts,tsk->tk", rf * inv_r ** 3, r)
            )
        return out
