"""Near-singular evaluation of a cell's single-layer potential.

For targets close to (but not on) an RBC surface, the smooth quadrature of
the single layer loses accuracy. Following the paper (Sec. 2.2, citing
[28, 43] and the check-point idea of [58]): compute the velocity *on* the
surface at the closest point with the singular rotation quadrature, compute
it at check points placed along the outward normal with upsampled smooth
quadrature, and interpolate between them to the target distance.

The whole near pipeline is batched: near targets are found with one
vectorized (chunked) min-distance sweep behind a bounding-sphere
prefilter, the closest-point Newton iteration runs on all near targets at
once, all check points go through a single :func:`stokes_slp_apply`, and
the density's forward SHT is hoisted out of the per-target path entirely.

The on-surface rotation quadrature works on rotated *coefficients*, not
rotated nodes: a cell's position and density, rotated so a target sits
at the pole, are still band-limited at the cell's order, so one
value-only synthesis at the native grid rotated to every target of a
chunk determines them; fixed real tables (forward SHT composed with
synthesis on the rotated rule, :func:`_rotated_rule`) then give value
and both rule derivatives with GEMMs.

The closest-point Newton follows the rule stated in
:mod:`repro.patches.closest_point` — the full step, then every halving in
one synthesis; a convex step shorter than ``_POLISH_STEP`` taken unjudged;
a target no rung moved retires — with the acceptance test ``fn <= f0`` and
without the edge rule (a closed surface has no edges).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.guard import (HEAVY_TABLE_CACHE_SIZE, PER_ORDER_CACHE_SIZE,
                              freeze, locked_cache)
from ..kernels import stokes_slp_apply
from ..quadrature.interpolation import barycentric_matrix, barycentric_weights
from ..sph.alp import (normalized_alp, normalized_alp_theta_derivative,
                       normalized_alp_theta_derivative2)
from ..sph.grid import get_grid
from ..sph.rotation import rotated_sphere_points_batch
from ..sph.transform import get_transform
from ..quadrature import gauss_legendre
from ..surfaces import SpectralSurface
from .self_interaction import pack_coeffs, _coeff_index

_POLE_GUARD = 1e-7
#: closest-point Newton: halvings of the line search and the step length
#: below which a convex Newton step is taken unjudged.
_HALVINGS = 20
_POLISH_STEP = 1e-7
#: chunk sizes bounding transient ALP-table memory in the batched paths.
_DIST_CHUNK = 512
_SYNTH_POINT_BUDGET = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nk,nk->n", a, b)


def _stepped(th: np.ndarray, ph: np.ndarray, step: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """``(theta, phi) - step``, kept off the poles and in ``[0, 2 pi)``."""
    return (np.clip(th - step[..., 0], _POLE_GUARD, np.pi - _POLE_GUARD),
            (ph - step[..., 1]) % (2.0 * np.pi))


@locked_cache(maxsize=PER_ORDER_CACHE_SIZE)
def _synth_tables(p: int) -> tuple[np.ndarray, ...]:
    """Frozen per-order tables of :func:`_synthesize`, one entry per packed
    (l, m): ``l``, ``|m|``, the sign ``Y_l^{-m}`` carries, the column of
    ``m`` among the ``2p + 1`` distinct orders, ``i m`` and ``-m^2``."""
    ls, ms = _coeff_index(p)
    return freeze(ls, np.abs(ms), np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0),
                  p + ms, 1j * ms, -(ms ** 2))


@locked_cache(maxsize=HEAVY_TABLE_CACHE_SIZE)
def _rotated_rule(p: int, q: int) -> tuple[np.ndarray, ...]:
    """Frozen tables of the on-surface rotation quadrature of an order-``p``
    cell at rule order ``q``: ``(psi, alpha, w, grid_theta, grid_phi,
    interp, pole)``.

    The rule is Gauss-Legendre in psi on (0, pi) (``q + 1`` nodes, the
    sphere's ``sin(psi)`` folded into ``w``) times the trapezoid in alpha
    (``2q + 2`` nodes), flattened psi-major. Rotated so a target sits at
    the pole, an order-``p`` series is still band-limited at ``p``, so its
    samples on the native grid (``grid_theta``, ``grid_phi``, N points)
    determine it. ``interp`` (3, nrot, N) maps those samples to the value,
    d/dpsi and d/dalpha at the rule nodes and ``pole`` (N,) to the value
    at the pole: the forward SHT (``analysis_matrix`` rows in packed
    (l, m) order) followed by the synthesis at (psi, alpha), folded into
    one real matrix since the samples are real.

    The sample grid is the native one turned by half a longitude step,
    and the rule is turned back by the same step. A rotated sample then
    never falls on a pole (a pole's preimage sits at longitude 0 or pi,
    which the turned grid misses by half a step), whatever the target, so
    every sample keeps full precision and stays clear of the pole clip of
    :func:`_synthesize`.
    """
    npsi, nalpha = q + 1, 2 * q + 2
    psi, wpsi = gauss_legendre(npsi, 0.0, np.pi)
    alpha = 2.0 * np.pi * np.arange(nalpha) / nalpha
    w = np.outer(wpsi * np.sin(psi), np.full(nalpha, 2.0 * np.pi / nalpha))
    grid = get_grid(p)
    turn = np.pi / grid.nphi
    grid_theta, grid_phi = grid.mesh()
    ls, am, sign, col, im, _ = _synth_tables(p)
    A = get_transform(p).analysis_matrix()[ls * (2 * p + 1) + col]
    P, dP = normalized_alp_theta_derivative(p, np.cos(psi))
    phase = np.exp(1j * np.outer(alpha - turn, np.arange(-p, p + 1)))[:, col]
    Bv, Bpsi = [((T[ls, am].T * sign)[:, None, :] * phase).reshape(-1, ls.size)
                for T in (P, dP)]
    interp = np.stack([(B @ A).real for B in (Bv, Bpsi, Bv * im)])
    pole = ((normalized_alp(p, np.ones(1))[ls, am, 0] * sign) @ A).real
    PSI, ALPHA = np.meshgrid(psi, alpha, indexing="ij")
    return freeze(PSI.ravel(), ALPHA.ravel(), w.ravel(), grid_theta.ravel(),
                  (grid_phi + turn).ravel(), interp, pole)


def _synthesize(surface: SpectralSurface, coeff_stack: np.ndarray,
                theta: np.ndarray, phi: np.ndarray, derivs: int = 0):
    """Evaluate several packed series at arbitrary sphere points.

    ``coeff_stack`` has shape (ncoef, k). Returns the values (n, k) for
    ``derivs=0``; ``(val, d_theta, d_phi)`` for ``derivs=1``; those and
    the three second parametric derivatives for ``derivs=2``.
    """
    p = surface.order
    ls, am, sign, col, im, m2 = _synth_tables(p)
    theta = np.clip(np.asarray(theta, float).ravel(), _POLE_GUARD, np.pi - _POLE_GUARD)
    phi = np.asarray(phi, float).ravel()
    x = np.cos(theta)
    if derivs == 2:
        P, dP, d2P = normalized_alp_theta_derivative2(p, x)
    elif derivs == 1:
        P, dP = normalized_alp_theta_derivative(p, x)
    else:
        P = normalized_alp(p, x)
    # One exp(i m phi) per distinct order, gathered to the (l, m) pairs.
    phase = np.exp(1j * np.arange(-p, p + 1)[None, :] * phi[:, None])[:, col]
    Bv = P[ls, am, :].T * sign[None, :] * phase
    val = (Bv @ coeff_stack).real
    if derivs == 0:
        return val
    Bt = dP[ls, am, :].T * sign[None, :] * phase
    first = (val, (Bt @ coeff_stack).real,
             ((Bv * im[None, :]) @ coeff_stack).real)
    if derivs == 1:
        return first
    Btt = d2P[ls, am, :].T * sign[None, :] * phase
    return first + ((Btt @ coeff_stack).real,
                    ((Bt * im[None, :]) @ coeff_stack).real,
                    ((Bv * m2[None, :]) @ coeff_stack).real)


class CellNearEvaluator:
    """Evaluates one cell's single-layer velocity anywhere in the fluid.

    Parameters
    ----------
    surface:
        The source cell.
    viscosity:
        Fluid viscosity.
    upsample_order:
        Order of the fine grid used for smooth quadrature (default 2p).
    check_order:
        Number of interpolation nodes (closest point + check points).
    """

    def __init__(self, surface: SpectralSurface, viscosity: float = 1.0,
                 upsample_order: Optional[int] = None, check_order: int = 6):
        self.surface = surface
        self.viscosity = viscosity
        p = surface.order
        self.up_order = upsample_order or 2 * p
        self.check_order = check_order
        # Rotation quadrature rule of the on-surface singular values
        # (order-dependent only; hoisted out of the per-target path).
        self._rot_psi, self._rot_alpha, self._rot_w = _rotated_rule(
            p, self.up_order)[:3]
        self.refresh()

    def refresh(self) -> None:
        """Re-evaluate position-dependent caches after the surface moved."""
        surface = self.surface
        self._fine = surface.upsampled(self.up_order)
        self._fine_w = self._fine.quadrature_weights()
        # Characteristic resolution of the *fine* grid: the smooth
        # quadrature is accurate a few fine-grid spacings off the surface.
        self.h = float(np.sqrt(surface.area() / self._fine.n_points))
        #: targets closer than this need the near scheme.
        self.near_distance = 3.0 * self.h
        self._cX_packed = pack_coeffs(surface.coeffs()).T
        # Bounding sphere of the fine cloud: the broadphase filter in
        # front of the exact min-distance near test.
        pts = self._fine.points
        self._center = pts.mean(axis=0)
        self._radius = float(np.linalg.norm(pts - self._center, axis=1).max())
        # Interpolation geometry of the check-point scheme. The nodes for
        # an interior target are the mirror image of these; barycentric
        # interpolation is invariant under that reflection, so one weight
        # set serves both sides.
        self._check_ts = np.concatenate(
            [[0.0], self.near_distance + self.h * np.arange(self.check_order)])
        self._check_w = barycentric_weights(self._check_ts)

    # -- closest point ------------------------------------------------------
    def _nearest_fine_nodes(self, x: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Closest fine-grid node to each target: ``(index, squared
        distance)``, computed in chunks."""
        fine_pts = self._fine.points
        i0 = np.empty(x.shape[0], dtype=int)
        dmin2 = np.empty(x.shape[0])
        for a in range(0, x.shape[0], _DIST_CHUNK):
            diff = x[a:a + _DIST_CHUNK, None, :] - fine_pts[None, :, :]
            d2 = np.einsum("tnk,tnk->tn", diff, diff)
            best = np.argmin(d2, axis=1)
            i0[a:a + _DIST_CHUNK] = best
            dmin2[a:a + _DIST_CHUNK] = d2[np.arange(best.size), best]
        return i0, dmin2

    def closest_points(self, x: np.ndarray, newton_iters: int = 12,
                       seeds: Optional[np.ndarray] = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Closest surface points to a batch of targets ``x`` (n, 3).

        Returns ``(theta, phi, y, distance)`` arrays; Newton on the
        squared distance in parameter space for all targets at once,
        seeded from the best fine-grid node (``seeds``, an index array
        into the fine point cloud, skips that scan when the caller — the
        near filter — already found the nearest nodes).
        """
        x = np.atleast_2d(np.asarray(x, float))
        n = x.shape[0]
        g = self._fine.grid
        i0 = self._nearest_fine_nodes(x)[0] if seeds is None else seeds
        th = g.theta[i0 // g.nphi].copy()
        ph = g.phi[i0 % g.nphi].copy()
        ladder = 0.5 ** np.arange(_HALVINGS)
        active = np.arange(n)
        for _ in range(newton_iters):
            if active.size == 0:
                break
            X, Xt, Xp, Xtt, Xtp, Xpp = _synthesize(
                self.surface, self._cX_packed, th[active], ph[active],
                derivs=2)
            rvec = X - x[active]
            g1, g2 = _dot(rvec, Xt), _dot(rvec, Xp)
            H11 = _dot(Xt, Xt) + _dot(rvec, Xtt)
            H12 = _dot(Xt, Xp) + _dot(rvec, Xtp)
            H22 = _dot(Xp, Xp) + _dot(rvec, Xpp)
            det = H11 * H22 - H12 * H12
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.stack([H22 * g1 - H12 * g2,
                                 H11 * g2 - H12 * g1], axis=1) / det[:, None]
            # Polish: a short Newton step on a convex objective lands
            # within roundoff of the minimizer; take it unjudged.
            polish = ((H11 > 0.0) & (det > 0.0)
                      & (np.linalg.norm(step, axis=1) < _POLISH_STEP))
            th[active[polish]], ph[active[polish]] = _stepped(
                th[active[polish]], ph[active[polish]], step[polish])
            # The rest search the ladder; a singular Hessian retires.
            search = np.nonzero(~polish & (np.abs(det) > 0.0))[0]
            rows, step = active[search], step[search]
            f0 = 0.5 * _dot(rvec[search], rvec[search])
            t = np.zeros(rows.size)           # accepted step length, 0 = none
            rem = np.arange(rows.size)        # targets still looking for one
            for ts in (ladder[:1], ladder[1:]):
                if rem.size == 0:
                    break
                th_c, ph_c = _stepped(
                    th[rows[rem], None], ph[rows[rem], None],
                    ts[None, :, None] * step[rem, None, :])
                rc = _synthesize(self.surface, self._cX_packed, th_c, ph_c
                                 ).reshape(rem.size, ts.size, 3) \
                    - x[rows[rem], None, :]
                ok = 0.5 * np.einsum("blk,blk->bl", rc, rc) <= f0[rem, None]
                first = ok.argmax(axis=1)
                hit = np.nonzero(ok[np.arange(rem.size), first])[0]
                th[rows[rem[hit]]] = th_c[hit, first[hit]]
                ph[rows[rem[hit]]] = ph_c[hit, first[hit]]
                t[rem[hit]] = ts[first[hit]]
                rem = np.delete(rem, hit)
            # A target no rung moved would repeat this iteration verbatim.
            moving = (t > 0.0) & (np.linalg.norm(t[:, None] * step, axis=1)
                                  >= 1e-12)
            active = rows[moving]
        y = _synthesize(self.surface, self._cX_packed, th, ph)
        return th, ph, y, np.linalg.norm(y - x, axis=1)

    def closest_point(self, x: np.ndarray, newton_iters: int = 12
                      ) -> tuple[float, float, np.ndarray, float]:
        """Single-target convenience wrapper around :meth:`closest_points`."""
        th, ph, y, d = self.closest_points(np.asarray(x, float)[None, :],
                                           newton_iters)
        return float(th[0]), float(ph[0]), y[0], float(d[0])

    def _surface_normals_at(self, th: np.ndarray,
                            ph: np.ndarray) -> np.ndarray:
        _, Xt, Xp = _synthesize(self.surface, self._cX_packed, th, ph,
                                derivs=1)
        nrm = np.cross(Xt, Xp)
        return nrm / np.linalg.norm(nrm, axis=1, keepdims=True)

    def _surface_normal_at(self, th: float, ph: float) -> np.ndarray:
        return self._surface_normals_at(np.array([th]), np.array([ph]))[0]

    # -- singular on-surface value at arbitrary surface points ---------------
    def _packed_density_coeffs(self, density: np.ndarray) -> np.ndarray:
        density = np.asarray(density, float).reshape(
            self.surface.grid.nlat, self.surface.grid.nphi, 3)
        T = self.surface.transform
        return pack_coeffs(T.forward(np.moveaxis(density, -1, 0))).T

    def _on_surface_velocities(self, th: np.ndarray, ph: np.ndarray,
                               cf: np.ndarray,
                               x0: Optional[np.ndarray] = None) -> np.ndarray:
        """Rotation-quadrature single-layer values at surface points.

        ``cf`` is the packed density coefficient stack (ncoef, 3); ``x0``
        the surface positions at (th, ph) when already known (from the
        closest-point solve), else read off the rotated samples at the
        pole. Per chunk of targets, one value-only synthesis samples
        position and density on the native grid rotated to every
        target's pole; the :func:`_rotated_rule` tables turn those samples
        into value, d/dpsi and d/dalpha at the fixed rule nodes. The area
        weight is ``|X_psi x X_alpha| / sin(psi)`` at interior Gauss
        nodes, so no pole clip or ``sin(theta)`` division enters.
        """
        surf = self.surface
        n = th.size
        psi, _, w, g_th, g_ph, interp, pole = _rotated_rule(surf.order,
                                                            self.up_order)
        nrot, N = interp.shape[1:]
        area = (w / np.sin(psi))[:, None]
        stack = np.concatenate([self._cX_packed, cf], axis=1)
        out = np.empty((n, 3))
        scale = 1.0 / (8.0 * np.pi * self.viscosity)
        chunk = max(1, _SYNTH_POINT_BUDGET // N)
        for a in range(0, n, chunk):
            sl = slice(a, min(a + chunk, n))
            k = sl.stop - sl.start
            th_r, ph_r = rotated_sphere_points_batch(th[sl], ph[sl],
                                                     g_th, g_ph)
            # Native-grid samples of X o R_t and f o R_t, one column per
            # (target, component).
            smp = _synthesize(surf, stack, th_r.ravel(), ph_r.ravel())
            smp = smp.reshape(k, N, 6).transpose(1, 0, 2)
            V = (interp[0] @ smp.reshape(N, 6 * k)).reshape(nrot, k, 6)
            smpX = smp[:, :, :3].reshape(N, 3 * k)
            Xpsi, Xalpha = (interp[1:].reshape(2 * nrot, N) @ smpX
                            ).reshape(2, nrot, k, 3)
            wq = area * np.linalg.norm(np.cross(Xpsi, Xalpha), axis=-1)
            xt = x0[sl] if x0 is not None else (pole @ smpX).reshape(k, 3)
            r = xt[None, :, :] - V[:, :, :3]
            r2 = np.einsum("ntk,ntk->nt", r, r)
            inv_r = 1.0 / np.sqrt(r2)
            fw = V[:, :, 3:] * wq[:, :, None]
            rf = np.einsum("ntk,ntk->nt", r, fw)
            out[sl] = scale * (
                np.einsum("nt,ntk->tk", inv_r, fw)
                + np.einsum("nt,ntk->tk", rf * inv_r ** 3, r))
        return out

    def on_surface_velocity(self, th: float, ph: float,
                            density: np.ndarray) -> np.ndarray:
        """Rotation-quadrature single-layer value at surface point (th, ph)."""
        cf = self._packed_density_coeffs(density)
        return self._on_surface_velocities(np.array([float(th)]),
                                           np.array([float(ph)]), cf)[0]

    # -- public evaluation ----------------------------------------------------
    def weighted_fine_density(self, density: np.ndarray) -> np.ndarray:
        """Quadrature-weighted density on the fine grid: the source strengths
        of the smooth far quadrature. Shape ``(fine_nlat, fine_nphi, 3)``.

        Computing this once per step and passing it to :meth:`evaluate` for
        every target batch avoids re-upsampling the same density per batch.
        """
        density = np.asarray(density, float).reshape(self.surface.grid.nlat,
                                                     self.surface.grid.nphi, 3)
        T = self.surface.transform
        cf = T.forward(np.moveaxis(density, -1, 0))
        dens_fine = np.moveaxis(T.resample(cf, self.up_order), 0, -1)
        return dens_fine * self._fine_w[..., None]

    def near_target_indices(self, targets: np.ndarray) -> np.ndarray:
        """Indices of targets inside the near zone of the fine cloud."""
        return self._near_scan(np.atleast_2d(np.asarray(targets, float)))[0]

    def _near_scan(self, targets: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Near-zone filter: ``(near indices, their nearest fine nodes)``.

        A bounding-sphere broadphase rejects the bulk; survivors get the
        exact chunked min-distance test, whose argmin doubles as the
        closest-point Newton seed.
        """
        d_ctr = np.linalg.norm(targets - self._center[None, :], axis=1)
        cand = np.nonzero(d_ctr < self._radius + self.near_distance)[0]
        if cand.size == 0:
            return cand, cand
        seeds, dmin2 = self._nearest_fine_nodes(targets[cand])
        near = dmin2 < self.near_distance ** 2
        return cand[near], seeds[near]

    def evaluate(self, density: np.ndarray, targets: np.ndarray,
                 fine_weighted: Optional[np.ndarray] = None) -> np.ndarray:
        """Velocity at arbitrary targets due to this cell's single layer."""
        targets = np.atleast_2d(np.asarray(targets, float))
        density = np.asarray(density, float).reshape(self.surface.grid.nlat,
                                                     self.surface.grid.nphi, 3)
        fw = (fine_weighted if fine_weighted is not None
              else self.weighted_fine_density(density))
        out = stokes_slp_apply(self._fine.points, fw.reshape(-1, 3), targets,
                               self.viscosity)
        near, seeds = self._near_scan(targets)
        if near.size:
            out[near] = self._near_values(density, fw, targets[near], seeds)
        return out

    def near_correction(self, density: np.ndarray, targets: np.ndarray,
                        fine_weighted: Optional[np.ndarray] = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Near-scheme delta against the smooth quadrature.

        Returns ``(indices, delta)`` where ``indices`` selects the
        targets inside this cell's near zone and ``delta`` is the
        near-scheme velocity minus the exact smooth sum at those
        targets. A caller that already holds a smooth all-sources
        velocity (the global FMM's near-field P2P route) turns it into
        the near-singular-accurate value by adding ``delta`` — the large
        singular contributions cancel to roundoff because both sides
        evaluate them with the same exact kernel, which is what makes a
        global source tree viable despite the on-surface smooth sums it
        contains.
        """
        targets = np.atleast_2d(np.asarray(targets, float))
        density = np.asarray(density, float).reshape(self.surface.grid.nlat,
                                                     self.surface.grid.nphi, 3)
        fw = (fine_weighted if fine_weighted is not None
              else self.weighted_fine_density(density))
        near, seeds = self._near_scan(targets)
        if near.size == 0:
            return near, np.zeros((0, 3))
        x = targets[near]
        smooth = stokes_slp_apply(self._fine.points, fw.reshape(-1, 3), x,
                                  self.viscosity)
        return near, self._near_values(density, fw, x, seeds) - smooth

    def _near_values(self, density: np.ndarray, fine_weighted: np.ndarray,
                     x: np.ndarray,
                     seeds: Optional[np.ndarray] = None) -> np.ndarray:
        """Near-scheme velocities for a batch of near targets ``x`` (n, 3)."""
        n = x.shape[0]
        th, ph, y, d = self.closest_points(x, seeds=seeds)
        nrm = self._surface_normals_at(th, ph)
        # Signed distance: positive along outward normal. Cell-cell targets
        # are always exterior; near interior targets (which only occur in
        # diagnostics) mirror to the interior side.
        sgn = np.sign(np.einsum("nk,nk->n", x - y, nrm))
        sgn[sgn == 0.0] = 1.0
        # Interpolation nodes: 0 (on-surface, singular quadrature) plus
        # check points from the first trusted distance outward.
        p_chk = self.check_order
        cf = self._packed_density_coeffs(density)
        vals = np.empty((n, p_chk + 1, 3))
        vals[:, 0, :] = self._on_surface_velocities(th, ph, cf, x0=y)
        checks = (y[:, None, :]
                  + (sgn[:, None] * self._check_ts[None, 1:])[:, :, None]
                  * nrm[:, None, :])
        vals[:, 1:, :] = stokes_slp_apply(
            self._fine.points, fine_weighted.reshape(-1, 3),
            checks.reshape(-1, 3), self.viscosity).reshape(n, p_chk, 3)
        # Interpolate each target to its (unsigned) distance: barycentric
        # interpolation is reflection-invariant, so the one-sided node set
        # serves interior targets too.
        M = barycentric_matrix(self._check_ts, d, self._check_w)
        return np.einsum("nc,nck->nk", M, vals)
