"""Closest-point search on patch surfaces (paper Sec. 3.3, step d).

Given targets ``x``, minimize ``|x - P_i(u, v)|`` over ``(u, v) in
[-1,1]^2`` with Newton's method plus backtracking line search, seeded from
the nearest of the patch's ``n x n`` equispaced parameter samples, on the
few patches whose coarse quadrature nodes lie nearest, and keep the best.

:func:`surface_closest_point` is the one surface-level entry point. It
takes a single ``(3,)`` point or an ``(m, 3)`` batch and runs one masked
Newton over all (target, candidate patch) pairs at once, reading the
frozen tables of :meth:`PatchSurface.newton_tables`; a
:class:`ClosestPointResult` then holds scalars for a point and arrays with
a leading axis ``m`` for a batch. :func:`closest_point_on_patch` is the
scalar one-patch form of the same iteration, kept as the reference the
tests compare the batch against.

The rule of the iteration (also the one
``CellNearEvaluator.closest_points`` follows on a cell, minus the edges).
Comparing objective values resolves a minimizer only to the square root
of roundoff, so they globalize the search and nothing more:

1. *Line search.* The full Newton step (the gradient where the Hessian is
   singular or the step is no descent direction), then its halvings;
   the first that lowers the objective by more than ``_DECREASE`` wins.
2. *Polish.* Where the Hessian is positive definite and the Newton step is
   shorter than ``_POLISH_STEP``, the step is taken without the objective
   test and the search is over: quadratic convergence puts the next
   iterate within roundoff of the minimizer, where objective differences
   are noise.
3. *Stop.* A search no halving moved, or whose accepted step is shorter
   than ``_STEP_TOL``, is over.
4. *Edges.* A parameter on +-1 with the objective still falling outward is
   pinned and Newton runs in the other parameter alone; both pinned is a
   corner, and done; a gradient that turns inward releases the pin.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from ..quadrature.interpolation import interp_matrix_2d
from .patch import ChebPatch
from .surface import PatchSurface

#: doubles of transient table rows one block of targets may gather
#: (bounds memory the way ``near_singular._SYNTH_POINT_BUDGET`` does).
_GATHER_BUDGET = 1 << 22
#: Newton iterations, backtracking halvings, the step-length stop, the
#: least objective decrease a step must make and the polish threshold (no
#: lower: at 1e-8 objective noise decides again and the vessel bench
#: trajectory moves 3.6e-10, against 3e-14 between 1e-6 and 1e-7): one set
#: of rules for the scalar :func:`closest_point_on_patch` and the batched
#: search.
_ITERS = 30
_HALVINGS = 25
_STEP_TOL = 1e-12
_DECREASE = 1e-16
_POLISH_STEP = 1e-7


@dataclasses.dataclass
class ClosestPointResult:
    """Result of a closest-point query against one surface: scalar fields
    for a ``(3,)`` query point, arrays over the leading axis for a batch."""

    patch_index: "int | np.ndarray"
    uv: np.ndarray
    point: np.ndarray
    distance: "float | np.ndarray"
    normal: np.ndarray
    #: patch size L of the owning patch (sets the check-point scale).
    patch_size: "float | np.ndarray"


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nk,nk->n", a, b)


def _direction(uv: np.ndarray, r: np.ndarray, Xu: np.ndarray, Xv: np.ndarray,
               Xuu: np.ndarray, Xuv: np.ndarray, Xvv: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search direction and stop flags of one iteration, per pair, from the
    residual ``r = P(u, v) - x`` and the patch derivatives at ``uv``.

    Returns ``(step, polish, corner)``: the iterate moves along ``-step``;
    ``polish`` marks the pairs that take it whole, unjudged, and retire;
    ``corner`` the pairs with both parameters pinned, which are done.
    """
    g = np.stack([_dot(r, Xu), _dot(r, Xv)], axis=1)
    H11 = _dot(Xu, Xu) + _dot(r, Xuu)
    H12 = _dot(Xu, Xv) + _dot(r, Xuv)
    H22 = _dot(Xv, Xv) + _dot(r, Xvv)
    pin = (np.abs(uv) == 1.0) & (uv * g < 0.0)
    edge = pin.any(axis=1)
    det = H11 * H22 - H12 * H12
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(
            edge[:, None], g / np.stack([H11, H22], axis=1),
            np.stack([H22 * g[:, 0] - H12 * g[:, 1],
                      H11 * g[:, 1] - H12 * g[:, 0]], axis=1) / det[:, None])
    step[pin] = 0.0
    # Gradient-descent fallback: singular or indefinite (reduced) Hessian.
    descend = ~(np.isfinite(step).all(axis=1) & (_dot(step, g) > 0.0))
    step[descend] = np.where(pin, 0.0, g)[descend]
    convex = ~descend & (edge | ((H11 > 0.0) & (det > 0.0)))
    # A polish step the box would cut short goes to the line search
    # instead: that takes it to the edge, where the next iteration pins it.
    cut = np.abs(uv - step) - 1.0
    polish = (convex & (np.linalg.norm(step, axis=1) < _POLISH_STEP)
              & (cut < _STEP_TOL).all(axis=1))
    return step, polish, pin.all(axis=1)


def closest_point_on_patch(patch: ChebPatch, x: np.ndarray,
                           uv0: Optional[np.ndarray] = None,
                           iters: int = _ITERS, tol: float = _STEP_TOL
                           ) -> tuple[np.ndarray, np.ndarray, float]:
    """Newton + backtracking minimization of |x - P(u,v)| on one patch.

    The parameters are clamped to [-1, 1]^2 (the minimum may be on the
    patch edge; the neighboring patch then yields the true closest point,
    which the surface-level search accounts for by examining several
    candidate patches). Returns (uv, point, distance).
    """
    x = np.asarray(x, float)
    if uv0 is None:
        # Seed from a coarse parameter sampling.
        t = np.linspace(-1.0, 1.0, patch.n)
        U, V = np.meshgrid(t, t, indexing="ij")
        uv_s = np.column_stack([U.ravel(), V.ravel()])
        pts = patch.evaluate(uv_s)
        uv = uv_s[np.argmin(np.einsum("nk,nk->n", pts - x, pts - x))].copy()
    else:
        uv = np.asarray(uv0, float).copy()

    def fval(uv_):
        p = patch.evaluate(uv_[None, :])[0]
        return 0.5 * float(np.sum((p - x) ** 2))

    f0 = fval(uv)
    for _ in range(iters):
        X, *D = patch.derivatives(uv[None, :], second=True)
        step, polish, corner = _direction(uv[None, :], X - x, *D)
        step = step[0]
        if corner[0]:
            break
        if polish[0]:
            uv = np.clip(uv - step, -1.0, 1.0)
            break
        t = 1.0
        improved = False
        for _ in range(_HALVINGS):
            cand = np.clip(uv - t * step, -1.0, 1.0)
            fc = fval(cand)
            if fc < f0 - _DECREASE:
                uv, f0 = cand, fc
                improved = True
                break
            t *= 0.5
        if not improved or np.linalg.norm(t * step) < tol:
            break
    p = patch.evaluate(uv[None, :])[0]
    return uv, p, float(np.linalg.norm(p - x))


def _newton_pairs(tables: np.ndarray, pid: np.ndarray, x: np.ndarray,
                  uv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`closest_point_on_patch` for many (target, patch) pairs at once.

    Pair ``i`` minimizes ``|x[i] - P_pid[i](u, v)|`` from the seed
    ``uv[i]`` (updated in place). Pairs leave the active set by the
    oracle's stop rule; the line search tries the full step for every
    active pair and then, for those that rejected it, every halving in one
    evaluation, accepting the first that decreases the objective. Returns
    ``(uv, point, normal)``.
    """
    n = math.isqrt(tables.shape[1])
    T = tables[pid]                                   # (M, n*n, 18)
    ladder = 0.5 ** np.arange(_HALVINGS)
    r = np.einsum("ak,akc->ac", interp_matrix_2d(n, uv), T[:, :, :3]) - x
    f0 = 0.5 * _dot(r, r)
    active = np.arange(pid.size)
    for _ in range(_ITERS):
        if active.size == 0:
            break
        V = np.einsum("ak,akc->ac", interp_matrix_2d(n, uv[active]), T[active])
        X, *D = (V[:, c:c + 3] for c in range(0, 18, 3))
        step, polish, corner = _direction(uv[active], X - x[active], *D)
        uv[active[polish]] = np.clip(uv[active[polish]] - step[polish],
                                     -1.0, 1.0)
        search = ~(polish | corner)
        active, step = active[search], step[search]

        t = np.zeros(active.size)         # accepted step length, 0 = none
        rem = np.arange(active.size)      # pairs still looking for one
        for ts in (ladder[:1], ladder[1:]):
            if rem.size == 0:
                break
            rows = active[rem]
            cand = np.clip(uv[rows, None, :]
                           - ts[None, :, None] * step[rem, None, :], -1.0, 1.0)
            M = interp_matrix_2d(n, cand.reshape(-1, 2)).reshape(
                rem.size, ts.size, -1)
            rc = np.einsum("blk,bkc->blc", M, T[rows, :, :3]) - x[rows, None, :]
            fc = 0.5 * np.einsum("blc,blc->bl", rc, rc)
            ok = fc < f0[rows, None] - _DECREASE
            first = ok.argmax(axis=1)
            hit = np.nonzero(ok[np.arange(rem.size), first])[0]
            uv[rows[hit]] = cand[hit, first[hit]]
            f0[rows[hit]] = fc[hit, first[hit]]
            t[rem[hit]] = ts[first[hit]]
            rem = np.delete(rem, hit)
        moving = (t > 0.0) & (np.linalg.norm(t[:, None] * step, axis=1)
                              >= _STEP_TOL)
        active = active[moving]
    V = np.einsum("ak,akc->ac", interp_matrix_2d(n, uv), T[:, :, :9])
    nrm = np.cross(V[:, 3:6], V[:, 6:9])
    return uv, V[:, :3], nrm / np.linalg.norm(nrm, axis=1, keepdims=True)


def surface_closest_point(surface: PatchSurface, x: np.ndarray,
                          candidates: Sequence[int] | np.ndarray | None = None,
                          n_candidates: int = 4) -> ClosestPointResult:
    """Closest point on a whole patch surface, for one point or a batch.

    ``x`` is a ``(3,)`` point (scalar result fields) or an ``(m, 3)``
    batch (array fields). Each target refines the ``n_candidates``
    patches whose coarse nodes are nearest — or the patch indices in
    ``candidates``: a flat list, the same for every target, or ``(m, k)``
    rows of :meth:`PatchSurface.nearest_patches` the caller already has —
    and the first candidate attaining the smallest distance wins.
    """
    x = np.asarray(x, float)
    targets = x.reshape(-1, 3)
    m = targets.shape[0]
    if candidates is None:
        cand = surface.nearest_patches(targets, n_candidates)[0]
    else:
        cand = np.asarray(candidates, dtype=int)
        if cand.ndim == 1:
            cand = np.broadcast_to(cand, (m, cand.size))
    k = cand.shape[1]
    if k == 0:
        raise RuntimeError(
            "closest-point query had no candidate patches to refine "
            f"(surface has {len(surface.patches)} patches, candidates="
            f"{candidates!r})")
    tables, seed_uv, seed_pts = surface.newton_tables()
    patch_index = np.empty(m, dtype=int)
    uv = np.empty((m, 2))
    point = np.empty((m, 3))
    normal = np.empty((m, 3))
    chunk = max(1, _GATHER_BUDGET
                // (k * tables.shape[1] * max(tables.shape[2], _HALVINGS)))
    for a in range(0, m, chunk):
        xt = targets[a:a + chunk]
        pid = cand[a:a + chunk]
        # Seed every pair from the nearest equispaced sample of its patch.
        diff = seed_pts[pid] - xt[:, None, None, :]
        seed = np.einsum("tpnk,tpnk->tpn", diff, diff).argmin(axis=2)
        xp = np.repeat(xt, k, axis=0)
        uvp, pt, nrm = _newton_pairs(tables, pid.ravel(), xp,
                                     seed_uv[seed.ravel()])
        dist = np.linalg.norm(pt - xp, axis=1).reshape(-1, k)
        win = np.arange(xt.shape[0]) * k + dist.argmin(axis=1)
        patch_index[a:a + chunk] = pid.ravel()[win]
        uv[a:a + chunk] = uvp[win]
        point[a:a + chunk] = pt[win]
        normal[a:a + chunk] = nrm[win]
    distance = np.linalg.norm(point - targets, axis=1)
    size = surface.patch_sizes()[patch_index]
    if x.ndim == 1:
        return ClosestPointResult(int(patch_index[0]), uv[0], point[0],
                                  float(distance[0]), normal[0],
                                  float(size[0]))
    return ClosestPointResult(patch_index, uv, point, distance, normal, size)
