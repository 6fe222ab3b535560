"""Vectorized Stokes kernels (stokeslet / stresslet / pressure).

The free-space solution u_fr of paper Eq. (2.4) and the double-layer term
u_Gamma are sums of these kernels over quadrature points. The ``*_apply``
functions evaluate those sums directly (the O(N^2) path used for modest
sizes and as the FMM reference); the ``*_matrix`` functions assemble dense
operators for the small per-patch / per-check-point blocks.
"""
from __future__ import annotations

import numpy as np

_CHUNK = 1024
#: Cache-blocked tile of :func:`stokes_slp_apply`: the handful of
#: (targets, sources) transients the pairwise sums stream through fit in
#: L2 at 512 x 256 doubles (1 MB/array). Measured on the benchmark host,
#: tiling wins from ~256 sources up (578 sources, 810 targets: 14.7 ->
#: 7.9 ms; 2312 sources, 4096 targets: 269 -> 161 ms) and is a no-op
#: below one source tile, so the single-pass path keeps its larger
#: target chunk there.
_SRC_CHUNK = 256
_TRG_CHUNK_BLOCKED = 512
#: Squared distance below which a pair counts as coincident and is
#: excluded like exact zero distance (1e-10 in length units — far below
#: any physical separation, far above coordinate roundoff). Without it,
#: grid points that are *mathematically* identical but computed through
#: different floating-point routes (a Gauss grid and its upsampling
#: share rings) produce ~1/eps garbage instead of the intended
#: self-exclusion.
_COINCIDENT_R2 = 1e-20


def _pairwise_r(trg_chunk: np.ndarray, src: np.ndarray):
    """r = x - y for all pairs; returns (r, r2) with a zero-distance guard."""
    r = trg_chunk[:, None, :] - src[None, :, :]
    r2 = np.einsum("tsk,tsk->ts", r, r)
    return r, r2


def stokes_slp_apply(src: np.ndarray, weighted_density: np.ndarray,
                     trg: np.ndarray, viscosity: float = 1.0,
                     exclude_self: bool = False,
                     dtype=None) -> np.ndarray:
    """Sum of stokeslets: u(x) = sum_j S(x, y_j) (w_j f_j).

    ``weighted_density`` is (ns, 3) with quadrature weights folded in.
    Pairs at zero distance contribute nothing (used with ``exclude_self``
    semantics when sources and targets coincide).

    The pairwise sums are factored into rank-3 GEMMs instead of
    materializing the (nt, ns, 3) displacement tensor: with r = x - y,

        sum_s r (r.f) / r^3 = x (c.1) - c @ Y,   c_ts = (r.f) / r^3,

    so only (nt, ns) intermediates are formed. Coordinates are centered
    on the source cloud first, which keeps the expansion of ``r^2 = |x|^2
    + |y|^2 - 2 x.y`` well-conditioned at near-field distances; the rare
    pairs below the working precision's cancellation threshold — where
    the expansion does lose accuracy — are re-evaluated with the exact
    float64 difference formula, which also restores the exact
    zero-distance exclusion.

    ``dtype="float32"`` runs the bulk GEMMs in single precision, with
    per-chunk results accumulated in float64 and the close-pair patch
    still exact (relative error ~1e-6). No solver path uses it: it
    survives only for the ``kernels.slp_probe_ms.f32`` row of
    ``bench/probes.py``. ``dtype=None`` (or ``"float64"``) is the
    bit-exact double-precision path every caller in the library takes.
    """
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    f = np.asarray(weighted_density, float).reshape(-1, 3)
    work = (np.float32 if dtype in ("float32", np.float32)
            else np.float64)
    # Relative cancellation threshold of the expanded r^2 in the working
    # precision (pairs below get the exact difference formula), plus an
    # absolute term keeping inv_r^3 finite for a degenerate zero-scale
    # cloud (single source at its own centroid) — in float32 that needs
    # tiny >= ~2e-26 so (1/sqrt(tiny))^3 stays below the float32 max.
    rel_floor, tiny = (1e-8, 1e-100) if work is np.float64 else (1e-3, 1e-24)
    out = np.empty((trg.shape[0], 3))
    scale = 1.0 / (8.0 * np.pi * viscosity)
    center = src.mean(axis=0) if src.size else np.zeros(3)
    srcc = src - center
    srcc_w = srcc.astype(work, copy=False)
    f_w = f.astype(work, copy=False)
    src2 = np.einsum("sk,sk->s", srcc_w, srcc_w)
    sf = np.einsum("sk,sk->s", srcc_w, f_w)
    ns = src.shape[0]
    # Above one source tile, cache-block both dimensions so the streamed
    # (targets, sources) transients stay L2-resident (see _SRC_CHUNK).
    tchunk = _TRG_CHUNK_BLOCKED if ns > _SRC_CHUNK else _CHUNK
    for a in range(0, trg.shape[0], tchunk):
        t64 = trg[a:a + tchunk] - center
        t = t64.astype(work, copy=False)
        t2 = np.einsum("tk,tk->t", t, t)
        acc = np.zeros((t.shape[0], 3))       # float64 accumulator
        for b in range(0, ns, _SRC_CHUNK):
            sb = slice(b, min(b + _SRC_CHUNK, ns))
            scale2 = t2[:, None] + src2[None, sb]
            r2 = t @ srcc_w[sb].T
            r2 *= 2.0
            np.subtract(scale2, r2, out=r2)
            # Pairs this close lose accuracy to cancellation in the
            # expanded r^2 (and coincident points no longer give an exact
            # zero); clamp them for the bulk GEMMs and patch them exactly
            # below. Most tiles have none, and the test is far cheaper
            # than the scan.
            floor = np.multiply(scale2, rel_floor, out=scale2)
            floor += tiny
            close = r2 < floor
            inv_r = np.maximum(r2, floor, out=r2)
            np.sqrt(inv_r, out=inv_r)
            np.divide(1.0, inv_r, out=inv_r)
            rf = t @ f_w[sb].T
            rf -= sf[None, sb]
            rf *= inv_r ** 3                                 # (r.f) / r^3
            acc += inv_r @ f_w[sb] + t * rf.sum(axis=1)[:, None] \
                - rf @ srcc_w[sb]
            if close.any():
                sus_t, sus_s = np.nonzero(close)
                rv = t[sus_t] - srcc_w[sb][sus_s]
                fs = f_w[sb][sus_s]
                # what the bulk sums included for these pairs...
                included = (inv_r[sus_t, sus_s, None] * fs
                            + rf[sus_t, sus_s, None] * rv)
                # ...versus the exact per-pair float64 kernel, from the
                # *original* (uncentered) coordinates: the patched values
                # are then independent of this call's source centering,
                # so two calls covering the same pair agree bitwise — the
                # global-FMM self subtraction relies on that. Pairs below
                # the coincidence floor (points identical up to roundoff,
                # e.g. shared nodes of a coarse grid and its upsampling)
                # are excluded like exact zero distance.
                rv64 = trg[a + sus_t] - src[sb][sus_s]
                fs64 = f[sb][sus_s]
                r2e = np.einsum("nk,nk->n", rv64, rv64)
                with np.errstate(divide="ignore"):
                    inv_e = np.where(r2e > _COINCIDENT_R2,
                                     1.0 / np.sqrt(r2e), 0.0)
                rfe = np.einsum("nk,nk->n", rv64, fs64) * inv_e ** 3
                exact = inv_e[:, None] * fs64 + rfe[:, None] * rv64
                np.add.at(acc, sus_t, exact - included.astype(np.float64))
        out[a:a + tchunk] = scale * acc
    return out


def stokes_dlp_apply(src: np.ndarray, normals: np.ndarray,
                     weighted_density: np.ndarray, trg: np.ndarray) -> np.ndarray:
    """Sum of stresslets: u(x) = sum_j D(x, y_j)[n_j] (w_j phi_j).

    Kernel: (6/8pi) r (r.phi) (r.n) / r^5 with r = x - y, factored like
    :func:`stokes_slp_apply`: with ``c_ts = (r.phi)(r.n) / r^5``,

        sum_s r c_ts = x (c.1) - c @ Y,

    on source-centred coordinates, in the same tiles and with the same
    close-pair patch (exact difference formula where the expanded r^2
    cancels, nothing from pairs below ``_COINCIDENT_R2``).
    """
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    n = np.asarray(normals, float).reshape(-1, 3)
    phi = np.asarray(weighted_density, float).reshape(-1, 3)
    out = np.empty((trg.shape[0], 3))
    scale = -6.0 / (8.0 * np.pi)
    center = src.mean(axis=0) if src.size else np.zeros(3)
    srcc = src - center
    src2 = np.einsum("sk,sk->s", srcc, srcc)
    sphi = np.einsum("sk,sk->s", srcc, phi)
    sn = np.einsum("sk,sk->s", srcc, n)
    ns = src.shape[0]
    tchunk = _TRG_CHUNK_BLOCKED if ns > _SRC_CHUNK else _CHUNK
    for a in range(0, trg.shape[0], tchunk):
        t = trg[a:a + tchunk] - center
        t2 = np.einsum("tk,tk->t", t, t)
        acc = np.zeros((t.shape[0], 3))
        for b in range(0, ns, _SRC_CHUNK):
            sb = slice(b, min(b + _SRC_CHUNK, ns))
            scale2 = t2[:, None] + src2[None, sb]
            r2 = t @ srcc[sb].T
            r2 *= 2.0
            np.subtract(scale2, r2, out=r2)
            floor = np.multiply(scale2, 1e-8, out=scale2)
            floor += 1e-100
            close = r2 < floor
            inv_r2 = np.maximum(r2, floor, out=r2)
            np.divide(1.0, inv_r2, out=inv_r2)
            c = t @ phi[sb].T
            c -= sphi[None, sb]
            rn = t @ n[sb].T
            rn -= sn[None, sb]
            c *= rn
            c *= inv_r2 ** 2
            c *= np.sqrt(inv_r2, out=inv_r2)
            acc += t * c.sum(axis=1)[:, None] - c @ srcc[sb]
            if close.any():
                sus_t, sus_s = np.nonzero(close)
                # Replace what the bulk sums included for the close pairs
                # by the exact kernel of the uncentred coordinates.
                included = c[sus_t, sus_s, None] * (t[sus_t] - srcc[sb][sus_s])
                rv = trg[a + sus_t] - src[sb][sus_s]
                r2e = np.einsum("nk,nk->n", rv, rv)
                with np.errstate(divide="ignore"):
                    inv_r5 = np.where(r2e > _COINCIDENT_R2, r2e ** -2.5, 0.0)
                ce = (np.einsum("nk,nk->n", rv, phi[sb][sus_s])
                      * np.einsum("nk,nk->n", rv, n[sb][sus_s]) * inv_r5)
                np.add.at(acc, sus_t, ce[:, None] * rv - included)
        out[a:a + tchunk] = scale * acc
    return out


def stokes_pressure_slp_apply(src: np.ndarray, weighted_density: np.ndarray,
                              trg: np.ndarray) -> np.ndarray:
    """Pressure of the single-layer potential: p(x) = sum (r.f) / (4 pi r^3)."""
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    f = np.asarray(weighted_density, float).reshape(-1, 3)
    out = np.zeros(trg.shape[0])
    for a in range(0, trg.shape[0], _CHUNK):
        t = trg[a:a + _CHUNK]
        r, r2 = _pairwise_r(t, src)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r3 = r2 ** -1.5
        inv_r3[~np.isfinite(inv_r3)] = 0.0
        rf = np.einsum("tsk,sk->ts", r, f)
        out[a:a + _CHUNK] = (rf * inv_r3).sum(axis=1) / (4.0 * np.pi)
    return out


def stokes_slp_matrix(src: np.ndarray, trg: np.ndarray,
                      viscosity: float = 1.0) -> np.ndarray:
    """Dense (3 nt, 3 ns) stokeslet matrix (no weights folded in)."""
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    nt, ns = trg.shape[0], src.shape[0]
    r = trg[:, None, :] - src[None, :, :]
    r2 = np.einsum("tsk,tsk->ts", r, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = 1.0 / np.sqrt(r2)
    inv_r[~np.isfinite(inv_r)] = 0.0
    inv_r3 = inv_r ** 3
    M = np.einsum("ts,ij->tisj", inv_r, np.eye(3)) + \
        np.einsum("tsi,tsj,ts->tisj", r, r, inv_r3)
    M *= 1.0 / (8.0 * np.pi * viscosity)
    return M.reshape(3 * nt, 3 * ns)


def stokes_dlp_matrix(src: np.ndarray, normals: np.ndarray,
                      trg: np.ndarray) -> np.ndarray:
    """Dense (3 nt, 3 ns) stresslet matrix (normals folded, no weights)."""
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    n = np.asarray(normals, float).reshape(-1, 3)
    nt, ns = trg.shape[0], src.shape[0]
    r = trg[:, None, :] - src[None, :, :]
    r2 = np.einsum("tsk,tsk->ts", r, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r2 = 1.0 / r2
    inv_r2[~np.isfinite(inv_r2)] = 0.0
    inv_r5 = inv_r2 ** 2 * np.sqrt(inv_r2)
    rn = np.einsum("tsk,sk->ts", r, n)
    M = np.einsum("tsi,tsj,ts->tisj", r, r, rn * inv_r5) * (-6.0 / (8.0 * np.pi))
    return M.reshape(3 * nt, 3 * ns)
