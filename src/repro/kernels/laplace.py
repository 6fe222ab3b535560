"""Laplace layer kernels.

The boundary solver of Section 3 is formulated for general elliptic PDEs;
the Laplace kernels provide a cheap scalar instance used heavily by the
test suite (the constant-density jump identity and interior Dirichlet
solves are much cheaper than their Stokes counterparts). No scene runs
them: they are the test oracle for the kernel-independent boundary
solver and FMM (``kernel="laplace"``).
"""
from __future__ import annotations

import numpy as np

_CHUNK = 2048


def laplace_slp_apply(src: np.ndarray, weighted_density: np.ndarray,
                      trg: np.ndarray) -> np.ndarray:
    """u(x) = sum_j (w_j q_j) / (4 pi |x - y_j|)."""
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    q = np.asarray(weighted_density, float).ravel()
    out = np.zeros(trg.shape[0])
    for a in range(0, trg.shape[0], _CHUNK):
        t = trg[a:a + _CHUNK]
        r = t[:, None, :] - src[None, :, :]
        r2 = np.einsum("tsk,tsk->ts", r, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r = 1.0 / np.sqrt(r2)
        inv_r[~np.isfinite(inv_r)] = 0.0
        out[a:a + _CHUNK] = (inv_r @ q) / (4.0 * np.pi)
    return out


def laplace_dlp_apply(src: np.ndarray, normals: np.ndarray,
                      weighted_density: np.ndarray, trg: np.ndarray) -> np.ndarray:
    """u(x) = sum_j (r . n_j) (w_j q_j) / (4 pi |r|^3), r = x - y_j.

    For constant density on a closed surface the interior value is +1
    (outward normals), matching the Stokes convention.
    """
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    n = np.asarray(normals, float).reshape(-1, 3)
    q = np.asarray(weighted_density, float).ravel()
    out = np.zeros(trg.shape[0])
    for a in range(0, trg.shape[0], _CHUNK):
        t = trg[a:a + _CHUNK]
        r = t[:, None, :] - src[None, :, :]
        r2 = np.einsum("tsk,tsk->ts", r, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r3 = r2 ** -1.5
        inv_r3[~np.isfinite(inv_r3)] = 0.0
        rn = np.einsum("tsk,sk->ts", r, n)
        out[a:a + _CHUNK] = -((rn * inv_r3) @ q) / (4.0 * np.pi)
    return out


def laplace_slp_matrix(src: np.ndarray, trg: np.ndarray) -> np.ndarray:
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    r = trg[:, None, :] - src[None, :, :]
    r2 = np.einsum("tsk,tsk->ts", r, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = 1.0 / np.sqrt(r2)
    inv_r[~np.isfinite(inv_r)] = 0.0
    return inv_r / (4.0 * np.pi)


def laplace_dlp_matrix(src: np.ndarray, normals: np.ndarray,
                       trg: np.ndarray) -> np.ndarray:
    src = np.asarray(src, float).reshape(-1, 3)
    trg = np.asarray(trg, float).reshape(-1, 3)
    n = np.asarray(normals, float).reshape(-1, 3)
    r = trg[:, None, :] - src[None, :, :]
    r2 = np.einsum("tsk,tsk->ts", r, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r3 = r2 ** -1.5
    inv_r3[~np.isfinite(inv_r3)] = 0.0
    rn = np.einsum("tsk,sk->ts", r, n)
    return -(rn * inv_r3) / (4.0 * np.pi)
