"""Morton (Z-order) spatial hashing (paper Sec. 3.3, steps a-c).

Points and bounding boxes are assigned Morton keys on a uniform grid of
spacing H; sorting the keys groups objects that share a grid cell. The
FMM octree orders its boxes by these keys, and the collision broad phase
of Sec. 4 (Fig. 3) finds candidate pairs by matching the keys of
space-time bounding boxes.
"""
from __future__ import annotations

import numpy as np

_MORTON_BITS = 21  # 63-bit keys


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of x so there are two zeros between bits."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _compact1by2(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return x


def morton_keys_3d(ijk: np.ndarray) -> np.ndarray:
    """Morton keys of integer grid coordinates, shape (n, 3) -> (n,)."""
    ijk = np.asarray(ijk)
    if np.any(ijk < 0) or np.any(ijk >= (1 << _MORTON_BITS)):
        raise ValueError("grid coordinates out of Morton range")
    return (_part1by2(ijk[:, 0]) << np.uint64(2)) | \
           (_part1by2(ijk[:, 1]) << np.uint64(1)) | _part1by2(ijk[:, 2])


def morton_decode_3d(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`morton_keys_3d`."""
    keys = np.asarray(keys, dtype=np.uint64)
    i = _compact1by2(keys >> np.uint64(2))
    j = _compact1by2(keys >> np.uint64(1))
    k = _compact1by2(keys)
    return np.column_stack([i, j, k]).astype(np.int64)


class SpatialHash:
    """Uniform-grid Morton hash over a given domain.

    Parameters
    ----------
    origin, spacing:
        Grid geometry; ``spacing`` is the H of Sec. 3.3 (the average
        near-zone box diagonal).
    """

    def __init__(self, origin: np.ndarray, spacing: float):
        self.origin = np.asarray(origin, float)
        self.spacing = float(spacing)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    def cell_of(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, float))
        return np.floor((pts - self.origin) / self.spacing).astype(np.int64)

    def keys_of(self, points: np.ndarray) -> np.ndarray:
        return morton_keys_3d(self.cell_of(points))

    def box_keys(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """All grid cells overlapped by an AABB, as unique Morton keys."""
        lo_c = self.cell_of(np.asarray(lo, float)[None, :])[0]
        hi_c = self.cell_of(np.asarray(hi, float)[None, :])[0]
        ranges = [np.arange(lo_c[k], hi_c[k] + 1) for k in range(3)]
        A, B, C = np.meshgrid(*ranges, indexing="ij")
        ijk = np.column_stack([A.ravel(), B.ravel(), C.ravel()])
        return morton_keys_3d(np.maximum(ijk, 0))
