"""Structure-of-arrays batch view over a scene's cells.

The per-cell stages of a time step act on *every* cell with the same
kind of dense linear algebra: a forward SHT of the positions, a GEMV
against the cell's assembled self-interaction operator, a factorized
solve. :class:`CellBatch` is the batching layer those stages go through:
it groups the cells by spherical-harmonic order, and inside each group
the per-cell calls collapse into one *stacked* operation — a single
``(ncell, nlat, nphi, 3)``-shaped transform, or one batched
``(ncell, 3N, 3N) @ (ncell, 3N)`` GEMM — instead of ``ncell`` separate
GEMVs. Homogeneous scenes (every cell the same order, the common case)
are therefore one BLAS call per stage; heterogeneous scenes degrade
gracefully to one call per order group.

The position-dependent surface caches are seeded the same way once per
step (:meth:`CellBatch.seed_coeffs` / :meth:`CellBatch.seed_geometry`;
:func:`repro.surfaces.seed_upsampled` for the fine resampling the near
evaluators and collision meshes share). Those passes stack only
batch-invariant operations (FFTs, the Legendre contraction, pointwise
formulas), so a seeded cache is *bit-identical* to the per-cell one.

Batching changes no semantics: the stacked GEMM paths agree with the
per-cell loops to floating-point roundoff (``<= 1e-12`` relative, tested)
and everything here is deterministic, so it composes with any
:mod:`repro.runtime.executor` choice.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..linalg import StackedLUFactorization
from ..surfaces import SpectralSurface, seed_geometry, stacked_coeffs
from ..vesicle.self_interaction import assemble_circulant


class CellBatch:
    """Groups a cell list by order and batches their per-cell dense ops.

    The batch holds references (not copies) to the cells, so it stays
    valid as they move; only membership is fixed at construction.
    """

    def __init__(self, cells: Sequence[SpectralSurface]):
        self.cells: List[SpectralSurface] = list(cells)
        by_order: Dict[int, List[int]] = {}
        for i, c in enumerate(self.cells):
            by_order.setdefault(c.order, []).append(i)
        #: ``(order, cell indices)`` per group, ascending in order; the
        #: index lists preserve scene order, so scattering grouped
        #: results back by index is deterministic.
        self.groups: List[Tuple[int, List[int]]] = sorted(by_order.items())

    @property
    def homogeneous(self) -> bool:
        """Whether every cell shares one spherical-harmonic order."""
        return len(self.groups) <= 1

    def __len__(self) -> int:
        return len(self.cells)

    # -- stacked views -----------------------------------------------------
    def stacked_positions(self) -> Dict[int, np.ndarray]:
        """Per order group, positions stacked as ``(k, nlat, nphi, 3)``."""
        return {order: np.stack([self.cells[i].X for i in idx])
                for order, idx in self.groups}

    # -- stacked cache seeding ---------------------------------------------
    def seed_coeffs(self) -> None:
        """Fill every cell's empty SH-coefficient cache from one stacked
        forward SHT per order group
        (:func:`repro.surfaces.stacked_coeffs`)."""
        for _, idx in self.groups:
            stacked_coeffs([self.cells[i] for i in idx])

    def seed_geometry(self) -> None:
        """Fill every cell's empty native-grid and anti-aliasing geometry
        cache (and the coefficients they need) from one stacked
        evaluation per order (:func:`repro.surfaces.seed_geometry`), so
        force terms, self-op assembly and near evaluators find it cached."""
        seed_geometry(self.cells)
        seed_geometry(self.cells, aliased=True)

    # -- stacked self-interaction reassembly -------------------------------
    def assemble_selfops(self, ops: Sequence, due: Sequence[int]) -> None:
        """Stacked block-circulant reassembly of the ``due`` cells'
        singular self-interaction operators.

        Cells sharing rotation tables (same order/upsample pair) and
        viscosity are assembled in one
        :func:`repro.vesicle.assemble_circulant` call — the per-ring
        GEMMs and inverse azimuthal transforms carry a leading cell axis
        instead of re-dispatching per cell — and the slices are handed
        to each operator via
        :meth:`~repro.vesicle.SingularSelfInteraction.install_full`; the
        cells' next policy-driven ``refresh()`` consumes the installed
        state. A stacked slice equals the per-cell assembly to
        floating-point roundoff (same batched kernels on the same data;
        <= 1e-16 tested), and the stacking is deterministic, so threaded
        runs stay bit-identical to serial. Callers must pass only cells
        that are *due* a full reassembly at the current geometry, on
        operators in ``"circulant"`` assembly mode.
        """
        groups: Dict[tuple, List[int]] = {}
        for i in due:
            key = (id(ops[i].tables), float(ops[i].viscosity))
            groups.setdefault(key, []).append(i)
        for idx in groups.values():
            surfs = [self.cells[i] for i in idx]
            op0 = ops[idx[0]]
            M, _, _ = assemble_circulant(op0.tables, surfs, op0.viscosity)
            for slot, i in enumerate(idx):
                ops[i].install_full(M[slot])

    # -- stacked direct-solve factorization --------------------------------
    def factorize_lu(self, matrices: Sequence[Optional[np.ndarray]]
                     ) -> List[Optional[object]]:
        """Factorize per-cell dense operators as stacked equal-order
        groups.

        ``matrices[i]`` is cell ``i``'s square system (or ``None`` for
        cells with nothing to factorize this step). Same-order groups
        share operator shape, so each group becomes one
        :class:`repro.linalg.StackedLUFactorization` — the getrf/getrs
        calls run over one ``(k, n, n)`` buffer — and every cell gets
        back a solve handle bit-identical to its own per-cell
        ``LUFactorization`` (same LAPACK kernels on the same matrix).
        """
        if len(matrices) != len(self.cells):
            raise ValueError(f"expected {len(self.cells)} matrices, got "
                             f"{len(matrices)}")
        out: List[Optional[object]] = [None] * len(self.cells)
        for _, idx in self.groups:
            live = [i for i in idx if matrices[i] is not None]
            if not live:
                continue
            stacked = StackedLUFactorization([matrices[i] for i in live])
            for slot, i in enumerate(live):
                out[i] = stacked.handle(slot)
        return out

    # -- batched per-cell operator application -----------------------------
    def apply_matrices(self, matrices: Sequence[Optional[np.ndarray]],
                       vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        """``y_i = M_i @ x_i`` for per-cell square operators, batched.

        ``matrices[i]`` / ``vectors[i]`` belong to cell ``i``. Cells in
        the same order group share operator shape, so each group is one
        stacked ``(k, m, m) @ (k, m, 1)`` GEMM; a cell with ``None`` for
        its matrix passes its vector through unchanged (identity).
        Results come back as a list indexed by cell.
        """
        if len(matrices) != len(self.cells) or len(vectors) != len(self.cells):
            raise ValueError(
                f"expected {len(self.cells)} matrices/vectors, got "
                f"{len(matrices)}/{len(vectors)}")
        out: List[Optional[np.ndarray]] = [None] * len(self.cells)
        for _, idx in self.groups:
            live = [i for i in idx if matrices[i] is not None]
            for i in idx:
                if matrices[i] is None:
                    out[i] = np.asarray(vectors[i], float).ravel().copy()
            if not live:
                continue
            if len(live) == 1:
                i = live[0]
                out[i] = matrices[i] @ np.asarray(vectors[i], float).ravel()
                continue
            M = np.stack([matrices[i] for i in live])
            x = np.stack([np.asarray(vectors[i], float).ravel()
                          for i in live])
            y = np.matmul(M, x[:, :, None])[:, :, 0]
            for slot, i in enumerate(live):
                out[i] = y[slot]
        return out
