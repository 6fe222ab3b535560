"""Dense LU factorizations for the per-cell direct solves.

The tension Schur complement and the implicit bending operator are small
dense matrices (N and 3N per cell); factorizing them once per refresh and
back-substituting per solve replaces the inner GMRES loops entirely. SciPy's
LAPACK-backed ``lu_factor``/``lu_solve`` is used when available; the numpy
fallback solves against the stored matrix directly (same results, no reuse
of the factorization across solves).

:class:`StackedLUFactorization` holds the factorizations of a whole
equal-shape *batch* ``(k, n, n)`` — the per-cell operators of an
equal-order cell group — in one stacked buffer, driving the same
``getrf``/``getrs`` LAPACK kernels ``lu_factor``/``lu_solve`` wrap, so a
stacked solve is bit-identical to ``k`` independent
:class:`LUFactorization` solves while factor/solve dispatch happens once
per group instead of once per cell.

A singular operator (``getrf`` reports an exactly-zero ``U`` diagonal)
is detected at factorization: instead of the LAPACK behavior of keeping
the factorization and letting every solve produce inf/nan, the affected
matrix (slice) is retained and its solves are routed through the
matrix-free :func:`repro.linalg.gmres` — finite least-squares-style
iterates instead of poisoned output — and the condition is surfaced on
``.singular`` so the health sentinel can report which cells degraded.
"""
from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .gmres import gmres

try:
    from scipy.linalg import lu_factor as _lu_factor, lu_solve as _lu_solve
    from scipy.linalg import get_lapack_funcs as _get_lapack_funcs
    from scipy.linalg import LinAlgWarning as _LinAlgWarning
except ImportError:  # pragma: no cover - scipy is a standard dependency
    _lu_factor = None
    _lu_solve = None
    _get_lapack_funcs = None
    _LinAlgWarning = RuntimeWarning


def _gmres_fallback_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Matrix-free GMRES solve against a singular operator (1-D rhs or
    stacked columns): the iterates stay finite — GMRES minimizes the
    residual over the Krylov space, returning a least-squares-style
    solution where a triangular back-substitution would divide by the
    zero pivot."""
    n = matrix.shape[0]

    def matvec(x: np.ndarray) -> np.ndarray:
        return matrix @ x

    if rhs.ndim == 1:
        return gmres(matvec, rhs, tol=1e-12, max_iter=n).x
    cols = [gmres(matvec, rhs[:, k], tol=1e-12, max_iter=n).x
            for k in range(rhs.shape[1])]
    return np.stack(cols, axis=1)


class LUFactorization:
    """LU factorization of a square dense operator, reusable across solves.

    A singular matrix (exactly-zero ``U`` pivot, the condition LAPACK's
    ``getrf`` flags with ``info > 0``) is detected at construction and
    marked on :attr:`singular`; its solves route through a matrix-free
    GMRES fallback instead of producing inf/nan.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got {matrix.shape}")
        self.shape = matrix.shape
        #: whether the factorization hit an exactly-zero pivot (solves
        #: fall back to GMRES against the retained matrix).
        self.singular = False
        if _lu_factor is not None:
            with warnings.catch_warnings():
                # scipy's own "matrix is singular" warning is superseded
                # by the explicit fallback warning below.
                warnings.simplefilter("ignore", _LinAlgWarning)
                self._lu = _lu_factor(matrix)
            self.singular = bool(np.any(np.diag(self._lu[0]) == 0.0))
            self._matrix = matrix.copy() if self.singular else None
            if self.singular:
                warnings.warn(
                    "matrix is singular (exactly-zero U pivot); solves "
                    "will run through the GMRES fallback instead of the "
                    "factorization", _LinAlgWarning, stacklevel=2)
        else:  # pragma: no cover - scipy is a standard dependency
            self._lu = None
            self._matrix = matrix.copy()

    @classmethod
    def from_factors(cls, lu: np.ndarray, piv: np.ndarray
                     ) -> "LUFactorization":
        """Rebuild a factorization from stored ``(lu, piv)`` factors
        (:attr:`factors` of a previous instance — checkpoint restore).

        ``getrs`` against identical factor arrays is bit-identical
        regardless of whether they originally came from a per-cell
        ``lu_factor`` or a slice of a stacked ``getrf`` pass, which is
        what lets checkpoints serialize factors instead of reassembling
        operators. Requires SciPy (the factors are LAPACK's packed
        form); checkpoints are not written on the numpy fallback.
        """
        if _lu_factor is None:  # pragma: no cover - scipy is standard
            raise NotImplementedError(
                "restoring serialized LU factors requires scipy")
        self = cls.__new__(cls)
        lu = np.ascontiguousarray(np.asarray(lu, float))
        piv = np.ascontiguousarray(np.asarray(piv, np.int32))
        if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
            raise ValueError(f"expected square LU factors, got {lu.shape}")
        self.shape = lu.shape
        self._lu = (lu, piv)
        self.singular = bool(np.any(np.diag(lu) == 0.0))
        self._matrix = None
        if self.singular:
            raise ValueError(
                "serialized LU factors are singular; the originating "
                "factorization solved through its retained matrix, which "
                "is not serialized")
        return self

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lu, piv)`` factor pair, for checkpoint serialization
        (feed back through :meth:`from_factors`). Raises on the numpy
        fallback and on singular factorizations (no reusable factors)."""
        if self._lu is None or self.singular:
            raise NotImplementedError(
                "no serializable LU factors (numpy fallback or singular "
                "matrix)")
        return self._lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` (1-D or stacked columns)."""
        rhs = np.asarray(rhs, float)
        if self.singular:
            return _gmres_fallback_solve(self._matrix, rhs)
        if self._lu is not None:
            return _lu_solve(self._lu, rhs)
        try:  # pragma: no cover - scipy is a standard dependency
            return np.linalg.solve(self._matrix, rhs)
        except np.linalg.LinAlgError:  # pragma: no cover
            self.singular = True
            return _gmres_fallback_solve(self._matrix, rhs)


class StackedLUFactorization:
    """LU factorizations of an equal-shape batch of square operators.

    The batch is factorized at construction from a ``(k, n, n)`` stack
    (or a sequence of ``k`` matrices) with the same LAPACK ``getrf``
    SciPy's ``lu_factor`` wraps, into one stacked ``(k, n, n)`` factor
    buffer; solves run ``getrs`` per slice exactly like ``lu_solve``, so
    every result is bit-identical to the corresponding per-cell
    :class:`LUFactorization`. :meth:`handle` hands out a single-slice
    view with the ``.solve`` interface of :class:`LUFactorization`, so
    per-cell consumers (the factorized tension/implicit solvers) can
    hold a slice of a group factorization without knowing about the
    batch.

    Without SciPy, mirrors :class:`LUFactorization`'s fallback: matrices
    are stored and solves call ``numpy.linalg.solve`` per slice.
    """

    def __init__(self, matrices: np.ndarray | Sequence[np.ndarray]):
        if not isinstance(matrices, np.ndarray):
            matrices = np.stack([np.asarray(m, float) for m in matrices])
        matrices = np.asarray(matrices, float)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("expected a (k, n, n) stack of square "
                             f"matrices, got {matrices.shape}")
        self.shape = matrices.shape
        #: slice indices whose factorization hit an exactly-zero pivot;
        #: their solves run through the GMRES fallback (the slice matrix
        #: is retained in ``_singular_matrices``).
        self.singular: tuple[int, ...] = ()
        self._singular_matrices: dict[int, np.ndarray] = {}
        if _get_lapack_funcs is not None:
            getrf, = _get_lapack_funcs(("getrf",), (matrices[0],))
            self._lu = np.empty_like(matrices)
            self._piv = np.empty(matrices.shape[:2], dtype=np.int32)
            self._getrs = _get_lapack_funcs(("getrs",),
                                            (matrices[0],))[0]
            singular = []
            for i in range(matrices.shape[0]):
                lu, piv, info = getrf(matrices[i])
                if info > 0:
                    # a back-substitution against the zero pivot would
                    # poison the run with inf/nan; keep the slice matrix
                    # and route its solves through GMRES instead
                    warnings.warn(
                        f"matrix {i} of the stack is singular "
                        f"(U[{info - 1}, {info - 1}] is exactly zero); "
                        "its solves will run through the GMRES fallback "
                        "instead of the factorization",
                        _LinAlgWarning, stacklevel=2)
                    singular.append(i)
                    self._singular_matrices[i] = matrices[i].copy()
                self._lu[i] = lu
                self._piv[i] = piv
            self.singular = tuple(singular)
            self._matrices = None
        else:  # pragma: no cover - scipy is a standard dependency
            self._lu = None
            self._matrices = matrices.copy()

    def __len__(self) -> int:
        return self.shape[0]

    def solve_one(self, i: int, rhs: np.ndarray) -> np.ndarray:
        """Solve slice ``i``'s system (1-D rhs or stacked columns)."""
        rhs = np.asarray(rhs, float)
        if i in self._singular_matrices:
            return _gmres_fallback_solve(self._singular_matrices[i], rhs)
        if self._lu is not None:
            x, info = self._getrs(self._lu[i], self._piv[i], rhs)
            return x
        try:  # pragma: no cover - scipy is a standard dependency
            return np.linalg.solve(self._matrices[i], rhs)
        except np.linalg.LinAlgError:  # pragma: no cover
            self._singular_matrices[i] = self._matrices[i].copy()
            self.singular = tuple(sorted({*self.singular, i}))
            return _gmres_fallback_solve(self._matrices[i], rhs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve all systems against a ``(k, n)`` right-hand-side stack."""
        rhs = np.asarray(rhs, float)
        if rhs.shape[0] != self.shape[0]:
            raise ValueError(f"expected {self.shape[0]} right-hand sides, "
                             f"got {rhs.shape[0]}")
        return np.stack([self.solve_one(i, rhs[i])
                         for i in range(self.shape[0])])

    def handle(self, i: int) -> "StackedLUHandle":
        return StackedLUHandle(self, i)


class StackedLUHandle:
    """Single-slice view of a :class:`StackedLUFactorization` with the
    ``.solve`` interface of :class:`LUFactorization`."""

    def __init__(self, stacked: StackedLUFactorization, index: int):
        self._stacked = stacked
        self._index = index
        self.shape = stacked.shape[1:]

    @property
    def singular(self) -> bool:
        """Whether this slice's factorization hit a zero pivot (its
        solves run through the GMRES fallback)."""
        return self._index in self._stacked._singular_matrices

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """This slice's ``(lu, piv)`` factors (checkpoint serialization;
        see :attr:`LUFactorization.factors`). getrs on the copied
        factors reproduces this handle's solves bit-identically."""
        st = self._stacked
        if st._lu is None or self.singular:
            raise NotImplementedError(
                "no serializable LU factors (numpy fallback or singular "
                "slice)")
        return st._lu[self._index], st._piv[self._index]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._stacked.solve_one(self._index, rhs)
