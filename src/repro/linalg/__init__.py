"""Dense-free linear algebra used throughout the solver.

The paper relies on PETSc's GMRES; here we provide our own restarted GMRES
(:func:`repro.linalg.gmres.gmres`) with the iteration-cap semantics of
Section 5.1 of the paper, plus the dense LU factorizations of the
per-cell direct solves.
"""
from .gmres import GMRESResult, gmres
from .dense import (LUFactorization, StackedLUFactorization,
                    StackedLUHandle)

__all__ = ["gmres", "GMRESResult",
           "LUFactorization", "StackedLUFactorization", "StackedLUHandle"]
