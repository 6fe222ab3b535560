"""The virtual communicator and its communication ledger.

SPMD code is written in "lockstep" style: local computation loops over the
per-rank payload list, and every exchange goes through a ``VirtualComm``
collective that takes a list with one entry per rank and returns the same.
Semantics mirror MPI (Allreduce, Allgather, Alltoallv, point-to-point
batches); each call records (operation, message count, bytes moved) so
that the scaling model can price the communication on a real machine.
"""
from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any, Callable, Sequence

import numpy as np


@dataclasses.dataclass
class _OpStats:
    calls: int = 0
    messages: int = 0
    bytes: int = 0


class CommLedger:
    """Accumulates per-operation communication statistics.

    ``phase`` labels (e.g. "COL", "BIE-solve") attribute traffic to the
    component breakdown used in the paper's Figs. 4-6.
    """

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], _OpStats] = defaultdict(_OpStats)
        self.phase = "Other"

    def record(self, op: str, messages: int, nbytes: int) -> None:
        s = self.stats[(self.phase, op)]
        s.calls += 1
        s.messages += messages
        s.bytes += nbytes

    def total_bytes(self, phase: str | None = None) -> int:
        return sum(s.bytes for (ph, _), s in self.stats.items()
                   if phase is None or ph == phase)

    def total_messages(self, phase: str | None = None) -> int:
        return sum(s.messages for (ph, _), s in self.stats.items()
                   if phase is None or ph == phase)

    def summary(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (ph, op), s in sorted(self.stats.items()):
            d = out.setdefault(ph, {})
            d[op] = s.bytes
        return out


def _nbytes(x: Any) -> int:
    if isinstance(x, np.ndarray):
        return x.nbytes
    if isinstance(x, (list, tuple)):
        return sum(_nbytes(v) for v in x)
    if isinstance(x, dict):
        return sum(_nbytes(v) for v in x.values())
    if isinstance(x, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(x, (bytes, str)):
        return len(x)
    return 64  # conservative default for small python objects


class VirtualComm:
    """P logical MPI ranks executed in-process."""

    def __init__(self, size: int, ledger: CommLedger | None = None):
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = int(size)
        self.ledger = ledger or CommLedger()

    # -- phases -----------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        self.ledger.phase = phase

    def _check(self, data: Sequence[Any]) -> None:
        if len(data) != self.size:
            raise ValueError(
                f"collective needs one payload per rank ({self.size}), got {len(data)}")

    # -- collectives ---------------------------------------------------------
    def barrier(self) -> None:
        self.ledger.record("barrier", self.size, 0)

    def bcast(self, value: Any, root: int = 0) -> list[Any]:
        self.ledger.record("bcast", self.size - 1,
                           (self.size - 1) * _nbytes(value))
        return [value for _ in range(self.size)]

    def allreduce(self, data: Sequence[Any], op: Callable = np.add) -> list[Any]:
        """MPI_Allreduce with an elementwise reduction op."""
        self._check(data)
        acc = data[0]
        for d in data[1:]:
            acc = op(acc, d)
        self.ledger.record("allreduce", 2 * (self.size - 1),
                           2 * (self.size - 1) * _nbytes(data[0]))
        return [acc for _ in range(self.size)]

    def allgather(self, data: Sequence[Any]) -> list[list[Any]]:
        self._check(data)
        gathered = list(data)
        total = sum(_nbytes(d) for d in data)
        self.ledger.record("allgather", self.size * (self.size - 1),
                           (self.size - 1) * total)
        return [list(gathered) for _ in range(self.size)]

    def alltoall(self, data: Sequence[Sequence[Any]]) -> list[list[Any]]:
        """MPI_Alltoall: data[i][j] is sent from rank i to rank j."""
        self._check(data)
        out = [[data[i][j] for i in range(self.size)] for j in range(self.size)]
        nbytes = sum(_nbytes(data[i][j])
                     for i in range(self.size) for j in range(self.size) if i != j)
        self.ledger.record("alltoall", self.size * (self.size - 1), nbytes)
        return out

    def alltoallv(self, buckets: Sequence[dict[int, Any]]) -> list[dict[int, Any]]:
        """Sparse MPI_Alltoallv: ``buckets[i][j]`` goes from rank i to j.

        Only nonempty pairs are counted as messages — this is the sparse
        exchange the paper uses to assemble the distributed LCP matrix
        ("a sparse MPI_All_to_Allv to send each local contribution").
        """
        self._check(buckets)
        out: list[dict[int, Any]] = [dict() for _ in range(self.size)]
        messages = 0
        nbytes = 0
        for i, bucket in enumerate(buckets):
            for j, payload in bucket.items():
                if not (0 <= j < self.size):
                    raise ValueError(f"invalid destination rank {j}")
                out[j][i] = payload
                if i != j:
                    messages += 1
                    nbytes += _nbytes(payload)
        self.ledger.record("alltoallv", messages, nbytes)
        return out

    def gather(self, data: Sequence[Any], root: int = 0) -> list[Any] | None:
        self._check(data)
        total = sum(_nbytes(d) for i, d in enumerate(data) if i != root)
        self.ledger.record("gather", self.size - 1, total)
        return list(data)

    def scatter(self, chunks: Sequence[Any], root: int = 0) -> list[Any]:
        self._check(chunks)
        total = sum(_nbytes(c) for i, c in enumerate(chunks) if i != root)
        self.ledger.record("scatter", self.size - 1, total)
        return list(chunks)

    def reduce_scalar(self, data: Sequence[float], op: Callable = max) -> float:
        self._check(data)
        self.ledger.record("allreduce", 2 * (self.size - 1),
                           16 * (self.size - 1))
        out = data[0]
        for d in data[1:]:
            out = op(out, d)
        return out
