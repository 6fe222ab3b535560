"""Virtual distributed-memory runtime (substitution S1 in DESIGN.md).

The paper runs one MPI rank per Stampede2 node. This environment has no
MPI, so the parallel algorithms run on a *virtual* communicator: P logical
ranks executed in-process, with every collective routed through
:class:`VirtualComm`, which implements the MPI semantics over lists of
per-rank numpy payloads and records a :class:`CommLedger` of message
counts and bytes. The ledger, combined with the machine models in
:mod:`repro.scaling`, regenerates the paper's scaling figures; the
algorithms themselves (Morton spatial hashing of Sec. 3.3, the HykSort-
style parallel sample sort [45], the sparse all-to-all used by the LCP
assembly) are real implementations operating on the virtual ranks.

:mod:`repro.runtime.executor` is the *real* intra-process parallelism:
pluggable executors (serial / worker-thread pool) that the time stepper
maps its per-cell stage tasks over, and the process pool the sweep
runner maps whole scenes over.
"""
from .caches import warm_caches
from .communicator import VirtualComm, CommLedger
from .executor import (EXECUTORS, Executor, ProcessPoolExecutor, ProcessTask,
                       SerialExecutor, ThreadPoolExecutor, make_executor,
                       register_executor, resolve_workers)
from .partition import block_partition, partition_by_morton
from .parallel_sort import parallel_sample_sort
from .spatial_hash import SpatialHash, morton_keys_3d, morton_decode_3d

__all__ = [
    "warm_caches",
    "VirtualComm",
    "CommLedger",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "ProcessTask",
    "EXECUTORS",
    "make_executor",
    "register_executor",
    "resolve_workers",
    "block_partition",
    "partition_by_morton",
    "parallel_sample_sort",
    "SpatialHash",
    "morton_keys_3d",
    "morton_decode_3d",
]
