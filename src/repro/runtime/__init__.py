"""In-process runtime: executors, warm caches and Morton hashing.

- :mod:`repro.runtime.executor` — pluggable executors (serial /
  worker-thread pool / checked) that the time stepper maps its per-cell
  stage tasks over, and the process pool the sweep runner maps whole
  scenes over.
- :func:`warm_caches` — builds the per-order tables a scene needs before
  its first step.
- :mod:`repro.runtime.spatial_hash` — Morton (Z-order) keys on a uniform
  grid (paper Sec. 3.3), used by the FMM octree and the collision broad
  phase.
"""
from .caches import warm_caches
from .executor import (EXECUTORS, Executor, ProcessPoolExecutor, ProcessTask,
                       SerialExecutor, ThreadPoolExecutor, make_executor,
                       register_executor, resolve_workers)
from .spatial_hash import SpatialHash, morton_keys_3d

__all__ = [
    "warm_caches",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "ProcessTask",
    "EXECUTORS",
    "make_executor",
    "register_executor",
    "resolve_workers",
    "SpatialHash",
    "morton_keys_3d",
]
