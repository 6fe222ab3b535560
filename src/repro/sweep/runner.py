"""The sweep runner: N independent scenes multiplexed over one executor.

:class:`SweepRunner` serves the production workload ROADMAP item 2
names — thousands of independent scenes, not one giant scene — on top
of the pieces earlier PRs shipped: the pluggable executor registry
(serial / thread / process, PR 4/9), bit-identical checkpoint/resume
(PR 8), and the geometry-independent per-order table caches.

Guarantees:

- **Bit-identity.** Each job runs through the same pure
  :func:`~repro.sweep.job.run_scene` no matter the executor, so an
  N-job process sweep's per-job trajectories are bit-identical to
  running each job alone serially (gated in CI by the ``sweep-smoke``
  lane).
- **Failure isolation.** One scene's :class:`repro.StepRejectedError`
  (or any crash) lands as a ``"failed"`` :class:`SceneResult`; the
  sweep completes every other job.
- **Kill/resume.** With a ``workdir``, the runner checkpoints each job
  periodically and records completed jobs in an atomically-rewritten
  manifest; a SIGKILLed sweep re-run with the same arguments skips
  completed jobs (their persisted results are returned verbatim) and
  resumes unfinished ones from their checkpoint frontier — no job lost
  or repeated. Non-checkpointable scenes (vessel/recycler:
  ``Simulation.checkpointable`` is False) degrade gracefully to
  non-resumable jobs that restart from scratch on resume.
- **Warm caches.** The per-order shared tables of every order the sweep
  touches are pre-built once in the parent before the pool forks
  (copy-on-write shares them with every worker) and defensively on
  first touch inside each worker — so a 1000-scene sweep pays table
  assembly once per order, not once per job, and the raised cache
  bounds (:mod:`repro.analysis.guard`) keep mixed-order sweeps from
  thrashing evictions.
"""
from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence, Union

from ..runtime.caches import warm_caches
from ..runtime.executor import Executor, make_executor
from .job import (SceneJob, SceneResult, SceneTask, result_from_npz,
                  result_to_npz)

__all__ = ["SweepRunner", "SweepReport"]

MANIFEST_NAME = "sweep_manifest.json"


@dataclasses.dataclass
class SweepReport:
    """What a :meth:`SweepRunner.run` did, beyond the results list."""

    #: results in input-job order (one per job, always).
    results: List[SceneResult]
    #: job_ids restored from a previous run's persisted results.
    restored: List[str]
    #: job_ids resumed mid-trajectory from a checkpoint frontier.
    resumed: List[str]
    #: wall-clock seconds of this run (restored jobs cost none).
    elapsed: float = 0.0


class SweepRunner:
    """Multiplex :class:`SceneJob`s over a registry executor.

    ``executor`` is a registry name (``"serial"``, ``"thread"``,
    ``"process"``) or a ready :class:`~repro.runtime.executor.Executor`
    instance; ``workers`` follows the same ``"auto"``/int convention as
    :attr:`repro.config.NumericsOptions.workers`, resolved against the
    job count. ``max_inflight`` bounds how many jobs are handed to the
    executor at once (default ``4 * workers``): the manifest frontier
    advances wave by wave, so a kill loses at most one wave of
    *bookkeeping* (the per-job checkpoints inside the wave still resume
    mid-trajectory). ``workdir`` enables the kill/resume story; without
    it the sweep is a one-shot in-memory run.

    ``timeout`` / ``checkpoint_interval`` are per-job defaults applied
    to jobs that leave them unset.
    """

    def __init__(self, jobs: Sequence[SceneJob],
                 executor: Union[str, Executor] = "process",
                 workers: Union[int, str] = "auto",
                 max_inflight: Optional[int] = None,
                 workdir: Optional[str] = None,
                 warm: bool = True,
                 timeout: Optional[float] = None,
                 checkpoint_interval: Optional[int] = None):
        jobs = list(jobs)
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate job_ids in sweep: {dupes}")
        self.jobs = jobs
        if isinstance(executor, Executor):
            self.executor = executor
            self._own_executor = False
        else:
            from ..runtime.executor import resolve_workers
            self.executor = make_executor(
                executor, resolve_workers(workers, len(jobs)))
            self._own_executor = True
        self.max_inflight = (int(max_inflight) if max_inflight
                             else max(1, 4 * self.executor.workers))
        self.workdir = workdir
        self.warm = warm
        self.default_timeout = timeout
        self.default_checkpoint_interval = checkpoint_interval

    # -- manifest bookkeeping ---------------------------------------------
    def _manifest_path(self) -> Optional[str]:
        return (os.path.join(self.workdir, MANIFEST_NAME)
                if self.workdir else None)

    def _load_manifest(self) -> Dict[str, dict]:
        path = self._manifest_path()
        if path is None or not os.path.exists(path):
            return {}
        try:
            with open(path) as fh:
                data = json.load(fh)
            return data.get("jobs", {})
        except (json.JSONDecodeError, OSError):
            # a manifest torn by a kill mid-write never happens (atomic
            # rename), but an unreadable file must not kill the sweep:
            # fall back to re-running everything from checkpoints
            return {}

    def _write_manifest(self, entries: Dict[str, dict]) -> None:
        path = self._manifest_path()
        if path is None:
            return
        payload = json.dumps({"version": 1, "jobs": entries}, indent=1)
        # Atomic replace: a SIGKILL between write and rename leaves the
        # previous manifest intact, never a torn file.
        fd, tmp = tempfile.mkstemp(dir=self.workdir, suffix=".manifest")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _result_path(self, job_id: str) -> str:
        return os.path.join(self.workdir, f"result_{job_id}.npz")

    # -- the run -----------------------------------------------------------
    def _prepare_jobs(self) -> List[SceneJob]:
        """Apply workdir checkpoint paths and per-job defaults."""
        prepared = []
        for job in self.jobs:
            updates = {}
            if (self.workdir and job.checkpoint_path is None):
                updates["checkpoint_path"] = os.path.join(
                    self.workdir, f"ckpt_{job.job_id}.npz")
            if job.timeout is None and self.default_timeout is not None:
                updates["timeout"] = self.default_timeout
            if self.default_checkpoint_interval is not None:
                updates["checkpoint_interval"] = \
                    self.default_checkpoint_interval
            prepared.append(dataclasses.replace(job, **updates)
                            if updates else job)
        return prepared

    def run(self) -> SweepReport:
        """Run (or resume) the sweep; returns one result per input job,
        in input order, regardless of failures."""
        import time
        t0 = time.perf_counter()
        if self.workdir:
            os.makedirs(self.workdir, exist_ok=True)
        jobs = self._prepare_jobs()
        manifest = self._load_manifest()

        results: Dict[str, SceneResult] = {}
        restored: List[str] = []
        resumed: List[str] = []
        pending: List[SceneJob] = []
        for job in jobs:
            entry = manifest.get(job.job_id)
            if entry and entry.get("status") == "completed":
                rpath = entry.get("result")
                if rpath and os.path.exists(rpath):
                    results[job.job_id] = result_from_npz(rpath)
                    restored.append(job.job_id)
                    continue
            if (job.checkpoint_path
                    and os.path.exists(str(job.checkpoint_path))):
                resumed.append(job.job_id)
            pending.append(job)

        if self.warm and pending:
            orders = sorted({o for j in pending for o in j.scene_orders()})
            if orders:
                # Parent-side warm-up *before* the process pool forks:
                # workers inherit the built tables copy-on-write.
                warm_caches(orders)

        task = SceneTask()
        try:
            for start in range(0, len(pending), self.max_inflight):
                wave = pending[start:start + self.max_inflight]
                for res in self.executor.map(task, wave):
                    results[res.job_id] = res
                    if self.workdir:
                        entry = dict(res.meta_dict())
                        if res.completed:
                            entry["result"] = result_to_npz(
                                res, self._result_path(res.job_id))
                        manifest[res.job_id] = entry
                # Manifest frontier advances once per wave (bounded
                # in-flight => bounded re-run window after a kill).
                self._write_manifest(manifest)
        finally:
            if self._own_executor:
                self.executor.close()

        return SweepReport(
            results=[results[j.job_id] for j in jobs],
            restored=restored, resumed=resumed,
            elapsed=time.perf_counter() - t0)
