"""The CellBatch execution layer: pluggable executors and the
structure-of-arrays batching of per-cell stages."""
import numpy as np
import pytest

from repro.config import NumericsOptions, ReproConfig
from repro.core.cellbatch import CellBatch
from repro.core.simulation import Simulation
from repro.physics.terms import Bending, Gravity, Tension
from repro.runtime.executor import (EXECUTORS, ProcessPoolExecutor,
                                    ProcessTask, SerialExecutor,
                                    ThreadPoolExecutor, make_executor,
                                    resolve_workers)
from repro.surfaces import biconcave_rbc, ellipsoid
from repro.vesicle import SingularSelfInteraction


def _scene(ncells=2, order=6, orders=None, backend="direct", **numopts):
    orders = orders or [order] * ncells
    cells = [biconcave_rbc(1.0, center=(2.4 * i, 0.0, 0.15 * (-1.0) ** i),
                           order=p) for i, p in enumerate(orders)]
    cfg = ReproConfig(dt=0.05,
                      forces=[Bending(0.01), Tension(),
                              Gravity(0.5, (0.0, 0.0, -1.0))],
                      backend=backend, with_collisions=True,
                      numerics=NumericsOptions(**numopts))
    return Simulation(cells, config=cfg)


def _max_dev(a, b):
    return max(np.abs(x.X - y.X).max() for x, y in zip(a.cells, b.cells))


class TestExecutors:
    def test_registry_and_factory(self):
        assert set(EXECUTORS) >= {"serial", "thread"}
        ex = make_executor("thread", workers=3)
        assert isinstance(ex, ThreadPoolExecutor) and ex.workers == 3
        with pytest.raises(ValueError):
            make_executor("gpu")
        with pytest.raises(ValueError):
            make_executor("thread", workers=0)

    def test_maps_preserve_order(self):
        items = list(range(20))
        fn = lambda x: x * x
        serial = SerialExecutor().map(fn, items)
        pool = ThreadPoolExecutor(workers=4)
        try:
            assert pool.map(fn, items) == serial == [x * x for x in items]
        finally:
            pool.close()

    def test_thread_map_propagates_exceptions(self):
        pool = ThreadPoolExecutor(workers=2)

        def boom(x):
            if x == 3:
                raise RuntimeError("task 3 failed")
            return x

        try:
            with pytest.raises(RuntimeError, match="task 3"):
                pool.map(boom, range(6))
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = ThreadPoolExecutor(workers=2)
        pool.map(lambda x: x, range(4))
        pool.close()
        pool.close()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="executor"):
            ReproConfig(numerics=NumericsOptions(executor="gpu"))
        with pytest.raises(ValueError, match="workers"):
            ReproConfig(numerics=NumericsOptions(workers=0))
        cfg = ReproConfig(numerics=NumericsOptions(
            executor="thread", workers=2))
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg


class TestCellBatch:
    def test_groups_by_order(self):
        cells = [ellipsoid(1.0, 1.0, 1.2, order=4),
                 biconcave_rbc(1.0, order=6),
                 ellipsoid(1.0, 1.1, 0.9, order=4)]
        batch = CellBatch(cells)
        assert not batch.homogeneous
        assert batch.groups == [(4, [0, 2]), (6, [1])]
        assert CellBatch(cells[:1]).homogeneous
        stacked = batch.stacked_positions()
        assert stacked[4].shape == (2, 5, 10, 3)

    def test_seed_coeffs_matches_per_cell_forward(self):
        cells = [biconcave_rbc(1.0, center=(2.4 * i, 0, 0), order=6)
                 for i in range(3)] + [ellipsoid(1.0, 1.2, 0.8, order=4)]
        ref = [c.coeffs().copy() for c in
               [biconcave_rbc(1.0, center=(2.4 * i, 0, 0), order=6)
                for i in range(3)] + [ellipsoid(1.0, 1.2, 0.8, order=4)]]
        batch = CellBatch(cells)
        batch.seed_coeffs()
        for c, r in zip(cells, ref):
            assert c._coeffs is not None
            scale = np.abs(r).max()
            assert np.abs(c.coeffs() - r).max() <= 1e-12 * scale

    def test_seed_coeffs_validates_shape(self):
        s = ellipsoid(1.0, 1.0, 1.2, order=4)
        with pytest.raises(ValueError):
            s.seed_coeffs(np.zeros((3, 4, 9)))

    def test_apply_matrices_matches_per_cell(self):
        """The stacked-GEMM homogeneous path equals per-cell GEMVs."""
        rng = np.random.default_rng(11)
        cells = [biconcave_rbc(1.0, center=(2.4 * i, 0, 0), order=5)
                 for i in range(3)] + [ellipsoid(1.0, 1.2, 0.8, order=4)]
        ops = [SingularSelfInteraction(c) for c in cells]
        vecs = [rng.standard_normal(3 * c.n_points) for c in cells]
        batch = CellBatch(cells)
        got = batch.apply_matrices([op.matrix for op in ops], vecs)
        for op, v, g in zip(ops, vecs, got):
            ref = op.matrix @ v
            assert np.abs(g - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_apply_matrices_identity_passthrough(self):
        cells = [ellipsoid(1.0, 1.0, 1.2, order=4) for _ in range(2)]
        batch = CellBatch(cells)
        vecs = [np.arange(3.0 * c.n_points) for c in cells]
        M = np.eye(3 * cells[0].n_points) * 2.0
        out = batch.apply_matrices([None, M], vecs)
        assert np.array_equal(out[0], vecs[0])
        assert np.allclose(out[1], 2.0 * vecs[1])

    def test_apply_matrices_rejects_length_mismatch(self):
        batch = CellBatch([ellipsoid(1.0, 1.0, 1.2, order=4)])
        with pytest.raises(ValueError):
            batch.apply_matrices([], [np.zeros(3)])


class TestExecutorEquivalence:
    def test_threaded_bit_identical_on_reference_scene(self):
        """Acceptance: the threaded executor is bit-identical to serial
        on the 6-cell order-8 scene over 5 steps."""
        serial = _scene(ncells=6, order=8)
        threaded = _scene(ncells=6, order=8, executor="thread", workers=4)
        serial.run(5)
        threaded.run(5)
        assert _max_dev(serial, threaded) == 0.0
        assert [r.implicit_iterations for r in serial.history] == \
            [r.implicit_iterations for r in threaded.history]

    def test_single_worker_threadpool_matches_serial(self):
        serial = _scene()
        pool1 = _scene(executor="thread", workers=1)
        serial.run(3)
        pool1.run(3)
        assert _max_dev(serial, pool1) == 0.0

    def test_mixed_order_scene_grouping(self):
        """Heterogeneous scenes group by order (two stacked GEMMs) and
        stay deterministic under threading."""
        serial = _scene(ncells=3, orders=[6, 5, 6])
        assert serial.stepper.batch.groups == [(5, [1]), (6, [0, 2])]
        threaded = _scene(ncells=3, orders=[6, 5, 6],
                          executor="thread", workers=3)
        serial.run(3)
        threaded.run(3)
        assert _max_dev(serial, threaded) == 0.0

    def test_fmm_backend_threaded_matches_serial(self):
        cells = [biconcave_rbc(1.0, center=(2.4 * i, 0.0, 0.0), order=5)
                 for i in range(3)]
        cfg = dict(dt=0.05, forces=[Bending(0.01)], backend="fmm",
                   with_collisions=False)
        a = Simulation([c.translated(0) for c in cells],
                       config=ReproConfig(**cfg))
        b = Simulation([c.translated(0) for c in cells],
                       config=ReproConfig(
                           **cfg, numerics=NumericsOptions(
                               executor="thread", workers=2)))
        a.run(2)
        b.run(2)
        assert _max_dev(a, b) == 0.0


class TestFarfieldFloat32:
    """The kernel's single-precision path; no solver route uses it, but
    the float32 SLP probe still times it."""

    def test_degenerate_cloud_stays_finite(self):
        """A single source coincident with the target must give exactly
        zero in float32 too (the inv_r^3 overflow guard)."""
        from repro.kernels import stokes_slp_apply
        p = np.array([[1.0, 1.0, 1.0]])
        den = np.array([[1.0, 0.0, 0.0]])
        out = stokes_slp_apply(p, den, p, dtype="float32")
        assert np.array_equal(out, np.zeros((1, 3)))


class TestCheckedExecutor:
    def test_registry_and_inner_selection(self):
        from repro.runtime.executor import CheckedExecutor
        assert "checked" in EXECUTORS
        ex1 = make_executor("checked", workers=1)
        assert isinstance(ex1, CheckedExecutor)
        assert isinstance(ex1.inner, SerialExecutor)
        ex4 = make_executor("checked", workers=4)
        assert isinstance(ex4.inner, ThreadPoolExecutor)
        assert ex4.inner.workers == 4
        ex4.close()

    def test_plain_map_matches_serial(self):
        ex = make_executor("checked", workers=2)
        try:
            assert ex.map(lambda x: x * x, range(10)) == \
                [x * x for x in range(10)]
        finally:
            ex.close()

    def test_bit_identical_on_reference_scene(self):
        """Acceptance: the checked executor completes the 6-cell order-8
        scene bit-identically to serial — the verifying wrapper (frozen
        tables + sampled re-runs) must not perturb the physics."""
        serial = _scene(ncells=6, order=8)
        checked = _scene(ncells=6, order=8, executor="checked", workers=4)
        serial.run(3)
        checked.run(3)
        assert _max_dev(serial, checked) == 0.0
        assert [r.implicit_iterations for r in serial.history] == \
            [r.implicit_iterations for r in checked.history]

    def test_detects_shared_cache_write(self):
        """A task scribbling on a registered shared table raises
        DeterminismError instead of silently corrupting other cells."""
        from repro.analysis.guard import DeterminismError, register_shared
        shared = register_shared(np.zeros(8))

        def task(i):
            shared[0] += i          # cross-task accumulator: forbidden
            return i

        ex = make_executor("checked", workers=1)
        try:
            with pytest.raises(DeterminismError, match="frozen shared"):
                ex.map(task, range(4))
        finally:
            ex.close()
        assert shared.flags.writeable       # restored despite the raise
        assert shared[0] == 0.0             # nothing leaked through

    def test_detects_nondeterministic_task(self):
        """A task whose output depends on call count fails the sampled
        re-run check."""
        from repro.analysis.guard import DeterminismError
        state = {"n": 0}

        def task(i):
            state["n"] += 1
            return np.array([float(state["n"])])

        ex = make_executor("checked", workers=1)
        try:
            with pytest.raises(DeterminismError, match="not deterministic"):
                ex.map(task, range(4))
        finally:
            ex.close()

    def test_none_results_not_rerun(self):
        """Stateful mutators returning None (e.g. _refresh_after_step)
        are exempt from the re-run sample: re-running them would advance
        their internal counters."""
        calls = []

        def task(i):
            calls.append(i)
            return None

        ex = make_executor("checked", workers=1)
        try:
            assert ex.map(task, range(4)) == [None] * 4
        finally:
            ex.close()
        assert calls == [0, 1, 2, 3]        # exactly once each


class _Square(ProcessTask):
    """Module-level ProcessTask fixture (workers unpickle by module path)."""

    def __call__(self, x):
        return x * x


class _Boom(ProcessTask):
    def __call__(self, x):
        if x == 3:
            raise RuntimeError("task 3 failed")
        return x


class TestProcessExecutor:
    def test_registry_and_factory(self):
        assert "process" in EXECUTORS
        ex = make_executor("process", workers=2)
        assert isinstance(ex, ProcessPoolExecutor) and ex.workers == 2
        ex.close()

    def test_auto_worker_resolution(self):
        import os
        cores = os.cpu_count() or 1
        assert resolve_workers("auto", 4) == max(1, min(cores, 4))
        assert resolve_workers("auto", 1) == 1   # never more workers than items
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)
        cfg = ReproConfig(numerics=NumericsOptions(
            executor="thread", workers="auto"))
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg

    def test_closures_run_inline_without_pool(self):
        """Non-ProcessTask callables keep serial semantics: they run on
        the calling thread and no worker pool is ever created."""
        ex = ProcessPoolExecutor(workers=2)
        try:
            got = ex.map(lambda x: x * x, range(8))
            assert got == [x * x for x in range(8)]
            assert ex._pool is None
        finally:
            ex.close()

    def test_process_task_dispatch_preserves_order(self):
        ex = ProcessPoolExecutor(workers=2)
        try:
            got = ex.map(_Square(), list(range(12)))
            assert got == [x * x for x in range(12)]
            assert ex._pool is not None     # really crossed the boundary
        finally:
            ex.close()

    def test_process_map_propagates_exceptions(self):
        ex = ProcessPoolExecutor(workers=2)
        try:
            with pytest.raises(RuntimeError, match="task 3"):
                ex.map(_Boom(), list(range(6)))
        finally:
            ex.close()

    def test_close_is_idempotent_and_reopens(self):
        ex = ProcessPoolExecutor(workers=2)
        assert ex.map(_Square(), [1, 2]) == [1, 4]
        ex.close()
        ex.close()
        assert ex.map(_Square(), [3, 4]) == [9, 16]
        ex.close()


class TestThreadPoolLifecycle:
    def test_concurrent_first_map_creates_one_pool(self, monkeypatch):
        """N threads hitting a fresh executor's map() simultaneously must
        agree on a single pool — the lazy _ensure_pool is locked."""
        import concurrent.futures as futures
        import threading

        real = futures.ThreadPoolExecutor
        created = []

        class CountingPool(real):
            def __init__(self, *a, **kw):
                created.append(1)
                super().__init__(*a, **kw)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", CountingPool)
        ex = ThreadPoolExecutor(workers=2)
        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n

        def hammer(k):
            barrier.wait()
            results[k] = ex.map(lambda x: x + k, range(4))

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ex.close()
        assert len(created) == 1
        assert all(results[k] == [x + k for x in range(4)]
                   for k in range(n))

    def test_close_is_idempotent_and_reopens(self):
        ex = ThreadPoolExecutor(workers=2)
        assert ex.map(lambda x: x, range(4)) == [0, 1, 2, 3]
        ex.close()
        ex.close()                           # second close is a no-op
        # a map after close lazily builds a fresh pool
        assert ex.map(lambda x: x * 2, range(4)) == [0, 2, 4, 6]
        ex.close()

    def test_map_racing_close(self):
        """close() during concurrent maps never deadlocks or drops
        results; maps either reuse the old pool or build a new one."""
        import threading
        ex = ThreadPoolExecutor(workers=2)
        stop = threading.Event()
        errors = []

        def mapper():
            while not stop.is_set():
                try:
                    out = ex.map(lambda x: x * x, range(8))
                    assert out == [x * x for x in range(8)]
                except Exception as e:      # pragma: no cover
                    errors.append(e)
                    return

        threads = [threading.Thread(target=mapper) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(20):
            ex.close()
        stop.set()
        for t in threads:
            t.join()
        ex.close()
        assert errors == []
