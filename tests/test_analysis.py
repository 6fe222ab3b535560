"""Runtime counterparts of the static passes: the ``@checked`` array
contracts, the frozen shared-table registry, and the library-hygiene
fixes (real errors instead of asserts)."""
import numpy as np
import pytest

from repro import presets
from repro.analysis import (ContractViolation, checked, checks_enabled,
                            debug_checks, freeze, register_shared,
                            tables_frozen)
from repro.analysis.contracts import parse_spec
from repro.config import NumericsOptions, ReproConfig
from repro.surfaces import biconcave_rbc


class TestSpecParsing:
    def test_shapes_and_dtypes(self):
        shape, dtype = parse_spec("(n, 3) f8")
        assert shape == ("n", 3) and dtype == np.dtype("f8")
        shape, dtype = parse_spec("(3*N,) f8")
        assert shape == ((3, "N"),)
        shape, dtype = parse_spec("(..., nlat, nphi)")
        assert shape[0] is Ellipsis and dtype is None
        shape, dtype = parse_spec("c16")
        assert shape is None and dtype == np.dtype("c16")

    def test_rejects_malformed(self):
        with pytest.raises((TypeError, ValueError, SyntaxError)):
            parse_spec("(n,3")              # unclosed: read as a dtype
        with pytest.raises(TypeError):
            parse_spec("(n, 3) nosuchdtype")
        with pytest.raises(ValueError):
            parse_spec("(n, ..., 3) f8")     # ellipsis must lead

    def test_decoration_validates_parameter_names(self):
        with pytest.raises(TypeError):
            @checked(nosucharg="(n,) f8")
            def f(x):
                return x


class TestCheckedDecorator:
    def test_zero_cost_by_default(self):
        calls = []

        @checked(x="(n, 3) f8", out="(n,) f8")
        def f(x):
            calls.append(1)
            return np.zeros(2)               # wrong n — never checked

        assert not checks_enabled()
        f(np.zeros((5, 3)))                  # silent: checks are off
        assert calls == [1]

    def test_symbol_binding_across_args(self):
        @checked(a="(n, 3) f8", b="(n,) f8", out="(3*n,) f8")
        def f(a, b):
            return np.zeros(3 * a.shape[0])

        with debug_checks():
            f(np.zeros((4, 3)), np.zeros(4))
            with pytest.raises(ContractViolation, match="b has shape"):
                f(np.zeros((4, 3)), np.zeros(5))

    def test_none_arguments_are_skipped(self):
        @checked(a="(n,) f8")
        def f(a=None):
            return 0.0

        with debug_checks():
            f(None)

    def test_scoped_toggle_restores(self):
        assert not checks_enabled()
        with debug_checks():
            assert checks_enabled()
            with debug_checks(False):
                assert not checks_enabled()
            assert checks_enabled()
        assert not checks_enabled()


class TestSeamContracts:
    """Each ``@checked`` seam raises on a violating call when debug
    checks are on (and is silent when they are off)."""

    def test_stokes_slp_apply(self):
        from repro.kernels import stokes_slp_apply
        src = np.zeros((5, 3))
        bad_density = np.zeros((5, 2))
        stokes_slp_apply(src, bad_density[:, [0, 0, 1]], src)  # fine, off
        with debug_checks():
            with pytest.raises(ContractViolation, match="weighted_density"):
                stokes_slp_apply(src, bad_density, src)

    def test_stacked_lu_solve(self):
        from repro.linalg import StackedLUFactorization
        lu = StackedLUFactorization(np.stack([np.eye(3)] * 2))
        with debug_checks():
            assert lu.solve(np.ones((2, 3))).shape == (2, 3)
            with pytest.raises(ContractViolation, match="rhs"):
                lu.solve(np.ones((2, 3, 4)))

    def test_sht_forward(self):
        from repro.sph import get_transform
        T = get_transform(4)
        with debug_checks():
            c = T.forward(np.ones((T.grid.nlat, T.grid.nphi)))
            assert c.dtype == np.dtype("c16")
            with pytest.raises(ContractViolation, match="f"):
                T.forward(np.ones(7))

    def test_surface_operator_matrices(self):
        s = biconcave_rbc(1.0, order=4)
        n = s.n_points
        with debug_checks():
            assert s.surface_gradient_matrix().shape == (3 * n, n)
            assert s.surface_divergence_matrix().shape == (n, 3 * n)
            assert s.laplace_beltrami_matrix().shape == (n, n)
            # Break the cached table: the out contract must catch it.
            s._dense_ops = {"grad": np.zeros((3, 3)),
                            "div": np.zeros((3, 3)),
                            "lb": np.zeros((3, 3))}
            with pytest.raises(ContractViolation, match="return value"):
                s.surface_gradient_matrix()

    def test_config_wires_debug_checks(self):
        from repro.analysis.contracts import set_debug_checks
        from repro.core.simulation import Simulation
        cfg = ReproConfig(forces=[], with_collisions=False,
                          numerics=NumericsOptions(debug_checks=True))
        assert not checks_enabled()
        try:
            Simulation([biconcave_rbc(1.0, order=4)], config=cfg)
            assert checks_enabled()
        finally:
            set_debug_checks(False)


class TestFrozenTables:
    """Every lru_cache'd numpy table is read-only: in-place mutation of a
    shared cache entry must raise instead of corrupting other users."""

    def _entries(self):
        from repro.collision.mesh import (_grid_triangulation,
                                          _patch_triangulation)
        from repro.fmm.kifmm import _cube_surface
        from repro.patches.patch import _sub_interp_matrix, cheb_diff_matrix
        from repro.quadrature.clenshaw_curtis import _cc_cached
        from repro.quadrature.gauss_legendre import _gl_cached
        from repro.quadrature.interpolation import _bary_weights_cached
        from repro.sph.grid import get_grid
        from repro.sph.transform import _transform_tables
        from repro.surfaces.spectral_surface import (_grid_operator_matrices,
                                                     bandlimit_projector)
        from repro.vesicle.self_interaction import _rotation_tables
        yield _gl_cached(8)[0]
        yield _cc_cached(7)[1]
        yield _bary_weights_cached(9)
        yield cheb_diff_matrix(7)
        yield _sub_interp_matrix(7, 2)[0]
        yield _cube_surface(4)
        yield _grid_triangulation(5, 10)
        yield _patch_triangulation(6)
        yield get_grid(6).weights
        yield get_grid(6).cos_theta
        yield _transform_tables(4).P
        yield _grid_operator_matrices(4, 6)["up_theta"]
        yield bandlimit_projector(4)
        yield _rotation_tables(4, 6).B_val
        yield _rotation_tables(4, 6).weights

    def test_all_cached_tables_are_read_only(self):
        count = 0
        for arr in self._entries():
            assert isinstance(arr, np.ndarray)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0
            count += 1
        assert count == 15

    def test_lazy_selfop_tables_are_read_only(self):
        from repro.vesicle.self_interaction import _rotation_tables
        tb = _rotation_tables(4, 6)
        ct = tb.circulant_tables()
        for key in ("Ec_even", "Ec_odd", "Ci", "Einv_cos"):
            assert not ct[key].flags.writeable
        assert all(not s.flags.writeable for s in ct["syn"])

    def test_public_quadrature_still_returns_writable_copies(self):
        from repro.quadrature import clenshaw_curtis, gauss_legendre
        x, w = gauss_legendre(8)
        x[0] = -2.0                          # callers own their copies
        x2, _ = gauss_legendre(8)
        assert x2[0] != -2.0
        xc, wc = clenshaw_curtis(7)
        wc *= 2.0

    def test_tables_frozen_context(self):
        arr = register_shared(np.zeros(4))
        assert arr.flags.writeable
        with tables_frozen():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert arr.flags.writeable           # restored on exit

    def test_freeze_passthrough(self):
        a, b = freeze(np.zeros(2), np.ones(2))
        assert not a.flags.writeable and not b.flags.writeable
        assert freeze("not-an-array") == "not-an-array"


class TestLibraryErrors:
    def test_ensure_roundtrip_passes_for_all_presets(self):
        for name, factory in presets.ALL.items():
            cfg = factory()
            assert presets.ensure_roundtrip(cfg) == cfg

    def test_ensure_roundtrip_reports_failing_field(self, monkeypatch):
        import dataclasses
        cfg = presets.relaxation()

        class BrokenConfig:
            @staticmethod
            def from_json(_):
                return dataclasses.replace(cfg, dt=cfg.dt + 1.0)

        monkeypatch.setattr(presets, "ReproConfig", BrokenConfig)
        with pytest.raises(ValueError, match=r"dt: 0\.05"):
            presets.ensure_roundtrip(cfg)

    def test_closest_point_empty_candidates_raises(self):
        from repro.patches import cube_sphere, surface_closest_point
        s = cube_sphere(refine=0)
        with pytest.raises(RuntimeError, match="candidate"):
            surface_closest_point(s, np.zeros(3), candidates=[])
