"""Runtime counterparts of the static passes: the frozen shared-table
registry and the library-hygiene fixes (real errors instead of
asserts)."""
import numpy as np
import pytest

from repro import presets
from repro.analysis import freeze, register_shared, tables_frozen
from repro.config import ReproConfig


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
    def test_presets_roundtrip_through_json(self):
        for factory in presets.ALL.values():
            cfg = factory()
            assert ReproConfig.from_json(cfg.to_json()) == cfg

    def test_closest_point_empty_candidates_raises(self):
        from repro.patches import cube_sphere, surface_closest_point
        s = cube_sphere(refine=0)
        with pytest.raises(RuntimeError, match="candidate"):
            surface_closest_point(s, np.zeros(3), candidates=[])
