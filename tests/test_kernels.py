"""Stokes/Laplace kernel identity tests: the constant-density double-layer
identity and the far-field single-layer limits pin each kernel's sign
convention."""
import numpy as np
import pytest

from repro.kernels import (
    laplace_dlp_apply,
    laplace_dlp_matrix,
    laplace_slp_apply,
    laplace_slp_matrix,
    stokes_dlp_apply,
    stokes_dlp_matrix,
    stokes_pressure_slp_apply,
    stokes_slp_apply,
    stokes_slp_matrix,
)
from repro.surfaces import sphere


@pytest.fixture(scope="module")
def sphere_quad():
    s = sphere(1.0, order=12)
    g = s.geometry()
    w = s.quadrature_weights().ravel()
    pts = s.points
    nrm = g.normal.reshape(-1, 3)
    return pts, w, nrm


class TestLaplace:
    def test_dlp_constant_identity(self, sphere_quad):
        pts, w, nrm = sphere_quad
        inside = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
        outside = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 1.0]])
        vi = laplace_dlp_apply(pts, nrm, w, inside)
        vo = laplace_dlp_apply(pts, nrm, w, outside)
        assert np.allclose(vi, 1.0, atol=1e-6)
        assert np.allclose(vo, 0.0, atol=1e-6)

    def test_slp_exterior_is_point_charge(self, sphere_quad):
        # Constant density on a sphere looks like a point charge outside.
        pts, w, nrm = sphere_quad
        trg = np.array([[3.0, 0.0, 0.0]])
        v = laplace_slp_apply(pts, w, trg)
        total = w.sum()
        assert np.isclose(v[0], total / (4 * np.pi * 3.0), rtol=1e-8)

    def test_matrix_consistent_with_apply(self, rng):
        src = rng.normal(size=(30, 3))
        trg = rng.normal(size=(7, 3)) + 5.0
        n = rng.normal(size=(30, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        q = rng.normal(size=30)
        assert np.allclose(laplace_slp_matrix(src, trg) @ q,
                           laplace_slp_apply(src, q, trg))
        assert np.allclose(laplace_dlp_matrix(src, n, trg) @ q,
                           laplace_dlp_apply(src, n, q, trg))

    def test_self_pair_excluded(self):
        src = np.zeros((1, 3))
        assert laplace_slp_apply(src, np.ones(1), src)[0] == 0.0


class TestStokes:
    def test_dlp_constant_identity(self, sphere_quad):
        pts, w, nrm = sphere_quad
        c = np.array([0.3, -0.5, 0.2])
        den = w[:, None] * np.broadcast_to(c, (len(w), 3))
        vi = stokes_dlp_apply(pts, nrm, den, np.array([[0.2, 0.1, -0.3]]))
        vo = stokes_dlp_apply(pts, nrm, den, np.array([[2.5, 0.0, 0.0]]))
        assert np.allclose(vi[0], c, atol=1e-5)
        assert np.allclose(vo[0], 0.0, atol=1e-5)

    def test_slp_divergence_free(self, rng):
        src = rng.normal(size=(20, 3))
        f = rng.normal(size=(20, 3))
        x0 = np.array([4.0, 1.0, -2.0])
        h = 1e-5
        div = 0.0
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up = stokes_slp_apply(src, f, (x0 + e)[None, :])[0, k]
            dn = stokes_slp_apply(src, f, (x0 - e)[None, :])[0, k]
            div += (up - dn) / (2 * h)
        assert abs(div) < 1e-8

    def test_stokeslet_satisfies_stokes_eq(self, rng):
        # -mu lap u + grad p = 0 away from the source.
        src = np.zeros((1, 3))
        f = np.array([[1.0, 0.5, -0.25]])
        x0 = np.array([1.5, 0.7, -0.3])
        h = 1e-4
        lap = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            lap += (stokes_slp_apply(src, f, (x0 + e)[None])[0]
                    - 2 * stokes_slp_apply(src, f, x0[None])[0]
                    + stokes_slp_apply(src, f, (x0 - e)[None])[0]) / h ** 2
        gradp = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            gradp[k] = (stokes_pressure_slp_apply(src, f, (x0 + e)[None])[0]
                        - stokes_pressure_slp_apply(src, f, (x0 - e)[None])[0]) / (2 * h)
        assert np.allclose(-lap + gradp, 0.0, atol=1e-5)

    def test_matrices_consistent_with_apply(self, rng):
        src = rng.normal(size=(15, 3))
        trg = rng.normal(size=(6, 3)) + 4.0
        n = rng.normal(size=(15, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        f = rng.normal(size=(15, 3))
        u1 = (stokes_slp_matrix(src, trg) @ f.ravel()).reshape(-1, 3)
        assert np.allclose(u1, stokes_slp_apply(src, f, trg))
        u2 = (stokes_dlp_matrix(src, n, trg) @ f.ravel()).reshape(-1, 3)
        assert np.allclose(u2, stokes_dlp_apply(src, n, f, trg))

    def test_source_blocked_path_matches_matrix(self, rng):
        # Above _SRC_CHUNK sources the apply cache-blocks both dimensions;
        # it must agree with the dense matrix to rounding, including
        # coincident pairs that land mid-block (the exact-zero exclusion).
        src = rng.normal(size=(600, 3))
        f = rng.normal(size=(600, 3))
        trg = np.vstack([rng.normal(size=(40, 3)) + 2.0,
                         src[[5, 300, 599]]])
        ref = (stokes_slp_matrix(src, trg) @ f.ravel()).reshape(-1, 3)
        got = stokes_slp_apply(src, f, trg)
        assert np.allclose(got, ref, atol=1e-10)

    def test_source_blocked_equals_single_pass(self, rng):
        import repro.kernels.stokes as ks
        src = rng.normal(size=(700, 3))
        f = rng.normal(size=(700, 3))
        trg = rng.normal(size=(1200, 3)) * 2.0
        blocked = stokes_slp_apply(src, f, trg)
        old = ks._SRC_CHUNK
        try:
            ks._SRC_CHUNK = 10 ** 9   # force the single-pass path
            single = stokes_slp_apply(src, f, trg)
        finally:
            ks._SRC_CHUNK = old
        assert np.allclose(blocked, single, atol=1e-12)

    def test_viscosity_scaling(self, rng):
        src = rng.normal(size=(10, 3))
        f = rng.normal(size=(10, 3))
        trg = rng.normal(size=(4, 3)) + 3.0
        u1 = stokes_slp_apply(src, f, trg, viscosity=1.0)
        u2 = stokes_slp_apply(src, f, trg, viscosity=2.0)
        assert np.allclose(u1, 2 * u2)

    def test_translating_sphere_single_layer(self, sphere_quad):
        # Constant density c on sphere radius a gives u = (2a/3mu) c inside.
        pts, w, nrm = sphere_quad
        c = np.array([1.0, 0.0, 0.0])
        den = w[:, None] * np.broadcast_to(c, (len(w), 3))
        u = stokes_slp_apply(pts, den, np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(u[0], 2.0 / 3.0 * c, rtol=1e-8)


class TestFactoredStresslet:
    """``stokes_dlp_apply`` sums the stresslets through rank-3 GEMMs on
    centred coordinates; the dense matrix forms every displacement."""

    @staticmethod
    def _cloud(rng, ns):
        src = rng.normal(size=(ns, 3)) * [1.6, 1.6, 5.0]
        n = rng.normal(size=(ns, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        return src, n, rng.normal(size=(ns, 3))

    @staticmethod
    def _dense(src, n, phi, trg):
        return (stokes_dlp_matrix(src, n, trg) @ phi.ravel()).reshape(-1, 3)

    # tile boundaries of _SRC_CHUNK = 256 and _TRG_CHUNK_BLOCKED = 512
    @pytest.mark.parametrize("ns", [15, 255, 256, 257, 1176])
    @pytest.mark.parametrize("nt", [64, 511, 513])
    def test_matches_dense_matrix_on_separated_clouds(self, rng, ns, nt):
        src, n, phi = self._cloud(rng, ns)
        trg = rng.normal(size=(nt, 3)) + [12.0, 0.0, 0.0]
        ref = self._dense(src, n, phi, trg)
        got = stokes_dlp_apply(src, n, phi, trg)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_coincident_pairs_contribute_exactly_zero(self, rng):
        src, n, phi = self._cloud(rng, 300)
        for k in (5, 256, 299):                 # both source tiles
            x = src[[k]]
            others = np.delete(np.arange(300), k)
            want = self._dense(src[others], n[others], phi[others], x)
            got = stokes_dlp_apply(src, n, phi, x)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(stokes_dlp_apply(x, n[[k]], phi[[k]], x),
                                  np.zeros((1, 3)))

    def test_pairs_1e_9_apart_match_the_difference_formula(self, rng):
        src, n, phi = self._cloud(rng, 300)
        d = 1e-9 * np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        trg = np.vstack([src[[7, 280]] + d, rng.normal(size=(3, 3))])
        got = stokes_dlp_apply(src, n, phi, trg)
        ref = self._dense(src, n, phi, trg)     # r = x - y, pair by pair
        assert np.isfinite(got).all()
        assert np.abs(ref[:2]).min() > 1e15     # the close pair dominates
        assert (np.abs(got - ref).max(axis=1)
                <= 1e-12 * np.abs(ref).max(axis=1)).all()

    def test_empty_inputs(self):
        z = np.zeros((0, 3))
        assert stokes_dlp_apply(z, z, z, np.ones((2, 3))).tolist() == \
            [[0.0] * 3] * 2
        assert stokes_dlp_apply(np.ones((2, 3)), np.ones((2, 3)),
                                np.ones((2, 3)), z).shape == (0, 3)

    def test_boundary_apply_without_the_dense_matrix(self, small_opts, rng,
                                                     monkeypatch):
        """The matrix-free ``BoundarySolver.apply`` (what a surface too big
        for the cached check-point matrix runs) is this kernel."""
        from repro.bie import BoundarySolver
        from repro.patches import cube_sphere
        s = BoundarySolver(cube_sphere(refine=0, options=small_opts),
                           options=small_opts)
        phi = rng.normal(size=(s.N, 3))
        dense = s.apply(phi)
        monkeypatch.setattr(s, "_maybe_dense", lambda: None)
        free = s.apply(phi)
        assert np.abs(free - dense).max() <= 1e-12 * np.abs(dense).max()
