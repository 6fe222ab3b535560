"""Polynomial patch, patch surface, closest point and forest tests."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import NumericsOptions
from repro.patches import (
    ChebPatch,
    PatchSurface,
    QuadForest,
    capsule_tube,
    cheb_diff_matrix,
    closest_point_on_patch,
    cube_sphere,
    deformed_sphere,
    surface_closest_point,
    torus_surface,
)


def _poly_patch(n=8):
    def fn(u, v):
        return np.column_stack([u, v, u ** 2 - 0.5 * v ** 3 + u * v])
    return ChebPatch.from_function(fn, n), fn


class TestChebPatch:
    def test_evaluate_reproduces_polynomial(self):
        patch, fn = _poly_patch()
        uv = np.array([[0.3, -0.7], [0.0, 0.0], [1.0, -1.0]])
        assert np.allclose(patch.evaluate(uv), fn(uv[:, 0], uv[:, 1]),
                           atol=1e-12)

    def test_derivatives_fd(self):
        patch, _ = _poly_patch()
        uv = np.array([[0.2, 0.4]])
        X, Xu, Xv, Xuu, Xuv, Xvv = patch.derivatives(uv, second=True)
        h = 1e-6
        fdu = (patch.evaluate(uv + [h, 0]) - patch.evaluate(uv - [h, 0])) / (2 * h)
        fdv = (patch.evaluate(uv + [0, h]) - patch.evaluate(uv - [0, h])) / (2 * h)
        assert np.allclose(Xu, fdu, atol=1e-6)
        assert np.allclose(Xv, fdv, atol=1e-6)
        # exact second derivative of z = u^2 - 0.5 v^3 + uv
        assert np.isclose(Xuu[0, 2], 2.0, atol=1e-10)
        assert np.isclose(Xvv[0, 2], -3.0 * 0.4, atol=1e-9)
        assert np.isclose(Xuv[0, 2], 1.0, atol=1e-10)

    def test_diff_matrix_exact_on_polynomials(self):
        from repro.quadrature.interpolation import chebyshev_lobatto_nodes
        n = 9
        D = cheb_diff_matrix(n)
        x = chebyshev_lobatto_nodes(n)
        f = x ** 4 - 2 * x
        assert np.allclose(D @ f, 4 * x ** 3 - 2, atol=1e-10)

    def test_quadrature_area_flat(self):
        def fn(u, v):
            return np.column_stack([u, v, np.zeros_like(u)])
        patch = ChebPatch.from_function(fn, 7)
        assert np.isclose(patch.area(), 4.0, rtol=1e-12)
        assert np.isclose(patch.size(), 2.0)

    def test_subdivision_exact(self):
        patch, fn = _poly_patch()
        kids = patch.subdivide(2)
        assert len(kids) == 4
        # child 0 covers [-1,0]x[-1,0]: its center = parent (-0.5, -0.5)
        child_center = kids[0].evaluate(np.array([[0.0, 0.0]]))
        parent_val = patch.evaluate(np.array([[-0.5, -0.5]]))
        assert np.allclose(child_center, parent_val, atol=1e-12)
        assert np.isclose(sum(k.area() for k in kids), patch.area(), rtol=1e-4)

    def test_collision_points_corners(self):
        patch, fn = _poly_patch()
        pts = patch.collision_points(5)
        assert pts.shape == (25, 3)
        assert np.allclose(pts[0], fn(np.array([-1.0]), np.array([-1.0]))[0])

    def test_bounding_box_pad(self):
        patch, _ = _poly_patch()
        lo0, hi0 = patch.bounding_box()
        lo1, hi1 = patch.bounding_box(pad=0.5)
        assert np.allclose(lo1, lo0 - 0.5)
        assert np.allclose(hi1, hi0 + 0.5)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ChebPatch(np.zeros((3, 4, 3)))


class TestSurfaces:
    def test_cube_sphere_metrics(self, small_opts):
        s = cube_sphere(refine=1, options=small_opts)
        assert s.n_patches == 24
        assert np.isclose(s.area(), 4 * np.pi, rtol=1e-6)
        assert np.isclose(s.volume(), 4 * np.pi / 3, rtol=1e-6)

    def test_torus_metrics(self, small_opts):
        R, r = 2.0, 0.5
        t = torus_surface(R=R, r=r, options=small_opts)
        assert np.isclose(t.area(), 4 * np.pi ** 2 * R * r, rtol=1e-5)
        assert np.isclose(t.volume(), 2 * np.pi ** 2 * R * r ** 2, rtol=1e-5)

    def test_normals_outward(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        d = s.coarse()
        rad = d.points / np.linalg.norm(d.points, axis=1, keepdims=True)
        assert np.einsum("nk,nk->n", d.normals, rad).min() > 0.9

    def test_refined_preserves_geometry(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        F = QuadForest(s.patches)
        F.refine()
        s4 = PatchSurface(F.patches(), small_opts)
        assert s4.n_patches == 4 * s.n_patches
        assert np.isclose(s4.area(), s.area(), rtol=1e-3)

    def test_fine_discretization_consistent(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        assert np.isclose(s.fine().weights.sum(), s.area(), rtol=1e-3)

    def test_flip_orientation(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        assert np.isclose(s.flip_orientation().volume(), -s.volume())

    def test_capsule_volume_reasonable(self, small_opts):
        # pill of length 8, radius 1: V between cylinder(len 6) + sphere
        cap = capsule_tube(length=8, radius=1, refine=0, options=small_opts)
        assert 15.0 < cap.volume() < 30.0

    def test_patch_sizes_positive(self, small_opts):
        s = deformed_sphere(refine=0, stretch=(1, 1, 2), options=small_opts)
        assert np.all(s.patch_sizes() > 0)

    def test_collision_points_owner(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        pts, owner = s.collision_points(m=5)
        assert pts.shape == (6 * 25, 3)
        assert owner.max() == 5


class TestClosestPoint:
    def test_sphere_analytic(self, small_opts):
        s = cube_sphere(refine=1, options=small_opts)
        for x in ([2.0, 0.3, -0.4], [0.2, 0.1, 0.3], [0.0, -1.7, 0.0]):
            x = np.array(x)
            res = surface_closest_point(s, x)
            expect = abs(np.linalg.norm(x) - 1.0)
            assert abs(res.distance - expect) < 1e-4
            assert np.allclose(res.point, x / np.linalg.norm(x), atol=1e-2)

    def test_torus_analytic(self, small_opts):
        R, r = 2.0, 0.5
        t = torus_surface(R=R, r=r, options=small_opts)
        x = np.array([3.5, 0.0, 0.0])
        res = surface_closest_point(t, x)
        assert abs(res.distance - 1.0) < 1e-8

    def test_patch_level_newton(self):
        patch, _ = _poly_patch()
        # target slightly off an interior surface point along its normal,
        # so the closest point is interior and the gradient vanishes there
        base = patch.evaluate(np.array([[0.25, -0.3]]))[0]
        n = patch.normals(np.array([[0.25, -0.3]]))[0]
        x = base + 0.05 * n
        uv, p, d = closest_point_on_patch(patch, x)
        # gradient orthogonality at an interior minimum
        _, Xu, Xv = patch.derivatives(uv[None, :])
        rvec = p - x
        assert d < 0.051
        assert abs(rvec @ Xu[0]) < 1e-4
        assert abs(rvec @ Xv[0]) < 1e-4

    def test_candidate_restriction(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        x = np.array([2.0, 0.0, 0.0])
        full = surface_closest_point(s, x)
        restricted = surface_closest_point(s, x,
                                           candidates=[full.patch_index])
        assert abs(full.distance - restricted.distance) < 1e-12


def _oracle_closest_points(surface, x, n_candidates=4):
    """The per-target composition the batched search replaced: the
    ``n_candidates`` patches ranked by nearest coarse node, the scalar
    ``closest_point_on_patch`` on each. Returns ``{patch: (point,
    distance, normal)}`` in candidate order and the winning patch (first
    strict minimum)."""
    d = surface.coarse()
    d2 = np.einsum("nk,nk->n", d.points - x, d.points - x)
    found = {}
    for idx in np.argsort(d2):
        pid = int(d.patch_of[idx])
        if pid not in found:
            uv, p, dist = closest_point_on_patch(surface.patches[pid], x)
            found[pid] = (p, dist,
                          surface.patches[pid].normals(uv[None, :])[0])
        if len(found) >= n_candidates:
            break
    return found, min(found, key=lambda pid: found[pid][1])


_BATCH_OPTS = NumericsOptions(patch_quad=7, check_order=5, upsample_eta=1,
                              check_r_factor=0.2)
_BATCH_SURFACES = {
    "cube_sphere": cube_sphere(refine=1, options=_BATCH_OPTS),
    "torus": torus_surface(R=2.0, r=0.5, options=_BATCH_OPTS),
    "capsule_tube": capsule_tube(length=10.0, radius=1.6, refine=0,
                                 options=_BATCH_OPTS),
}


def _inside(surface, draws):
    """Interior targets with a unique closest point: each draw ``(patch
    fraction, u, v, depth)`` is a surface point pushed ``depth`` (below
    every radius of curvature of the three surfaces) along the inward
    normal."""
    out = []
    for frac, u, v, depth in draws:
        patch = surface.patches[min(int(frac * surface.n_patches),
                                    surface.n_patches - 1)]
        uv = np.array([[u, v]])
        out.append(patch.evaluate(uv)[0] - depth * patch.normals(uv)[0])
    return np.array(out)


_DRAW = st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                  st.floats(-1.0, 1.0), st.floats(0.02, 0.3))


class TestBatchedClosestPoint:
    # The explicit draw has its minimizer on a patch edge: an oracle that
    # stops on objective noise ends 4.2e-10 short on the neighbouring patch.
    @pytest.mark.parametrize("name", sorted(_BATCH_SURFACES))
    @settings(max_examples=15, deadline=None)
    @given(draws=st.lists(_DRAW, min_size=1, max_size=6))
    @example(draws=[(0.0, 0.5, -1.0, 0.25)])
    def test_batch_matches_per_target_oracle(self, name, draws):
        surface = _BATCH_SURFACES[name]
        x = _inside(surface, draws)
        res = surface_closest_point(surface, x)
        assert res.patch_index.shape == (len(x),)
        assert res.uv.shape == (len(x), 2)
        for i, xi in enumerate(x):
            found, winner = _oracle_closest_points(surface, xi)
            pid = int(res.patch_index[i])
            # Another owner only on an exact tie: a minimizer on an edge
            # two patches share, or mirror-image minimizers either side
            # of it. Which one wins that is rounding.
            assert pid == winner or \
                abs(found[pid][1] - found[winner][1]) < 1e-12
            p, dist, nrm = found[pid]
            assert np.abs(res.point[i] - p).max() < 1e-7
            assert np.abs(res.normal[i] - nrm).max() < 1e-7
            assert abs(res.distance[i] - dist) < 1e-7
            assert res.patch_size[i] == surface.patch_sizes()[pid]

    def test_point_query_returns_scalar_fields(self):
        surface = _BATCH_SURFACES["cube_sphere"]
        x = np.array([0.3, -0.2, 0.4])
        one = surface_closest_point(surface, x)
        row = surface_closest_point(surface, x[None, :])
        assert isinstance(one.patch_index, int)
        assert isinstance(one.distance, float)
        assert isinstance(one.patch_size, float)
        assert one.uv.shape == (2,) and one.point.shape == (3,)
        assert one.normal.shape == (3,)
        assert one.patch_index == row.patch_index[0]
        assert np.array_equal(one.point, row.point[0])

    def test_blocks_do_not_change_results(self, monkeypatch):
        """Targets are processed in memory-bounded blocks; a block size of
        one target must give the same answers as one block."""
        from repro.patches import closest_point, surface as surface_mod
        surface = _BATCH_SURFACES["capsule_tube"]
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 3)) * [1, 1, 3]
        whole = surface_closest_point(surface, x)
        monkeypatch.setattr(closest_point, "_GATHER_BUDGET", 1)
        monkeypatch.setattr(surface_mod, "_DIST_PAIR_BUDGET", 1)
        split = surface_closest_point(surface, x)
        assert np.array_equal(whole.patch_index, split.patch_index)
        assert np.abs(whole.point - split.point).max() < 1e-12

    def test_empty_candidates_raise_for_a_batch(self):
        surface = _BATCH_SURFACES["cube_sphere"]
        with pytest.raises(RuntimeError, match="candidate"):
            surface_closest_point(surface, np.zeros((3, 3)), candidates=[])

    def test_mixed_patch_orders_rejected(self):
        surface = _BATCH_SURFACES["cube_sphere"]
        odd = ChebPatch(surface.patches[0].subdivide(1)[0].values[:5, :5])
        mixed = PatchSurface([surface.patches[0], odd], _BATCH_OPTS)
        with pytest.raises(ValueError, match="one order"):
            surface_closest_point(mixed, np.zeros(3))

    def test_patch_tables_are_frozen(self):
        surface = _BATCH_SURFACES["cube_sphere"]
        patch = surface.patches[0]
        arrays = (patch.values, patch.derivative_table(),
                  *surface.newton_tables())
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            patch.values[0, 0, 0] = 1.0
        # the caller's array stays its own
        vals = np.zeros((4, 4, 3))
        ChebPatch(vals)
        assert vals.flags.writeable


class TestClosestPointConverges:
    """Truth, not route against route, on the ``vessel_capsule2`` bench
    scene: two order-3 RBCs in the capsule, every cell point against its
    four candidate patches."""

    @pytest.fixture(scope="class")
    def scene(self):
        from repro.surfaces import biconcave_rbc
        vessel = _BATCH_SURFACES["capsule_tube"]    # the bench capsule
        x = np.concatenate([biconcave_rbc(0.9, center=c, order=3).points
                            for c in [(0.0, 0.0, -2.4), (0.0, 0.0, 2.4)]])
        return vessel, x

    def test_every_pair_ends_at_a_kkt_point(self, scene):
        from repro.patches.closest_point import _newton_pairs
        vessel, x = scene
        pid = vessel.nearest_patches(x, 4)[0]
        tables, seed_uv, seed_pts = vessel.newton_tables()
        diff = seed_pts[pid] - x[:, None, None, :]
        seed = np.einsum("tpnk,tpnk->tpn", diff, diff).argmin(axis=2)
        xp = np.repeat(x, 4, axis=0)
        uv, point, _ = _newton_pairs(tables, pid.ravel(), xp,
                                     seed_uv[seed.ravel()].copy())
        assert len(uv) == 256
        g = np.empty((256, 2))
        misalignment = np.empty((256, 2))
        for i, (p, uvi) in enumerate(zip(pid.ravel(), uv)):
            P, Xu, Xv = vessel.patches[p].derivatives(uvi[None, :])
            assert np.abs(P[0] - point[i]).max() < 1e-13
            r = P[0] - xp[i]
            g[i] = r @ Xu[0], r @ Xv[0]
            misalignment[i] = np.abs(g[i]) / (
                np.linalg.norm([Xu[0], Xv[0]], axis=1) * np.linalg.norm(r))
        clamped = np.abs(uv) == 1.0
        assert 100 < clamped.any(axis=1).sum() < 256   # edges are exercised
        # stationary in every free parameter ...
        assert misalignment[~clamped].max() <= 1e-12
        # ... and on a bound only where the objective falls outward.
        assert (uv * g)[clamped].max() <= 0.0

    def test_few_interpolation_matrices(self, scene, monkeypatch):
        from repro.patches import closest_point
        vessel, x = scene
        calls = []
        interp = closest_point.interp_matrix_2d

        def counting(n, uv):
            calls.append(len(uv))
            return interp(n, uv)

        monkeypatch.setattr(closest_point, "interp_matrix_2d", counting)
        surface_closest_point(vessel, x)
        assert len(calls) <= 25

    def test_no_farther_than_a_fine_sampling(self, scene):
        vessel, _ = scene
        x = np.random.default_rng(1).uniform(-1, 1, (400, 3)) * [1.5, 1.5, 4.8]
        x = x[(x[:, 0] / 1.6) ** 2 + (x[:, 1] / 1.6) ** 2
              + (x[:, 2] / 5) ** 2 < 0.98]
        assert len(x) == 244
        t = np.linspace(-1.0, 1.0, 201)
        U, V = np.meshgrid(t, t, indexing="ij")
        uv = np.column_stack([U.ravel(), V.ravel()])
        sampled = np.full(len(x), np.inf)
        for patch in vessel.patches:
            pts = patch.evaluate(uv)
            for a in range(0, len(x), 16):
                d = np.linalg.norm(pts[None, :, :] - x[a:a + 16, None, :],
                                   axis=2).min(axis=1)
                sampled[a:a + 16] = np.minimum(sampled[a:a + 16], d)
        found = surface_closest_point(vessel, x).distance
        assert (found - sampled).max() <= 1e-9


class TestForest:
    def test_refine_all(self, small_opts):
        F = QuadForest(cube_sphere(refine=0, options=small_opts).patches)
        assert F.n_leaves == 6
        F.refine()
        assert F.n_leaves == 24
        assert {n.level for n in F.leaves} == {1}

    def test_selective_refine(self, small_opts):
        F = QuadForest(cube_sphere(refine=0, options=small_opts).patches)
        n = F.refine(lambda node: node.tree == 0)
        assert n == 1
        assert F.n_leaves == 9

    def test_morton_order_stable(self, small_opts):
        F = QuadForest(cube_sphere(refine=0, options=small_opts).patches)
        F.refine()
        keys = [n.morton_key() for n in F.leaves]
        assert keys == sorted(keys)

    def test_total_area_preserved_under_refinement(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        F = QuadForest(s.patches)
        F.refine()
        area = sum(p.area() for p in F.patches())
        assert np.isclose(area, s.area(), rtol=1e-3)
