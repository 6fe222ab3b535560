"""Singular self-interaction and near-singular cell evaluation tests."""
import numpy as np
import pytest

from repro.kernels import stokes_slp_apply
from repro.sph import SHTransform
from repro.surfaces import ellipsoid, sphere
from repro.vesicle import (CellNearEvaluator, SingularSelfInteraction,
                           near_singular)


class TestSingularSelfInteraction:
    def test_constant_density_sphere_identity(self):
        a, mu = 1.3, 2.0
        s = sphere(a, order=8)
        op = SingularSelfInteraction(s, viscosity=mu)
        c = np.array([0.3, -0.2, 0.7])
        den = np.broadcast_to(c, (s.grid.nlat, s.grid.nphi, 3)).copy()
        u = op.apply(den)
        expect = 2 * a / (3 * mu) * c
        assert np.abs(u - expect).max() < 1e-4

    def test_spectral_convergence_with_order(self):
        # Reference: high-order solve on the same ellipsoid with a smooth
        # non-constant density; coarser orders must converge toward it.
        def dens(s):
            return np.stack([np.sin(s.X[:, :, 0]), s.X[:, :, 1] ** 2,
                             s.X[:, :, 2]], axis=-1)
        ref_s = ellipsoid(1.0, 1.2, 0.9, order=16)
        u_ref = SingularSelfInteraction(ref_s).apply(dens(ref_s))
        Tref = SHTransform(16)
        errs = []
        for p in (6, 10):
            s = ellipsoid(1.0, 1.2, 0.9, order=p)
            u = SingularSelfInteraction(s).apply(dens(s))
            ref_on_p = np.stack([
                Tref.resample(Tref.forward(u_ref[:, :, k]), p)
                for k in range(3)], axis=-1)
            errs.append(np.abs(u - ref_on_p).max())
        assert errs[1] < errs[0] * 0.5

    def test_agreement_across_orders_on_ellipsoid(self):
        def dens(s):
            return np.stack([s.X[:, :, 0] ** 2, s.X[:, :, 1],
                             np.ones_like(s.X[:, :, 0])], axis=-1)
        e8 = ellipsoid(1.0, 1.2, 0.9, order=8)
        e14 = ellipsoid(1.0, 1.2, 0.9, order=14)
        u8 = SingularSelfInteraction(e8).apply(dens(e8))
        u14 = SingularSelfInteraction(e14).apply(dens(e14))
        T = SHTransform(14)
        u14_on8 = np.stack([T.resample(T.forward(u14[:, :, k]), 8)
                            for k in range(3)], axis=-1)
        assert np.abs(u8 - u14_on8).max() < 5e-4

    def test_refresh_tracks_moving_surface(self):
        s = sphere(1.0, order=6)
        op = SingularSelfInteraction(s)
        den = np.broadcast_to([1.0, 0, 0], (7, 14, 3)).copy()
        u1 = op.apply(den)
        s.set_positions(2.0 * s.X)   # radius doubles
        op.refresh()
        u2 = op.apply(den)
        # u = 2a/3: doubles with radius
        assert np.allclose(u2, 2 * u1, atol=1e-3)

    def test_linearity(self, rng):
        s = sphere(1.0, order=6)
        op = SingularSelfInteraction(s)
        f1 = rng.normal(size=(7, 14, 3))
        f2 = rng.normal(size=(7, 14, 3))
        u = op.apply(2.0 * f1 - f2)
        assert np.allclose(u, 2 * op.apply(f1) - op.apply(f2), atol=1e-11)


class TestOperatorMatrix:
    """The assembled dense self-interaction operator vs the seed path."""

    def test_matrix_apply_matches_synthesis_path(self, rng):
        e = ellipsoid(1.0, 1.2, 0.9, order=8)
        op = SingularSelfInteraction(e, viscosity=1.7)
        f = rng.normal(size=(e.grid.nlat, e.grid.nphi, 3))
        assert np.abs(op.apply(f) - op.apply_reference(f)).max() <= 1e-12

    def test_matrix_reassembled_on_refresh(self, rng):
        s = sphere(1.0, order=6)
        op = SingularSelfInteraction(s)
        f = rng.normal(size=(s.grid.nlat, s.grid.nphi, 3))
        s.set_positions(1.5 * s.X)
        op.refresh()
        assert np.abs(op.apply(f) - op.apply_reference(f)).max() <= 1e-12

    def test_matrix_property_is_the_operator(self, rng):
        s = sphere(1.1, order=5)
        op = SingularSelfInteraction(s)
        f = rng.normal(size=(s.grid.nlat, s.grid.nphi, 3))
        u = (op.matrix @ f.ravel()).reshape(f.shape)
        assert np.allclose(u, op.apply(f), atol=1e-14)


class TestBatchedNearPipeline:
    """Batched near evaluation vs per-target evaluation."""

    @pytest.fixture(scope="class")
    def near_contact(self):
        from repro.surfaces import biconcave_rbc
        a = biconcave_rbc(1.0, center=(0.0, 0.0, 0.0), order=8)
        b = biconcave_rbc(1.0, center=(2.25, 0.0, 0.1), order=8)
        rng = np.random.default_rng(7)
        den = rng.normal(size=(a.grid.nlat, a.grid.nphi, 3))
        return a, b, den, CellNearEvaluator(a)

    def test_batch_matches_per_target(self, near_contact):
        a, b, den, ev = near_contact
        targets = b.points
        batched = ev.evaluate(den, targets)
        singles = np.stack([ev.evaluate(den, t[None])[0] for t in targets])
        assert np.abs(batched - singles).max() < 1e-12

    def test_near_targets_detected(self, near_contact):
        a, b, den, ev = near_contact
        near = ev.near_target_indices(b.points)
        assert near.size > 0
        dmin = np.array([np.linalg.norm(ev._fine.points - t, axis=1).min()
                         for t in b.points])
        assert np.array_equal(near, np.nonzero(dmin < ev.near_distance)[0])

    def test_near_value_matches_manual_scheme(self, near_contact):
        # Reconstruct one near target's value from the public pieces:
        # closest point + singular on-surface value + check points +
        # barycentric interpolation (the seed per-target algorithm).
        from repro.quadrature.interpolation import (barycentric_matrix,
                                                    barycentric_weights)
        a, b, den, ev = near_contact
        t = b.points[ev.near_target_indices(b.points)[0]]
        th, ph, y, d = ev.closest_point(t)
        n = ev._surface_normal_at(th, ph)
        sgn = float(np.sign((t - y) @ n)) or 1.0
        ts = np.concatenate(
            [[0.0], sgn * (ev.near_distance + ev.h * np.arange(ev.check_order))])
        vals = np.empty((ts.size, 3))
        vals[0] = ev.on_surface_velocity(th, ph, den)
        checks = y[None, :] + ts[1:, None] * n[None, :]
        fw = ev.weighted_fine_density(den)
        vals[1:] = stokes_slp_apply(ev._fine.points, fw.reshape(-1, 3),
                                    checks, ev.viscosity)
        M = barycentric_matrix(ts, np.array([sgn * d]),
                               barycentric_weights(ts))
        expect = (M @ vals).ravel()
        got = ev.evaluate(den, t[None])[0]
        assert np.abs(got - expect).max() < 1e-10

    def test_batched_closest_points(self, near_contact):
        a, b, den, ev = near_contact
        targets = b.points[::11]
        th, ph, y, d = ev.closest_points(targets)
        for k, t in enumerate(targets):
            th1, ph1, y1, d1 = ev.closest_point(t)
            assert abs(d[k] - d1) < 1e-10
            assert np.allclose(y[k], y1, atol=1e-8)


def _bench_wall_pairing():
    """The cell-side search of the ``vessel_capsule2`` bench scene: an
    order-3 RBC against the capsule's coarse nodes inside its near zone."""
    from repro.config import NumericsOptions
    from repro.patches import capsule_tube
    from repro.surfaces import biconcave_rbc
    opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                           check_r_factor=0.25)
    nodes = capsule_tube(length=10.0, radius=1.6, refine=0,
                         options=opts).coarse().points
    ev = CellNearEvaluator(biconcave_rbc(0.9, center=(0.0, 0.0, -2.4),
                                         order=3))
    return ev, nodes[ev.near_target_indices(nodes)]


class TestClosestPointsConverge:
    """Truth, not route against route: what ``closest_points`` returns is
    the foot of a perpendicular, to roundoff, after a handful of
    synthesis calls."""

    @pytest.fixture(scope="class", params=["near_contact", "bench_wall"])
    def pairing(self, request):
        if request.param == "bench_wall":
            return _bench_wall_pairing()
        from repro.surfaces import biconcave_rbc
        a = biconcave_rbc(1.0, center=(0.0, 0.0, 0.0), order=8)
        b = biconcave_rbc(1.0, center=(2.25, 0.0, 0.1), order=8)
        return CellNearEvaluator(a), b.points

    def test_residual_is_normal_to_the_surface(self, pairing):
        ev, x = pairing
        assert len(x) >= 60
        th, ph, y, d = ev.closest_points(x)
        X, Xt, Xp = near_singular._synthesize(ev.surface, ev._cX_packed,
                                              th, ph, derivs=1)
        assert np.array_equal(X, y)
        for tangent in (Xt, Xp):
            misalignment = (np.abs(np.einsum("nk,nk->n", y - x, tangent))
                            / (np.linalg.norm(tangent, axis=1) * d))
            assert misalignment.max() <= 1e-12

    def test_few_synthesis_calls(self, pairing, monkeypatch):
        ev, x = pairing
        calls = []
        synthesize = near_singular._synthesize

        def counting(*args, **kwargs):
            calls.append(1)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(near_singular, "_synthesize", counting)
        ev.closest_points(x)
        assert len(calls) <= 12

    def test_polish_threshold_is_not_a_tuning_knob(self, pairing,
                                                   monkeypatch):
        ev, x = pairing
        th, ph, y, d = ev.closest_points(x)
        monkeypatch.setattr(near_singular, "_POLISH_STEP", 1e-6)
        th6, ph6, y6, d6 = ev.closest_points(x)
        assert np.abs(y6 - y).max() <= 1e-12
        assert np.abs(th6 - th).max() <= 1e-12
        # phi wraps at 2 pi
        assert np.abs(np.angle(np.exp(1j * (ph6 - ph)))).max() <= 1e-12

    def test_first_derivative_synthesis_is_a_prefix_of_the_second(
            self, pairing):
        ev, x = pairing
        th, ph = np.linspace(0.1, 3.0, 40), np.linspace(0.0, 6.0, 40)
        two = near_singular._synthesize(ev.surface, ev._cX_packed, th, ph,
                                        derivs=2)
        one = near_singular._synthesize(ev.surface, ev._cX_packed, th, ph,
                                        derivs=1)
        zero = near_singular._synthesize(ev.surface, ev._cX_packed, th, ph)
        assert len(two) == 6 and len(one) == 3
        assert all(np.array_equal(a, b) for a, b in zip(one, two))
        assert np.array_equal(zero, two[0])

    def test_on_surface_values_converge(self, pairing):
        """On-surface values at the closest points against a reference
        evaluator with a rule of order 4p, for a random density: the
        relative error may not exceed that of the rotated-node
        quadrature this route replaced, 8.34e-3 on ``bench_wall`` (order
        3) and 4.57e-4 on ``near_contact`` (order 8)."""
        ev, x = pairing
        s = ev.surface
        th, ph, y, _ = ev.closest_points(x)
        den = np.random.default_rng(11).normal(
            size=(s.grid.nlat, s.grid.nphi, 3))
        cf = ev._packed_density_coeffs(den)
        ref = CellNearEvaluator(s, upsample_order=4 * s.order)
        v = ev._on_surface_velocities(th, ph, cf, x0=y)
        v_ref = ref._on_surface_velocities(th, ph, cf, x0=y)
        err = np.abs(v - v_ref).max() / np.abs(v_ref).max()
        assert err <= {3: 8.35e-3, 8: 4.57e-4}[s.order]

    @pytest.mark.parametrize("known_positions", [True, False])
    def test_on_surface_values_take_one_value_synthesis_per_chunk(
            self, pairing, monkeypatch, known_positions):
        ev, x = pairing
        s = ev.surface
        th, ph, y, _ = ev.closest_points(x)
        cf = ev._packed_density_coeffs(np.ones((s.grid.nlat, s.grid.nphi, 3)))
        derivs = []
        synthesize = near_singular._synthesize

        def counting(*args, **kwargs):
            derivs.append(kwargs.get("derivs", 0))
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(near_singular, "_synthesize", counting)
        ev._on_surface_velocities(th, ph, cf,
                                  x0=y if known_positions else None)
        chunk = max(1, near_singular._SYNTH_POINT_BUDGET // s.grid.n_points)
        assert derivs == [0] * -(-th.size // chunk)


@pytest.mark.parametrize("order, tol", [(3, 1e-10), (8, 1e-13)])
def test_sphere_on_surface_value_is_rigid_translation(order, tol):
    """A sphere of radius a under constant density c translates rigidly:
    the on-surface single layer is (2a/3) c at every point. Checked at
    random targets, at the rule's psi-node colatitudes (where a rotated
    rule node passes through the pole), at the native grid colatitudes
    (where a rotated native node would) and within 1e-3 of both poles."""
    a = 1.3
    s = sphere(a, order=order)
    c = np.array([0.3, -0.2, 0.7])
    ev = CellNearEvaluator(s)
    cf = ev._packed_density_coeffs(
        np.broadcast_to(c, (s.grid.nlat, s.grid.nphi, 3)))
    rng = np.random.default_rng(5)
    psi = np.unique(ev._rot_psi)
    near_pole = np.array([1e-3, 2e-4, 0.0])
    th = np.concatenate([np.arccos(rng.uniform(-1.0, 1.0, 12)), psi,
                         s.grid.theta, near_pole, np.pi - near_pole])
    ph = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 12),
                         np.zeros(psi.size), s.grid.phi[:s.grid.nlat],
                         [0.4, 2.5, 0.0, 1.1, 5.0, 0.0]])
    v = ev._on_surface_velocities(th, ph, cf)
    assert np.abs(v - 2 * a / 3 * c).max() <= tol


class TestCellNearEvaluator:
    @pytest.fixture(scope="class")
    def setup(self):
        a = 1.3
        s = sphere(a, order=8)
        c = np.array([0.3, -0.2, 0.7])
        den = np.broadcast_to(c, (s.grid.nlat, s.grid.nphi, 3)).copy()
        ev = CellNearEvaluator(s)
        # reference: very fine direct quadrature
        fine = s.upsampled(40)
        fw = np.broadcast_to(c, (41, 82, 3)) * fine.quadrature_weights()[..., None]
        return a, s, c, den, ev, (fine.points, fw.reshape(-1, 3))

    def test_far_evaluation_spectral(self, setup):
        a, s, c, den, ev, (fp, fw) = setup
        trg = np.array([[3.0, 1.0, 0.0], [0.0, -4.0, 0.5]])
        ref = stokes_slp_apply(fp, fw, trg)
        assert np.abs(ev.evaluate(den, trg) - ref).max() < 1e-10

    def test_near_exterior_evaluation(self, setup):
        a, s, c, den, ev, (fp, fw) = setup
        trg = np.array([[a + 0.05, 0.0, 0.0], [0.0, 0.0, a + 0.12]])
        ref = stokes_slp_apply(fp, fw, trg)
        err = np.abs(ev.evaluate(den, trg) - ref).max()
        assert err < 5e-3

    def test_on_surface_singular_value(self, setup):
        a, s, c, den, ev, _ = setup
        v = ev.on_surface_velocity(s.grid.theta[3], s.grid.phi[5], den)
        assert np.abs(v - 2 * a / 3 * c).max() <= 1e-13

    def test_closest_point_on_sphere(self, setup):
        a, s, c, den, ev, _ = setup
        x = np.array([2.0, 1.0, -0.5])
        th, ph, y, d = ev.closest_point(x)
        assert abs(d - (np.linalg.norm(x) - a)) < 1e-8
        assert np.allclose(y, a * x / np.linalg.norm(x), atol=1e-7)

    def test_interior_center_value(self, setup):
        a, s, c, den, ev, _ = setup
        v = ev.evaluate(den, np.array([[0.0, 0.0, 0.0]]))
        assert np.abs(v[0] - 2 * a / 3 * c).max() < 1e-10
