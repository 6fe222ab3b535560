"""Collision system tests: meshes, narrow phase, broad phase, volumes, LCP, NCP."""
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collision import (
    CollisionMesh,
    NCPSolver,
    candidate_object_pairs,
    cell_collision_mesh,
    compute_contacts,
    patch_collision_mesh,
    point_triangle_closest,
    signed_distance_to_mesh,
    solve_lcp,
    space_time_boxes,
)
from repro.patches import cube_sphere
from repro.surfaces import SpectralSurface, seed_upsampled, sphere
from repro.vesicle import SingularSelfInteraction


class TestMeshes:
    def test_cell_mesh_closed_euler(self):
        m = cell_collision_mesh(sphere(1.0, order=6), 0)
        V, F = len(m.vertices), len(m.triangles)
        edges = set()
        for t in m.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edges.add(tuple(sorted((t[a], t[b]))))
        assert V - len(edges) + F == 2  # closed genus-0

    def test_cell_mesh_outward_orientation(self):
        m = cell_collision_mesh(sphere(1.0, order=6), 0)
        n = m.triangle_normals()
        centers = m.vertices[m.triangles].mean(axis=1)
        assert np.einsum("nk,nk->n", n, centers).min() > 0

    def test_pole_vertices_match_series_evaluation(self):
        """The cached per-order pole rows reproduce the per-coordinate
        series evaluation at the two pole-guard points bit for bit."""
        from repro.surfaces import biconcave_rbc
        for p in (3, 4, 8):
            s = biconcave_rbc(order=p, center=(0.3, -0.2, 0.1))
            m = cell_collision_mesh(s, 0)
            at = (np.array([1e-6, np.pi - 1e-6]), np.zeros(2))
            poles = np.stack([s.transform.evaluate(s.coeffs()[k], *at)
                              for k in range(3)], axis=-1)
            assert np.array_equal(m.vertices[-2:], poles)
            assert np.array_equal(m.vertex_weights[-2:], [0.0, 0.0])

    def test_patch_mesh(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        m = patch_collision_mesh(s.patches[0], 0, m=10)
        assert len(m.vertices) == 100
        assert len(m.triangles) == 2 * 81
        assert not m.closed

    def test_space_time_aabb(self):
        m = cell_collision_mesh(sphere(1.0, order=4), 0)
        lo, hi = m.aabb(other_vertices=m.vertices + 5.0)
        assert hi[0] > 5.0 and lo[0] < 0.0

    def test_edge_scale(self):
        m = cell_collision_mesh(sphere(2.0, order=6), 0)
        assert 0.05 < m.edge_length_scale() < 2.0


class TestNarrowPhase:
    def test_point_triangle_regions(self):
        a = np.array([[0.0, 0, 0]])
        b = np.array([[1.0, 0, 0]])
        c = np.array([[0.0, 1, 0]])
        # interior
        cp, bary = point_triangle_closest(np.array([[0.2, 0.2, 1.0]]), a, b, c)
        assert np.allclose(cp[0], [0.2, 0.2, 0.0])
        assert np.isclose(bary[0].sum(), 1.0)
        # vertex region
        cp, _ = point_triangle_closest(np.array([[-1.0, -1.0, 0.0]]), a, b, c)
        assert np.allclose(cp[0], [0, 0, 0])
        # edge region
        cp, _ = point_triangle_closest(np.array([[0.5, -1.0, 0.0]]), a, b, c)
        assert np.allclose(cp[0], [0.5, 0, 0])

    def test_signed_distance_sphere(self):
        m = cell_collision_mesh(sphere(1.0, order=8), 0)
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.5, 0, 0]])
        d, tri, cp, bary = signed_distance_to_mesh(pts, m)
        assert d[0] < -0.9
        assert -0.55 < d[1] < -0.45
        assert 0.45 < d[2] < 0.55

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_property_closest_point_on_triangle(self, x, y, z):
        a = np.array([[0.0, 0, 0]])
        b = np.array([[1.0, 0, 0]])
        c = np.array([[0.0, 1, 0]])
        p = np.array([[x, y, z]])
        cp, bary = point_triangle_closest(p, a, b, c)
        assert np.all(bary >= -1e-9) and np.isclose(bary.sum(), 1.0)
        # cp must not be farther than any vertex
        d_cp = np.linalg.norm(p - cp)
        for v in (a, b, c):
            assert d_cp <= np.linalg.norm(p - v) + 1e-9


class TestBroadPhase:
    def test_overlapping_cells_found(self):
        m1 = cell_collision_mesh(sphere(1.0, order=4), 0)
        m2 = cell_collision_mesh(sphere(1.0, center=(1.5, 0, 0), order=4), 1)
        pairs = candidate_object_pairs([m1, m2], [None, None], 0.1)
        assert (0, 1) in pairs

    def test_distant_cells_culled(self):
        m1 = cell_collision_mesh(sphere(1.0, order=4), 0)
        m2 = cell_collision_mesh(sphere(1.0, center=(50, 0, 0), order=4), 1)
        pairs = candidate_object_pairs([m1, m2], [None, None], 0.1)
        assert pairs == []

    def test_boundary_boundary_skipped(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        ms = [patch_collision_mesh(p, i, m=6) for i, p in enumerate(s.patches)]
        pairs = candidate_object_pairs(ms, [None] * len(ms), 0.1)
        assert pairs == []

    def test_space_time_box_catches_fast_motion(self):
        m1 = cell_collision_mesh(sphere(1.0, order=4), 0)
        m2 = cell_collision_mesh(sphere(1.0, center=(10, 0, 0), order=4), 1)
        cand = m1.vertices + np.array([8.0, 0, 0])  # moving toward m2
        pairs = candidate_object_pairs([m1, m2], [cand, None], 0.1)
        assert (0, 1) in pairs

    @given(st.lists(st.tuples(
               st.tuples(*[st.floats(-2.5, 2.5)] * 3),
               st.floats(0.2, 0.9),
               st.none() | st.tuples(*[st.floats(-1.5, 1.5)] * 3)),
               min_size=1, max_size=5),
           st.booleans(),
           st.floats(0.0, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_pairs_equal_brute_force_box_overlaps(self, cells, vessel, eps):
        """The Morton hash is conservative and the AABB cull exact, so the
        result is exactly the set of overlapping padded space-time boxes,
        minus boundary-boundary pairs."""
        meshes, cands = [], []
        for i, (centre, radius, move) in enumerate(cells):
            m = cell_collision_mesh(sphere(radius, center=centre, order=4), i)
            meshes.append(m)
            cands.append(None if move is None else m.vertices + np.array(move))
        if vessel:
            meshes += list(_cube_sphere_meshes())
            cands += [None] * 6
        lo, hi = space_time_boxes(meshes, cands, pad=eps)
        expected = [(a, b) for a in range(len(meshes))
                    for b in range(a + 1, len(meshes))
                    if np.all(lo[a] <= hi[b]) and np.all(lo[b] <= hi[a])
                    and not (meshes[a].kind == meshes[b].kind == "boundary")]
        assert candidate_object_pairs(meshes, cands, eps) == expected


@functools.lru_cache(maxsize=None)
def _cube_sphere_meshes():
    from repro.config import NumericsOptions
    s = cube_sphere(refine=0, options=NumericsOptions(patch_quad=7))
    return tuple(patch_collision_mesh(p, i, m=6)
                 for i, p in enumerate(s.patches))


class TestContacts:
    def test_overlap_volume_negative(self):
        m1 = cell_collision_mesh(sphere(1.0, order=6), 0)
        m2 = cell_collision_mesh(sphere(1.0, center=(1.8, 0, 0), order=6), 1)
        comps = compute_contacts([m1, m2], [(0, 1)], contact_eps=0.02)
        assert comps
        assert all(c.volume < 0 for c in comps)

    def test_no_contact_no_components(self):
        m1 = cell_collision_mesh(sphere(1.0, order=6), 0)
        m2 = cell_collision_mesh(sphere(1.0, center=(3.0, 0, 0), order=6), 1)
        comps = compute_contacts([m1, m2], [(0, 1)], contact_eps=0.02)
        assert comps == []

    def test_gradient_pushes_apart(self):
        m1 = cell_collision_mesh(sphere(1.0, order=6), 0)
        m2 = cell_collision_mesh(sphere(1.0, center=(1.8, 0, 0), order=6), 1)
        comps = compute_contacts([m1, m2], [(0, 1)], contact_eps=0.02)
        for c in comps:
            if 0 in c.vertex_forces:
                idx, dirs, w = c.vertex_forces[0]
                # normals of mesh 2 at the contact point toward -x
                assert dirs[:, 0].mean() < 0

    def test_two_separate_overlaps_two_components(self):
        m1 = cell_collision_mesh(sphere(1.0, order=8), 0)
        # two small spheres poking m1 from opposite sides
        m2 = cell_collision_mesh(sphere(0.3, center=(1.05, 0, 0), order=6), 1)
        m3 = cell_collision_mesh(sphere(0.3, center=(-1.05, 0, 0), order=6), 2)
        comps = compute_contacts([m1, m2, m3], [(0, 1), (0, 2)],
                                 contact_eps=0.02)
        owners = {c.pair for c in comps}
        assert len(owners) >= 2


class TestLCP:
    def test_trivial_nonnegative_q(self):
        B = np.eye(2)
        res = solve_lcp(lambda x: B @ x, np.array([1.0, 2.0]))
        assert np.allclose(res.lam, 0.0)

    def test_known_solution(self):
        B = np.array([[2.0, 0.0], [0.0, 1.0]])
        q = np.array([-4.0, 1.0])
        res = solve_lcp(lambda x: B @ x, q)
        assert np.allclose(res.lam, [2.0, 0.0], atol=1e-8)

    def test_complementarity_invariants(self, rng):
        for _ in range(5):
            m = 6
            M = rng.normal(size=(m, m))
            B = M @ M.T + m * np.eye(m)   # SPD
            q = rng.normal(size=m)
            res = solve_lcp(lambda x: B @ x, q)
            w = B @ res.lam + q
            assert np.all(res.lam >= -1e-12)
            assert np.all(w >= -1e-7)
            assert abs(res.lam @ w) < 1e-6

    def test_empty(self):
        res = solve_lcp(lambda x: x, np.zeros(0))
        assert res.converged and res.lam.size == 0


class TestNCP:
    def test_no_contact_passthrough(self):
        s1 = sphere(1.0, order=5)
        s2 = sphere(1.0, center=(5.0, 0, 0), order=5)
        ops = [SingularSelfInteraction(s) for s in (s1, s2)]
        ncp = NCPSolver(boundary_meshes=[])
        cand = [s1.X + 0.01, s2.X + 0.01]
        newpos, rep = ncp.project([s1, s2], cand, [o.apply for o in ops], 0.1)
        assert not rep.contact_active
        assert np.allclose(newpos[0], cand[0])

    def test_two_sphere_projection_reduces_penetration(self):
        s1 = sphere(1.0, order=6)
        s2 = sphere(1.0, center=(2.3, 0, 0), order=6)
        ops = [SingularSelfInteraction(s) for s in (s1, s2)]
        ncp = NCPSolver(boundary_meshes=[])
        cand = [s1.X + np.array([0.25, 0, 0]), s2.X - np.array([0.25, 0, 0])]
        newpos, rep = ncp.project([s1, s2], cand, [o.apply for o in ops], 0.1)
        assert rep.contact_active
        assert rep.lcp_solves >= 1
        assert rep.max_penetration_after < 0.2 * rep.max_penetration_before

    def test_mesh_cache_rebuilds_only_moved_cells(self, monkeypatch):
        """A repeat projection at identical positions builds no meshes;
        results are unchanged by caching."""
        import repro.collision.ncp as ncp_mod
        built = []
        orig = ncp_mod.cell_collision_mesh

        def counting(surface, object_id, collision_order=None):
            built.append(object_id)
            return orig(surface, object_id, collision_order=collision_order)

        monkeypatch.setattr(ncp_mod, "cell_collision_mesh", counting)
        s1 = sphere(1.0, order=5)
        s2 = sphere(1.0, center=(5.0, 0, 0), order=5)
        ops = [SingularSelfInteraction(s) for s in (s1, s2)]
        ncp = NCPSolver(boundary_meshes=[])
        cand = [s1.X + 0.01, s2.X + 0.01]
        pos1, _ = ncp.project([s1, s2], cand, [o.apply for o in ops], 0.1)
        n_cold = len(built)
        assert n_cold == 4          # current + candidate, both cells
        built.clear()
        pos2, _ = ncp.project([s1, s2], cand, [o.apply for o in ops], 0.1)
        assert built == []          # every mesh served from the cache
        assert all(np.array_equal(a, b) for a, b in zip(pos1, pos2))

    def test_cell_wall_contact(self, small_opts):
        vessel = cube_sphere(refine=0, radius=2.0, options=small_opts)
        walls = [patch_collision_mesh(p, i, m=10)
                 for i, p in enumerate(vessel.patches)]
        cell = sphere(0.8, center=(1.0, 0, 0), order=6)
        op = SingularSelfInteraction(cell)
        ncp = NCPSolver(boundary_meshes=walls)
        cand = [cell.X + np.array([0.5, 0, 0])]  # pushes into the wall
        newpos, rep = ncp.project([cell], cand, [op.apply], 0.1)
        assert rep.contact_active
        # after projection the cell should be (nearly) inside the vessel
        assert np.linalg.norm(newpos[0].reshape(-1, 3), axis=1).max() < 2.05


class TestSharedFinePass:
    """The candidates' stacked fine-grid pass is shared between NCP and
    the near evaluators; sharing changes no bit."""

    @staticmethod
    def _reports_equal(a, b):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        return da.keys() == db.keys() and all(
            np.array_equal(da[k], db[k]) for k in da)

    def test_project_identical_with_and_without_seeded_surfaces(self):
        def scene():
            s1 = sphere(1.0, order=4)
            s2 = sphere(1.0, center=(2.3, 0, 0), order=4)
            ops = [SingularSelfInteraction(s) for s in (s1, s2)]
            cand = [s1.X + np.array([0.25, 0, 0]),
                    s2.X - np.array([0.25, 0, 0])]
            return [s1, s2], cand, [o.apply for o in ops]

        cells, cand, mob = scene()
        plain, rep_plain = NCPSolver(boundary_meshes=[]).project(
            cells, cand, mob, 0.1)
        assert rep_plain.contact_active and rep_plain.lcp_solves >= 1
        assert not any(np.array_equal(a, b) for a, b in zip(plain, cand))

        cells, cand, mob = scene()
        seeded = [SpectralSurface(X, 4) for X in cand]
        seed_upsampled(seeded)
        fine = [s.upsampled(8) for s in seeded]
        shared, rep_shared = NCPSolver(boundary_meshes=[]).project(
            cells, cand, mob, 0.1, surfaces=seeded)
        assert all(np.array_equal(a, b) for a, b in zip(plain, shared))
        assert self._reports_equal(rep_plain, rep_shared)
        # the caller's surfaces are read, never re-seeded
        assert all(s.upsampled(8) is f for s, f in zip(seeded, fine))

        # surfaces that do not sit at the candidates are ignored
        cells, cand, mob = scene()
        stale = [SpectralSurface(X + 0.5, 4) for X in cand]
        seed_upsampled(stale)
        again, rep_again = NCPSolver(boundary_meshes=[]).project(
            cells, cand, mob, 0.1, surfaces=stale)
        assert all(np.array_equal(a, b) for a, b in zip(plain, again))
        assert self._reports_equal(rep_plain, rep_again)

    def test_moved_cells_get_fine_surfaces_of_the_moved_positions(self):
        from repro.config import ReproConfig
        from repro.core import Simulation
        from repro.physics.terms import BackgroundFlow, Bending

        def squeeze(pts):
            u = np.zeros_like(pts)
            u[:, 0] = -1.5 * np.sign(pts[:, 0])
            return u

        sim = Simulation(
            [sphere(0.8, center=(-1.0, 0, 0), order=5),
             sphere(0.8, center=(1.0, 0, 0), order=5)],
            config=ReproConfig(dt=0.1,
                               forces=[Bending(), BackgroundFlow(squeeze)]))
        seen = []
        project = sim.stepper.ncp.project

        def spy(cells, candidates, *args, **kwargs):
            seen.append([np.array(c) for c in candidates])
            return project(cells, candidates, *args, **kwargs)

        sim.stepper.ncp.project = spy
        moved_steps = 0
        for _ in range(3):
            rep = sim.step()
            candidates = seen[-1]
            moved = [not np.array_equal(c.X, X)
                     for c, X in zip(sim.cells, candidates)]
            if rep.ncp.contact_active:
                assert all(moved)
                moved_steps += 1
            for cell, ev, X in zip(sim.cells, sim.backend.evaluators,
                                   candidates):
                cold = SpectralSurface(cell.X, cell.order)
                assert np.array_equal(ev._fine.X, cold.upsampled(10).X)
                assert np.array_equal(
                    ev._fine_w, cold.upsampled(10).quadrature_weights())
                assert np.array_equal(cell._coeffs, cold.coeffs())
                if not np.array_equal(cell.X, X):
                    stale = SpectralSurface(X, cell.order).upsampled(10)
                    assert not np.array_equal(ev._fine.X, stale.X)
        assert moved_steps >= 1

    def test_projected_cells_get_a_full_selfop_refresh(self):
        """Under an amortized self-op (interval 4) a cell the contact
        projection moved is reassembled in full, not corrected from its
        pre-contact operator, and its factorized solvers are dropped."""
        from repro.config import NumericsOptions, ReproConfig
        from repro.core import Simulation
        from repro.physics.terms import BackgroundFlow, Bending

        def squeeze(pts):
            u = np.zeros_like(pts)
            u[:, 0] = -1.5 * np.sign(pts[:, 0])
            return u

        sim = Simulation(
            [sphere(0.8, center=(-1.0, 0, 0), order=6),
             sphere(0.8, center=(1.0, 0, 0), order=6)],
            config=ReproConfig(
                dt=0.1, forces=[Bending(), BackgroundFlow(squeeze)],
                numerics=NumericsOptions(selfop_refresh_interval=4)))
        stepper = sim.stepper
        for _ in range(3):
            rep = sim.step()
            if rep.ncp.contact_active:
                break
        assert rep.ncp.contact_active
        for i, cell in enumerate(sim.cells):
            fresh = SingularSelfInteraction(
                SpectralSurface(cell.X, cell.order, cell.aliasing_factor))
            assert np.abs(stepper._self_ops[i].matrix
                          - fresh.matrix).max() <= 1e-12
            assert stepper._tension_solvers[i] is None
            assert stepper._impl_lu[i] is None
