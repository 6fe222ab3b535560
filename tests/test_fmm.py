"""Octree and global KIFMM tests."""
import numpy as np
import pytest

from repro.fmm import GlobalKIFMM, Octree, stokes_slp_global_fmm
from repro.fmm.kifmm import _apply_m2l, _m2l_matrix, _offset_symmetry
from repro.kernels import laplace_slp_apply, stokes_slp_apply
from repro.runtime.executor import CheckedExecutor


class TestOctree:
    def test_every_point_in_exactly_one_leaf(self, rng):
        pts = rng.normal(size=(500, 3))
        tree = Octree(pts, max_leaf=32)
        seen = np.concatenate([tree.nodes[l].indices for l in tree.leaves()])
        assert np.array_equal(np.sort(seen), np.arange(500))

    def test_leaf_capacity(self, rng):
        pts = rng.normal(size=(1000, 3))
        tree = Octree(pts, max_leaf=40)
        for l in tree.leaves():
            assert tree.nodes[l].indices.size <= 40

    def test_children_inside_parent(self, rng):
        pts = rng.uniform(size=(300, 3))
        tree = Octree(pts, max_leaf=20)
        for n in tree.nodes:
            if n.parent >= 0:
                p = tree.nodes[n.parent]
                assert np.all(np.abs(n.center - p.center) <= p.half + 1e-12)
                assert np.isclose(n.half, 0.5 * p.half)

    def test_points_inside_their_leaf_box(self, rng):
        pts = rng.normal(size=(200, 3))
        tree = Octree(pts, max_leaf=16)
        for l in tree.leaves():
            node = tree.nodes[l]
            d = np.abs(pts[node.indices] - node.center)
            assert np.all(d <= node.half * (1 + 1e-9))

    def test_single_point(self):
        tree = Octree(np.zeros((1, 3)))
        assert tree.n_nodes == 1


class TestOctreeStructure:
    """Level-linearized Morton storage and adaptive-FMM list invariants."""

    def test_level_nodes_partition_in_morton_order(self, rng):
        tree = Octree(rng.normal(size=(600, 3)), max_leaf=16)
        keys = tree.morton_keys()
        seen = []
        for level, ids in enumerate(tree.level_nodes()):
            assert np.all(tree.levels[ids] == level)
            assert np.all(np.diff(keys[ids].astype(np.int64)) > 0)
            seen.append(ids)
        seen = np.concatenate(seen)
        assert np.array_equal(np.sort(seen), np.arange(tree.n_nodes))

    def test_anchor_matches_geometry(self, rng):
        tree = Octree(rng.uniform(size=(400, 3)), max_leaf=16)
        root = tree.nodes[0]
        lo = root.center - root.half
        for n in tree.nodes:
            width = 2.0 * root.half / (1 << n.level)
            expect = lo + (np.asarray(n.anchor) + 0.5) * width
            assert np.allclose(n.center, expect, atol=1e-9 * root.half)

    def test_adjacent_matches_float_geometry(self, rng):
        tree = Octree(rng.normal(size=(300, 3)), max_leaf=24)
        ids = rng.choice(tree.n_nodes, size=min(40, tree.n_nodes),
                         replace=False)
        for a in ids:
            for b in ids:
                na, nb = tree.nodes[a], tree.nodes[b]
                gap = np.abs(na.center - nb.center) - (na.half + nb.half)
                geom = bool(np.all(gap <= 1e-9 * tree.nodes[0].half))
                assert tree.adjacent(int(a), int(b)) == geom, (a, b)

    def test_leaf_of_points_matches_membership(self, rng):
        pts = rng.normal(size=(500, 3))
        tree = Octree(pts, max_leaf=20)
        owner = np.empty(500, dtype=np.int64)
        for l in tree.leaves():
            owner[tree.nodes[l].indices] = l
        assert np.array_equal(tree.leaf_of_points(pts), owner)

    def test_leaf_of_points_outside_root(self, rng):
        tree = Octree(rng.uniform(size=(100, 3)), max_leaf=16)
        far = np.array([[5.0, 5.0, 5.0], [-4.0, 0.5, 0.5]])
        assert np.array_equal(tree.leaf_of_points(far), [-1, -1])

    def test_interaction_lists_cover_every_source_once(self, rng):
        """Every source reaches every target leaf through exactly one of
        U (P2P), W (M2P), V-at-an-ancestor (M2L), or X-at-an-ancestor
        (P2L) — the completeness/disjointness property the two-pass FMM
        rests on, checked by brute force."""
        n = 400
        tree = Octree(rng.normal(size=(n, 3)), max_leaf=12)
        lists = tree.interaction_lists()
        for t in tree.leaves():
            cnt = np.zeros(n, dtype=np.int64)
            for u in lists.U[t]:
                cnt[tree.nodes[u].indices] += 1
            for w in lists.W[t]:
                cnt[tree.subtree_indices(w)] += 1
            a = t
            while a >= 0:
                for v in lists.V[a]:
                    cnt[tree.subtree_indices(v)] += 1
                for x in lists.X[a]:
                    cnt[tree.nodes[x].indices] += 1
                a = tree.nodes[a].parent
            assert np.all(cnt == 1), f"leaf {t}: coverage {np.unique(cnt)}"

    def test_lists_are_well_separated(self, rng):
        """V and W partners are never adjacent to the target box (the
        separation the equivalent-density approximation needs)."""
        tree = Octree(rng.normal(size=(300, 3)), max_leaf=12)
        lists = tree.interaction_lists()
        for b in range(tree.n_nodes):
            for v in lists.V[b]:
                assert not tree.adjacent(b, v)
                assert tree.nodes[v].level == tree.nodes[b].level
            for w in lists.W[b]:
                assert not tree.adjacent(b, w)

    def test_v_groups_offsets(self, rng):
        tree = Octree(rng.normal(size=(500, 3)), max_leaf=12)
        lists = tree.interaction_lists()
        anchors = tree.anchors
        groups = lists.v_groups(anchors)
        total = 0
        for off, (tgt, src) in groups.items():
            assert max(abs(o) for o in off) <= 3
            assert np.array_equal(anchors[src] - anchors[tgt],
                                  np.broadcast_to(off, (len(tgt), 3)))
            # a box has at most one V partner per offset
            assert len(np.unique(tgt)) == len(tgt)
            total += len(tgt)
        assert total == sum(len(v) for v in lists.V)


class TestM2LSymmetry:
    """The 316 V offsets route through 16 canonical operators via cube
    symmetries; the conjugated operator must equal the directly-built
    one for every kernel."""

    OFFSETS = [(-2, 1, 3), (3, -3, 2), (0, -2, 0), (1, 2, -3), (-3, 0, -1)]

    def test_canonical_form(self):
        for off in self.OFFSETS:
            d_star, r9 = _offset_symmetry(off)
            R = np.array(r9).reshape(3, 3)
            assert np.array_equal(R @ off, d_star)
            assert d_star[0] >= d_star[1] >= d_star[2] >= 0
            assert np.array_equal(np.abs(R @ R.T), np.eye(3))

    @pytest.mark.parametrize("kernel,ncomp", [("stokes_slp", 3),
                                              ("laplace_slp", 1)])
    def test_conjugated_matches_direct(self, rng, kernel, ncomp):
        e = 4
        m = 6 * e * e - 12 * e + 8
        Q = rng.normal(size=(3, m, ncomp))
        for off in self.OFFSETS:
            via_sym = _apply_m2l(kernel, e, 1.0, off, Q)
            M = _m2l_matrix(kernel, e, 1.0, off)
            direct = (Q.reshape(3, -1) @ M.T).reshape(via_sym.shape)
            scale = max(np.abs(direct).max(), 1.0)
            assert np.abs(via_sym - direct).max() < 1e-9 * scale, off


class TestGlobalKIFMM:
    def test_stokes_matches_direct(self, rng):
        n = 4000
        src = rng.normal(size=(n, 3))
        den = rng.normal(size=(n, 3)) / n
        trg = rng.normal(size=(80, 3)) * 1.2
        ref = stokes_slp_apply(src, den, trg)
        u = stokes_slp_global_fmm(src, den, trg)
        assert np.abs(u - ref).max() / np.abs(ref).max() < 1e-3

    def test_laplace_matches_direct(self, rng):
        n = 4000
        src = rng.normal(size=(n, 3))
        q = rng.normal(size=n) / n
        trg = rng.normal(size=(80, 3)) * 1.2
        ref = laplace_slp_apply(src, q, trg)
        fmm = GlobalKIFMM(src, q.reshape(-1, 1), "laplace_slp")
        u = fmm.evaluate(trg).ravel()
        assert np.abs(u - ref).max() / np.abs(ref).max() < 1e-3

    def test_self_evaluation(self, rng):
        n = 3000
        src = rng.normal(size=(n, 3))
        den = rng.normal(size=(n, 3)) / n
        fmm = GlobalKIFMM(src, den, "stokes_slp", max_leaf=64)
        u = fmm.evaluate(src)
        ref = stokes_slp_apply(src, den, src)
        assert np.abs(u - ref).max() / np.abs(ref).max() < 1e-3

    def test_accuracy_improves_with_equiv_resolution(self, rng):
        n = 3000
        src = rng.normal(size=(n, 3))
        den = rng.normal(size=(n, 3)) / n
        trg = rng.normal(size=(60, 3))
        ref = stokes_slp_apply(src, den, trg)
        errs = []
        for e in (4, 6):
            fmm = GlobalKIFMM(src, den, "stokes_slp",
                              equiv_points_per_edge=e)
            errs.append(np.abs(fmm.evaluate(trg) - ref).max())
        assert errs[1] < errs[0] * 0.5

    def test_targets_outside_root_cube(self, rng):
        """Targets outside every leaf fall back to the MAC descent."""
        n = 2000
        src = rng.normal(size=(n, 3)) * 0.5
        den = rng.normal(size=(n, 3)) / n
        trg = rng.normal(size=(40, 3)) + 15.0
        fmm = GlobalKIFMM(src, den, "stokes_slp")
        u = fmm.evaluate(trg)
        assert fmm.stats["p2p"] == 0      # everything well-separated
        ref = stokes_slp_apply(src, den, trg)
        assert np.abs(u - ref).max() / np.abs(ref).max() < 1e-3

    def test_linearity(self, rng):
        n = 800
        src = rng.normal(size=(n, 3))
        q1 = rng.normal(size=(n, 1))
        q2 = rng.normal(size=(n, 1))
        trg = rng.normal(size=(20, 3)) * 3

        def u(q):
            return GlobalKIFMM(src, q, "laplace_slp").evaluate(trg)

        u12 = u(q1) + u(q2)
        assert np.abs(u(q1 + q2) - u12).max() \
            < 1e-10 * max(1.0, np.abs(u12).max()) + 1e-8

    def test_stats_counters(self, rng):
        n = 3000
        src = rng.normal(size=(n, 3))
        den = rng.normal(size=(n, 3)) / n
        fmm = GlobalKIFMM(src, den, "stokes_slp", max_leaf=64)
        fmm.evaluate(src)
        assert set(fmm.stats) == {"p2p", "m2p", "m2l", "l2p", "p2l"}
        assert fmm.stats["p2p"] > 0 and fmm.stats["m2l"] > 0
        # near field bounded well below brute force
        assert fmm.stats["p2p"] < 0.5 * n * n

    def test_threaded_checked_bit_identical_to_serial(self, rng):
        """The per-box tasks only write box-indexed state, so the
        checked executor's frozen-table and rerun probes pass and the
        threaded result is bitwise the serial result."""
        n = 3000
        src = rng.normal(size=(n, 3))
        den = rng.normal(size=(n, 3)) / n
        trg = rng.normal(size=(200, 3))
        serial = GlobalKIFMM(src, den, "stokes_slp", max_leaf=64)
        u_serial = serial.evaluate(trg)
        checked = GlobalKIFMM(src, den, "stokes_slp", max_leaf=64,
                              executor=CheckedExecutor(workers=2))
        u_checked = checked.evaluate(trg)
        assert u_serial.tobytes() == u_checked.tobytes()
        assert serial.stats == checked.stats
