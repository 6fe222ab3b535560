"""Global-octree kernel-independent FMM (the true O(N) two-pass driver).

Every box replaces its sources by an *equivalent density* on a cube
surface around it, fitted so that the field matches on a larger check
surface (Tikhonov-regularized least squares, the KIFMM recipe of
Ying/Biros/Zorin that PVFMM implements). An upward and a downward pass
over one *global* octree turn the all-sources sum into the classical
O(N) KIFMM:

- **Upward** (P2M/M2M): every leaf fits an equivalent density on its
  small (1.3) surface from check values on its large (2.6) surface;
  parents aggregate children through cached per-octant translation
  matrices (scale-free by the kernel's degree -1 homogeneity).
- **Downward** (M2L/P2L/L2L): each box accumulates check values on its
  *small* surface from the equivalent densities of its V list and the
  raw sources of its X list, then fits a *downward* equivalent density
  on its large surface (the role-swapped fit of ``_fit_operator``),
  adding the parent's local field through cached per-octant L2L
  matrices.
- **Evaluation** (L2P + U/W): a target inside leaf ``b`` sums ``b``'s
  downward density (all well-separated sources), direct kernels over the
  U list (all adjacent sources) and the W-list equivalents. Targets
  outside every leaf (outside the root cube, or in a pruned octant) fall
  back to a MAC descent over the same upward data.

M2L is the flop bottleneck, so it is batched: interaction pairs are
grouped by (level, integer offset) — every pair in a group shares one
unit translation matrix — and the 316 possible offsets are compressed to
16 canonical ones through the signed-permutation symmetries of the cube
(Stokeslet equivariance ``S(Rx) = R S(x) R^T`` plus the induced surface
point permutation), cutting the cached-operator memory ~20x.

Per-leaf, per-octant and per-group stages map over the PR 4 executor;
every task only reads shared state and returns its contribution, which
the caller folds in fixed order — threaded runs are bit-identical to
serial and the ``"checked"`` executor's rerun sampling passes.
"""
from __future__ import annotations

import threading
from functools import lru_cache
from typing import Dict, List, Literal, Optional, Tuple

import numpy as np

from ..analysis.guard import freeze
from ..kernels import (
    laplace_slp_apply,
    laplace_slp_matrix,
    stokes_slp_apply,
    stokes_slp_matrix,
)
from ..runtime.executor import Executor, SerialExecutor
from .octree import Octree

KernelName = Literal["stokes_slp", "laplace_slp"]

#: Relative radii of the equivalent and check surfaces (the PVFMM
#: convention: the equivalent surface hugs the box, the check surface
#: sits just inside the minimum well-separated distance of 3 box
#: half-widths). Measured against direct sums, (1.05, 2.95) is 10-60x
#: more accurate per surface resolution than the wider (1.3, 2.6) pair
#: it replaced — the fit extrapolates less.
_EQUIV_RADIUS = 1.05
_CHECK_RADIUS = 2.95
#: Check surfaces carry ``e + _CHECK_EXTRA`` points per edge: the fits
#: are overdetermined least squares, which kills the field-sampling
#: aliasing a square check grid suffers near the separation boundary
#: (another ~30x at e=5, saturating past +2 extra points).
_CHECK_EXTRA = 2


@lru_cache(maxsize=8)
def _cube_surface(e: int) -> np.ndarray:
    """e x e points per face of the unit cube surface, shape (m, 3)."""
    t = np.linspace(-1.0, 1.0, e)
    pts = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            A, B = np.meshgrid(t, t, indexing="ij")
            face = np.empty((e * e, 3))
            # repro-lint: disable=shared-write — `face` is function-local
            face[:, axis] = sign
            others = [k for k in range(3) if k != axis]
            # repro-lint: disable=shared-write — `face` is function-local
            face[:, others[0]] = A.ravel()
            # repro-lint: disable=shared-write — `face` is function-local
            face[:, others[1]] = B.ravel()
            pts.append(face)
    pts = np.unique(np.round(np.vstack(pts), 12), axis=0)
    return freeze(pts)


@lru_cache(maxsize=32)
def _fit_operator(kernel: KernelName, e: int, viscosity: float,
                  density_radius: float = _EQUIV_RADIUS,
                  check_radius: float = _CHECK_RADIUS) -> np.ndarray:
    """Pseudo-inverse mapping check-surface values -> equivalent density
    at unit scale (both kernels are homogeneous of degree -1, so the
    operator rescales by the box size at apply time).

    The defaults fit the *upward* equivalent density (sources on the
    small surface, matched on the large one); the downward pass of the
    global FMM swaps the radii (density on the large surface, matched on
    the small one). Cached: every tree of every step shares the handful
    of distinct (kernel, resolution, viscosity, radii) SVDs.
    """
    eq = density_radius * _cube_surface(e)
    ck = check_radius * _cube_surface(e + _CHECK_EXTRA)
    if kernel == "stokes_slp":
        M = stokes_slp_matrix(eq, ck, viscosity)
    else:
        M = laplace_slp_matrix(eq, ck)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = s[0] * 1e-9
    sinv = np.where(s > cutoff, 1.0 / s, 0.0)
    return freeze((Vt.T * sinv) @ U.T)


_IDENTITY9 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def _kernel_matrix(kernel: KernelName, src: np.ndarray, trg: np.ndarray,
                   viscosity: float) -> np.ndarray:
    if kernel == "stokes_slp":
        return stokes_slp_matrix(src, trg, viscosity)
    return laplace_slp_matrix(src, trg)


# -- cube-symmetry compression of the translation operators -----------------
@lru_cache(maxsize=512)
def _offset_symmetry(off: Tuple[int, int, int]
                     ) -> Tuple[Tuple[int, int, int], Tuple[int, ...]]:
    """Canonical form of an integer box offset under the cube group.

    Returns ``(d_star, R)`` with ``R @ off == d_star`` and
    ``d*_x >= d*_y >= d*_z >= 0``; ``R`` (row-major 9-tuple) is a signed
    axis permutation, i.e. a symmetry of the cube surface.
    """
    order = sorted(range(3), key=lambda i: (-abs(off[i]), i))
    signs = [1 if off[col] >= 0 else -1 for col in order]
    r9 = tuple(sign if i == col else 0
               for sign, col in zip(signs, order) for i in range(3))
    d_star = tuple(sign * off[col] for sign, col in zip(signs, order))
    return d_star, r9


@lru_cache(maxsize=256)
def _surface_permutation(e: int, r9: Tuple[int, ...]
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Permutation ``p`` with ``R @ surf[i] == surf[p[i]]`` (and its
    inverse) for a signed axis permutation ``R`` of the cube surface."""
    surf = _cube_surface(e)
    R = np.array(r9, float).reshape(3, 3)
    index = {tuple(q): i
             for i, q in enumerate(np.round(surf, 12).tolist())}
    mapped = np.round(surf @ R.T, 12)
    p = np.array([index[tuple(q)] for q in mapped.tolist()], dtype=np.int64)
    # argsort of a permutation is its inverse
    inv = freeze(np.argsort(p, kind="stable"))
    p = freeze(p)
    return p, inv


@lru_cache(maxsize=64)
def _m2l_matrix(kernel: KernelName, e: int, viscosity: float,
                d_star: Tuple[int, int, int]) -> np.ndarray:
    """Combined M2L operator for a canonical offset: source equivalent
    density (small surface around the box at ``2 * d_star``) directly to
    the target's *downward equivalent density*, i.e. the downward fit is
    folded in. That keeps the hot GEMMs square in the density resolution
    even though the fit itself is overdetermined, and makes the operator
    scale-free (the fit's box factor cancels the unit kernel's 1/s)."""
    surf = _cube_surface(e)
    src = 2.0 * np.asarray(d_star, float) + _EQUIV_RADIUS * surf
    trg = _EQUIV_RADIUS * _cube_surface(e + _CHECK_EXTRA)
    M = _kernel_matrix(kernel, src, trg, viscosity)
    fit_down = _fit_operator(kernel, e, viscosity,
                             _CHECK_RADIUS, _EQUIV_RADIUS)
    return freeze(fit_down @ M)


def _rotate_in(e: int, r9: Tuple[int, ...], Q: np.ndarray) -> np.ndarray:
    """Map a density stack (k, m, ncomp) into the canonical frame of a
    signed axis permutation ``R``: permute surface points by ``R`` and
    (for vector densities) rotate components by ``R^T``."""
    if r9 == _IDENTITY9:
        return Q
    _, inv = _surface_permutation(e, r9)
    Qp = Q[:, inv, :]
    if Q.shape[2] == 3:
        Qp = Qp @ np.array(r9, float).reshape(3, 3).T
    return Qp


def _rotate_out(e: int, r9: Tuple[int, ...], V: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_rotate_in`: map canonical-frame results back."""
    if r9 == _IDENTITY9:
        return V
    p, _ = _surface_permutation(e, r9)
    V = V[:, p, :]
    if V.shape[2] == 3:
        V = V @ np.array(r9, float).reshape(3, 3)
    return V


def _apply_m2l(kernel: KernelName, e: int, viscosity: float,
               off: Tuple[int, int, int], Q: np.ndarray) -> np.ndarray:
    """Batched M2L: upward densities ``Q`` (k, m, ncomp) of k source
    boxes at integer offset ``off`` from their targets -> the targets'
    downward-density contributions (same shape). Test oracle for the
    symmetry-reduced M2L that :meth:`GlobalKIFMM.evaluate` applies.

    Non-canonical offsets route through the canonical operator: with
    ``d* = R off``, kernel equivariance (and the fit's, which conjugates
    the same way) gives ``V = P^T (T* (P (Q R^T))) R`` where ``P``
    permutes surface points by ``R``. Only the 16 canonical operators
    are ever assembled.
    """
    k, m, ncomp = Q.shape
    d_star, r9 = _offset_symmetry(off)
    M = _m2l_matrix(kernel, e, viscosity, d_star)
    Qw = _rotate_in(e, r9, Q).reshape(k, m * ncomp)
    V = (Qw @ M.T).reshape(k, m, ncomp)
    return _rotate_out(e, r9, V)


def _octant_center(octant: int) -> np.ndarray:
    bits = np.array([(octant >> 2) & 1, (octant >> 1) & 1, octant & 1])
    return np.where(bits, 0.5, -0.5)


@lru_cache(maxsize=64)
def _m2m_matrix(kernel: KernelName, e: int, viscosity: float,
                octant: int) -> np.ndarray:
    """Child equivalent density -> parent equivalent density (scale-free:
    the parent fit's box factor cancels the unit kernel's 1/s)."""
    src = _octant_center(octant) + (0.5 * _EQUIV_RADIUS) * _cube_surface(e)
    trg = _CHECK_RADIUS * _cube_surface(e + _CHECK_EXTRA)
    M = _kernel_matrix(kernel, src, trg, viscosity)
    fit = _fit_operator(kernel, e, viscosity)
    return freeze(fit @ M)


@lru_cache(maxsize=64)
def _l2l_matrix(kernel: KernelName, e: int, viscosity: float,
                octant: int) -> np.ndarray:
    """Parent downward density -> child downward density (the 0.5 is the
    child/parent half-width ratio left over by homogeneity)."""
    src = _CHECK_RADIUS * _cube_surface(e)
    trg = _octant_center(octant) \
        + (0.5 * _EQUIV_RADIUS) * _cube_surface(e + _CHECK_EXTRA)
    M = _kernel_matrix(kernel, src, trg, viscosity)
    fit_down = _fit_operator(kernel, e, viscosity,
                             _CHECK_RADIUS, _EQUIV_RADIUS)
    return freeze(0.5 * (fit_down @ M))


class GlobalKIFMM:
    """O(N) summation of weighted single-layer sources over one octree.

    Construction runs both passes (so the per-step cost is paid once);
    :meth:`evaluate` then serves any number of target batches.
    ``equiv_points_per_edge`` is the resolution of the equivalent surface
    (the accuracy knob); ``mac`` only steers the fallback descent for
    targets outside every leaf (a box is used in far form when
    ``dist(target, box center) >= mac * box_half_width``).

    ``stats`` counts source-target pair work per route (``p2p``,
    ``m2p``, ``m2l``, ``l2p``, ``p2l``); concurrent evaluations fold
    their local counters under a lock, so the totals are exact under
    executor fan-out.
    """

    def __init__(self, sources: np.ndarray, weighted_density: np.ndarray,
                 kernel: KernelName = "stokes_slp", viscosity: float = 1.0,
                 max_leaf: int = 128, equiv_points_per_edge: int = 5,
                 mac: float = 3.0, executor: Optional[Executor] = None):
        self.kernel: KernelName = kernel
        self.viscosity = float(viscosity)
        self.mac = float(mac)
        self.executor = executor if executor is not None else SerialExecutor()
        self.sources = np.atleast_2d(np.asarray(sources, float))
        den = np.asarray(weighted_density, float)
        self.ncomp = 3 if kernel == "stokes_slp" else 1
        self.density = den.reshape(self.sources.shape[0], self.ncomp)
        self.e = int(equiv_points_per_edge)
        self._surf = _cube_surface(self.e)
        self._ck_surf = _cube_surface(self.e + _CHECK_EXTRA)
        self._fit = _fit_operator(kernel, self.e, self.viscosity)
        self._fit_down = _fit_operator(kernel, self.e, self.viscosity,
                                       _CHECK_RADIUS, _EQUIV_RADIUS)
        self.tree = Octree(self.sources, max_leaf=max_leaf)
        self.lists = self.tree.interaction_lists()
        self.stats = {"p2p": 0, "m2p": 0, "m2l": 0, "l2p": 0, "p2l": 0}
        self._stats_lock = threading.Lock()
        m = self._surf.shape[0]
        #: per-box equivalent densities, box-indexed (the executor tasks
        #: never write these; contributions fold after each gather).
        self.up = np.zeros((self.tree.n_nodes, m, self.ncomp))
        self.down = np.zeros((self.tree.n_nodes, m, self.ncomp))
        self._upward()
        self._downward()

    # -- shared small helpers -------------------------------------------------
    def _box_eval(self, src: np.ndarray, den: np.ndarray,
                  trg: np.ndarray) -> np.ndarray:
        if self.kernel == "stokes_slp":
            return stokes_slp_apply(src, den, trg, self.viscosity)
        return laplace_slp_apply(src, den.ravel(), trg)[:, None]

    def _disjoint_eval(self, src: np.ndarray, den: np.ndarray,
                       trg: np.ndarray) -> np.ndarray:
        """Direct kernel sum for source/target sets known to be well
        separated (P2M and P2L check surfaces sit >= 1.9 box half-widths
        from their sources) in a few unchunked GEMMs — the chunking and
        close-pair patching of :func:`stokes_slp_apply` is per-call
        overhead these many small tree stages cannot afford. The
        factored ``r^2 = |x|^2 + |y|^2 - 2 x.y`` expansion is safe here:
        the guaranteed separation keeps it far above the float64
        cancellation floor at these local (few-box-width) coordinate
        scales."""
        c = src.mean(axis=0)
        s = src - c
        t = trg - c
        s2 = np.einsum("sk,sk->s", s, s)
        t2 = np.einsum("tk,tk->t", t, t)
        inv_r = 1.0 / np.sqrt(t2[:, None] + s2[None, :] - 2.0 * (t @ s.T))
        if self.kernel != "stokes_slp":
            return (inv_r @ den.reshape(-1, 1)) / (4.0 * np.pi)
        # sum_s r (r.f)/r^3 = t (sum_s c_s) - c @ s with c_ts = (r.f)/r^3
        sf = np.einsum("sk,sk->s", s, den)
        cmat = (t @ den.T - sf[None, :]) * inv_r ** 3
        out = inv_r @ den + t * cmat.sum(axis=1)[:, None] - cmat @ s
        out *= 1.0 / (8.0 * np.pi * self.viscosity)
        return out

    def _equiv_points(self, nid: int) -> np.ndarray:
        node = self.tree.nodes[nid]
        return node.center + (_EQUIV_RADIUS * node.half) * self._surf

    def _down_check_points(self, nid: int) -> np.ndarray:
        node = self.tree.nodes[nid]
        return node.center + (_EQUIV_RADIUS * node.half) * self._ck_surf

    def _down_equiv_points(self, nid: int) -> np.ndarray:
        node = self.tree.nodes[nid]
        return node.center + (_CHECK_RADIUS * node.half) * self._surf

    def _octant_ids(self, ids: np.ndarray) -> np.ndarray:
        anchors = self.tree.anchors[ids]
        return ((anchors[:, 0] & 1) << 2 | (anchors[:, 1] & 1) << 1
                | (anchors[:, 2] & 1)).astype(np.int64)

    # -- upward pass ----------------------------------------------------------
    def _upward(self) -> None:
        tree, m, nc = self.tree, self._surf.shape[0], self.ncomp
        leaves = tree.leaves()

        def p2m(nid: int) -> np.ndarray:
            node = tree.nodes[nid]
            ck = node.center + (_CHECK_RADIUS * node.half) * self._ck_surf
            vals = self._disjoint_eval(self.sources[node.indices],
                                       self.density[node.indices], ck)
            # Homogeneity: unit fit at box scale s gives q = s * fit @ v.
            return node.half * (
                self._fit @ vals.reshape(-1)).reshape(m, nc)

        for nid, q in zip(leaves, self.executor.map(p2m, leaves)):
            self.up[nid] = q

        for level in range(tree.depth(), 0, -1):
            ids = tree.level_nodes()[level]
            if ids.size == 0:
                continue
            octants = self._octant_ids(ids)
            parents = np.array([tree.nodes[int(i)].parent for i in ids],
                               dtype=np.int64)

            def m2m(o: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
                sel = ids[octants == o]
                if sel.size == 0:
                    return None
                T = _m2m_matrix(self.kernel, self.e, self.viscosity, o)
                contrib = self.up[sel].reshape(sel.size, -1) @ T.T
                return parents[octants == o], contrib.reshape(sel.size, m, nc)

            for res in self.executor.map(m2m, range(8)):
                if res is not None:
                    # one child per (parent, octant): parent rows unique
                    self.up[res[0]] += res[1]

    # -- downward pass --------------------------------------------------------
    def _downward(self) -> None:
        """Accumulate downward densities directly in density space: the
        cached M2L operators already contain the downward fit (and are
        scale-free), the P2L route applies it per box, and L2L then
        sweeps parent totals down level by level."""
        tree, m, nc = self.tree, self._surf.shape[0], self.ncomp
        raw = self.lists.v_groups(tree.anchors)
        # Batch by *canonical* offset: members of one canonical class are
        # rotated into its frame, stacked, pushed through a single GEMM
        # against the one cached operator, then rotated back — at most 16
        # GEMMs for the whole tree instead of one per raw offset (316).
        canon: Dict[Tuple[int, int, int],
                    List[Tuple[Tuple[int, int, int],
                               np.ndarray, np.ndarray]]] = {}
        for off, (tgt, src) in raw.items():
            canon.setdefault(_offset_symmetry(off)[0], []).append(
                (off, tgt, src))
        citems = sorted(canon.items())

        def m2l(item) -> List[Tuple[np.ndarray, np.ndarray]]:
            d_star, members = item
            M = _m2l_matrix(self.kernel, self.e, self.viscosity, d_star)
            rots = [_offset_symmetry(off)[1] for off, _, _ in members]
            blocks = [_rotate_in(self.e, r9, self.up[src])
                      for r9, (_, _, src) in zip(rots, members)]
            sizes = [b.shape[0] for b in blocks]
            Qw = np.concatenate(blocks).reshape(-1, m * nc)
            V = (Qw @ M.T).reshape(-1, m, nc)
            out = []
            pos = 0
            for (off, tgt, _), r9, k in zip(members, rots, sizes):
                out.append((tgt, _rotate_out(self.e, r9, V[pos:pos + k])))
                pos += k
            return out

        for results in self.executor.map(m2l, citems):
            for tgt, vals in results:
                self.down[tgt] += vals  # tgt rows unique per raw offset
        self.stats["m2l"] += sum(t.size * m for t, _ in raw.values())

        xboxes = [b for b in range(tree.n_nodes) if self.lists.X[b]]

        def p2l(b: int) -> np.ndarray:
            idx = np.concatenate([tree.nodes[a].indices
                                  for a in self.lists.X[b]])
            vals = self._disjoint_eval(self.sources[idx], self.density[idx],
                                       self._down_check_points(b))
            s = tree.nodes[b].half
            return s * (self._fit_down @ vals.reshape(-1)).reshape(m, nc)

        for b, vals in zip(xboxes, self.executor.map(p2l, xboxes)):
            self.down[b] += vals
            self.stats["p2l"] += self._ck_surf.shape[0] * sum(
                tree.nodes[a].indices.size for a in self.lists.X[b])

        for level in range(1, tree.depth() + 1):
            ids = tree.level_nodes()[level]
            if ids.size == 0:
                continue
            octants = self._octant_ids(ids)
            parents = np.array([tree.nodes[int(i)].parent for i in ids],
                               dtype=np.int64)
            for o in range(8):
                sel = ids[octants == o]
                if sel.size == 0:
                    continue
                C = _l2l_matrix(self.kernel, self.e, self.viscosity, o)
                contrib = self.down[parents[octants == o]].reshape(
                    sel.size, -1) @ C.T
                self.down[sel] += contrib.reshape(sel.size, m, nc)

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, targets: np.ndarray) -> np.ndarray:
        """Potential at arbitrary targets (self-pairs at distance 0 are
        skipped by the kernels, exactly as in the direct sums)."""
        targets = np.atleast_2d(np.asarray(targets, float))
        out = np.zeros((targets.shape[0], self.ncomp))
        tree, m = self.tree, self._surf.shape[0]
        leaf_ids = tree.leaf_of_points(targets)
        assigned = np.nonzero(leaf_ids >= 0)[0]
        order = assigned[np.argsort(leaf_ids[assigned], kind="stable")]
        bounds = np.nonzero(np.diff(leaf_ids[order]))[0] + 1
        groups = [(int(leaf_ids[g[0]]), g)
                  for g in np.split(order, bounds) if g.size]

        def leaf_task(group) -> Tuple[np.ndarray, np.ndarray, dict]:
            b, tidx = group
            trg = targets[tidx]
            local = {"p2p": 0, "m2p": 0, "l2p": tidx.size * m}
            vals = self._box_eval(self._down_equiv_points(b), self.down[b],
                                  trg)
            if self.lists.U[b]:
                idx = np.concatenate([tree.nodes[u].indices
                                      for u in self.lists.U[b]])
                vals += self._box_eval(self.sources[idx], self.density[idx],
                                       trg)
                local["p2p"] = tidx.size * idx.size
            if self.lists.W[b]:
                pts = np.concatenate([self._equiv_points(w)
                                      for w in self.lists.W[b]])
                den = self.up[self.lists.W[b]].reshape(-1, self.ncomp)
                vals += self._box_eval(pts, den, trg)
                local["m2p"] = tidx.size * pts.shape[0]
            return tidx, vals, local

        local = {key: 0 for key in self.stats}
        for tidx, vals, st in self.executor.map(leaf_task, groups):
            out[tidx] = vals
            for key, count in st.items():
                local[key] += count
        missed = np.nonzero(leaf_ids < 0)[0]
        if missed.size:
            self._descend_mac(0, targets, missed, out, local)
        with self._stats_lock:
            for key, count in local.items():
                self.stats[key] += count
        return out if self.ncomp > 1 else out.ravel()

    def _descend_mac(self, nid: int, targets: np.ndarray, tidx: np.ndarray,
                     out: np.ndarray, stats: dict) -> None:
        """MAC-descent fallback over the upward data, for targets that lie
        outside every leaf (outside the root cube or in pruned octants —
        e.g. vessel-wall evaluation points)."""
        if tidx.size == 0:
            return
        node = self.tree.nodes[nid]
        d = np.linalg.norm(targets[tidx] - node.center, axis=1)
        far = d >= self.mac * node.half
        far_idx, near_idx = tidx[far], tidx[~far]
        if far_idx.size:
            out[far_idx] += self._box_eval(self._equiv_points(nid),
                                           self.up[nid], targets[far_idx])
            stats["m2p"] += far_idx.size * self._surf.shape[0]
        if near_idx.size:
            if node.is_leaf:
                out[near_idx] += self._box_eval(
                    self.sources[node.indices], self.density[node.indices],
                    targets[near_idx])
                stats["p2p"] += near_idx.size * node.indices.size
            else:
                for cid in node.children:
                    self._descend_mac(cid, targets, near_idx, out, stats)


def stokes_slp_global_fmm(src: np.ndarray, weighted_density: np.ndarray,
                          trg: np.ndarray, viscosity: float = 1.0,
                          **kwargs) -> np.ndarray:
    """One-shot O(N) replacement for :func:`repro.kernels.stokes_slp_apply`."""
    fmm = GlobalKIFMM(src, weighted_density, "stokes_slp", viscosity,
                      **kwargs)
    return fmm.evaluate(trg)
