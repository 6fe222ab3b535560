"""A2 — ablation: check-point extrapolation order p and radius R.

The check-point parameters are the accuracy knobs of the boundary solve
(paper Sec. 5.1: R = r = 0.15 L strong scaling, 0.1 L weak scaling;
Fig. 9 uses p = 8). This
ablation sweeps (p, R-factor) on the Laplace sphere problem and reports
the error landscape: larger R improves the smooth-quadrature accuracy at
the check points but grows the extrapolation error; moderate values win.
"""
import numpy as np

from repro.bie import BoundarySolver
from repro.config import NumericsOptions
from repro.patches import cube_sphere

X0 = np.array([2.5, 0.3, 0.1])


def _solve_error(p, rf):
    opts = NumericsOptions(patch_quad=7, check_order=p, upsample_eta=1,
                           check_r_factor=rf, gmres_max_iter=40)
    s = cube_sphere(refine=0, options=opts)
    solver = BoundarySolver(s, kernel="laplace", options=opts)
    uex = lambda q: 1.0 / np.linalg.norm(q - X0, axis=1)
    phi, _ = solver.solve(uex(solver.coarse.points))
    targets = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.4]])
    return np.abs(solver.evaluate(phi, targets) - uex(targets)).max()


def _run():
    out = {}
    for p in (3, 5, 7):
        for rf in (0.1, 0.2, 0.35):
            out[(p, rf)] = _solve_error(p, rf)
    return out


def test_ablation_extrapolation(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    print("\n=== A2: extrapolation order/radius sweep (Laplace sphere) ===")
    for (p, rf), e in sorted(table.items()):
        print(f"  p={p}  R={rf:0.2f}L  err={e:.3e}")
    # The landscape is a genuine trade-off: the moderate radius wins
    # (R=0.2L resolves the check values on this fine grid), while tiny R
    # under-resolves the quadrature and large R (or high p at this coarse
    # resolution) blows up the extrapolation.
    best = min(table.values())
    assert best < 1e-3
    assert min(table[(3, 0.2)], table[(5, 0.2)]) == best or \
        min(table[(3, 0.2)], table[(5, 0.2)]) < 1e-3
    assert table[(3, 0.2)] < table[(3, 0.1)]
    assert table[(3, 0.2)] < table[(3, 0.35)]
