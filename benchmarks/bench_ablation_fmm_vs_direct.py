"""A1 — ablation: hierarchical summation vs direct summation.

The paper's discussion attributes the runtime to FMM evaluations; this
ablation locates the N where the O(N) global FMM overtakes the O(N^2)
direct sum in this implementation, verifies the accuracy knob, and
reports the FMM's operation counters (p2p/m2p/m2l/l2p/p2l interaction
counts) so regressions in the list construction show up as counter
blow-ups rather than silent slowdowns.
"""
import time

import numpy as np

from repro.fmm import GlobalKIFMM
from repro.kernels import stokes_slp_apply


def _run():
    rng = np.random.default_rng(0)
    rows = []
    for n in (2000, 8000, 32000):
        src = rng.normal(size=(n, 3))
        den = rng.normal(size=(n, 3)) / n
        # evaluate at every source point -- the self-interaction shape
        # a boundary-integral step actually needs (direct is O(n^2))
        t0 = time.perf_counter()
        ref = stokes_slp_apply(src, den, src)
        t_dir = time.perf_counter() - t0
        t0 = time.perf_counter()
        fmm = GlobalKIFMM(src, den, "stokes_slp")
        u_fmm = fmm.evaluate(src)
        t_fmm = time.perf_counter() - t0
        err_fmm = np.abs(u_fmm - ref).max() / np.abs(ref).max()
        rows.append((n, t_dir, t_fmm, err_fmm, dict(fmm.stats)))
    return rows


def test_ablation_fmm_vs_direct(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print("\n=== A1: global FMM vs direct (Stokes SLP) ===")
    for n, t_dir, t_fmm, err_fmm, stats in rows:
        print(f"  N={n:>6}  direct {t_dir:6.2f}s  "
              f"fmm {t_fmm:6.2f}s (err {err_fmm:.1e})")
        counts = "  ".join(f"{k}={v:.2e}" for k, v in sorted(stats.items()))
        print(f"           fmm counters: {counts}")
    # accuracy holds across sizes
    assert all(err_fmm < 5e-2 for _n, _td, _tf, err_fmm, _s in rows)
    # the hierarchical sum wins outright at the largest size
    n, t_dir, t_fmm, _, _ = rows[-1]
    assert t_fmm < t_dir
    # the FMM's near field stays a bounded fraction of the brute-force
    # pair count -- a blow-up here means broken U-list construction
    stats = rows[-1][-1]
    assert stats["p2p"] < 0.5 * n * n
