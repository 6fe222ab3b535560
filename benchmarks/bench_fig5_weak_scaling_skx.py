"""E2 — Fig. 5: weak scaling on SKX (4096 RBCs + 8192 patches per node).

Paper: efficiency (vs 192 cores) 1.00, 0.88, 0.81, 0.71 at 192 -> 12288
cores; volume fractions 19-27%; collision fractions 13-17%; largest run has
1,048,576 RBCs and 3,042,967,552 unknowns per step.
"""
from repro.scaling import calibrate_costs, weak_scaling_table
from repro.scaling.harness import format_table

PAPER_EFF = [None, 1.00, 0.88, 0.81, 0.71]


def _run():
    costs = calibrate_costs(quick=True)
    return weak_scaling_table(costs=costs)


def test_fig5_weak_scaling_skx(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print("\n=== Fig. 5 reproduction (weak scaling, SKX) ===")
    print(format_table(rows, weak=True))
    print("paper eff:   ", PAPER_EFF)
    print("measured eff:", [round(r.efficiency, 2) for r in rows])
    effs = [r.efficiency for r in rows[1:]]
    assert all(a >= b for a, b in zip(effs, effs[1:]))
    assert effs[-1] > 0.5
    # Largest column matches the paper's cell/patch counts.
    assert rows[-1].n_rbc == 1048576
    assert rows[-1].n_patches == 2097152
    # DOF check: 4 dof per RBC point (X + tension), 3 per vessel node:
    dof = rows[-1].n_rbc * 544 * 4 + rows[-1].n_patches * 121 * 3
    assert abs(dof - 3042967552) / 3042967552 < 0.05

