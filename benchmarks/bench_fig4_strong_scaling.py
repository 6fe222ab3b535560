"""E1 — Fig. 4: strong scaling of the 40,960-RBC problem on SKX.

Paper (10 time steps): total time 11257 s at 384 cores falling to 718 s at
12288 cores — efficiency 1.00, 0.98, 0.86, 0.75, 0.63, 0.49; COL+BIE-solve
efficiency 1.00, 1.05, 0.93, 0.82, 0.77, 0.66. The model combines measured
per-unit costs of this library's kernels with the machine model (see
repro.scaling); shapes should match, absolute times are anchored at the
reference column.
"""
from repro.scaling import calibrate_costs, strong_scaling_table
from repro.scaling.harness import format_table

PAPER_EFF = [1.00, 0.98, 0.86, 0.75, 0.63, 0.49]
PAPER_COLBIE_EFF = [1.00, 1.05, 0.93, 0.82, 0.77, 0.66]


def _run():
    costs = calibrate_costs(quick=True)
    return strong_scaling_table(costs=costs)


def test_fig4_strong_scaling(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print("\n=== Fig. 4 reproduction (strong scaling, SKX) ===")
    print(format_table(rows))
    print("paper total eff:   ", PAPER_EFF)
    print("measured total eff:", [round(r.efficiency, 2) for r in rows])
    print("paper COL+BIE eff: ", PAPER_COLBIE_EFF)
    print("measured COL+BIE:  ", [round(r.col_bie_efficiency, 2) for r in rows])
    # Shape assertions: monotone decay, endpoints in the paper's ballpark.
    effs = [r.efficiency for r in rows]
    assert all(a >= b for a, b in zip(effs, effs[1:]))
    assert abs(effs[-1] - PAPER_EFF[-1]) < 0.2
    assert abs(rows[-1].col_bie_efficiency - PAPER_COLBIE_EFF[-1]) < 0.2
    # FMM dominates the breakdown, as the paper reports.
    bd = rows[0].breakdown
    assert bd["BIE-FMM"] + bd["Other-FMM"] > bd["COL"] + bd["BIE-solve"]

