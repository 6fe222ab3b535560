"""The benchmark's arithmetic on synthetic data: no scene is stepped."""
import json
import os

import pytest

import stats


def test_aligned_min_takes_each_step_from_its_quietest_round():
    rounds = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 9.0, 4.0]]
    assert stats.aligned_min(rounds) == [2.0, 1.0, 4.0]


def test_aligned_min_rejects_ragged_or_empty_rounds():
    with pytest.raises(ValueError):
        stats.aligned_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.aligned_min([])
    with pytest.raises(ValueError):
        stats.aligned_min([[], []])


def test_median_reports_its_sample_count():
    assert stats.median_n([5.0, 1.0, 3.0]) == (3.0, 3)
    assert stats.median_n([4.0, 1.0, 3.0, 2.0]) == (2.5, 4)


def test_throughput_uses_the_filtered_series():
    # 100 dof, 4 steps, 0.5 s in all: 100 * 4 / 0.5
    series = stats.aligned_min([[0.1, 0.2, 0.1, 0.3], [0.2, 0.1, 0.2, 0.2]])
    assert series == [0.1, 0.1, 0.1, 0.2]
    assert stats.throughput(100, series) == pytest.approx(800.0)
    with pytest.raises(ValueError):
        stats.throughput(100, [0.0, 0.0])


def test_spread_is_max_over_min():
    assert stats.spread_frac([100.0, 110.0, 105.0]) == pytest.approx(0.10)


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_is_duration_minus_child_cover_nested():
    spans = [_span("step", 0.0, 10.0, None),
             _span("a", 1.0, 4.0, 0),
             _span("b", 2.0, 3.0, 1),
             _span("c", 6.0, 9.0, 0)]
    assert stats.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    # two workers' spans overlap on [3, 4]; their union covers [1, 6]
    spans = [_span("step", 0.0, 10.0, None),
             _span("w1", 1.0, 4.0, 0),
             _span("w2", 3.0, 6.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(5.0)
    # a child reaching past its parent is clipped to the parent
    spans = [_span("step", 0.0, 2.0, None), _span("late", 1.0, 5.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_inclusive_time_does_not_bill_a_reentered_layer_twice():
    spans = [_span("fwd", 0.0, 4.0, None),
             _span("fwd", 1.0, 2.0, 0),
             _span("other", 2.0, 3.0, 0),
             _span("fwd", 5.0, 6.0, None)]
    by_name = stats.inclusive_by_name(spans)
    assert by_name["fwd"] == (pytest.approx(5.0), 3)
    assert by_name["other"] == (pytest.approx(1.0), 1)
    own = stats.self_by_name(spans)
    assert own["fwd"] == pytest.approx(2.0 + 1.0 + 1.0)


def test_layer_metrics_on_a_synthetic_trace():
    import trace
    # one 10 ms step inside the window, one outside it
    spans = [_span("core.resilience", 0.000, 0.010, None),
             _span("core.stepper", 0.001, 0.009, 0),
             _span("kernels.slp_apply", 0.002, 0.006, 1),
             _span("core.resilience", 1.000, 1.050, None)]
    out = trace.layer_metrics(spans, {"kernels.slp_pairs": 1000},
                              (0.0, 0.5))
    assert out["kernels.slp_apply_ms"] == pytest.approx(4.0)
    assert out["core.stepper_self_ms"] == pytest.approx(4.0)
    assert out["core.resilience_self_ms"] == pytest.approx(2.0)
    assert out["trace.coverage_frac"] == pytest.approx(0.4)
    assert out["kernels.slp_pairs"] == 1000
    assert out["fmm.build_ms"] == 0.0
    assert out["kernels.slp_gflops"] == pytest.approx(
        trace.SLP_FLOPS_PER_PAIR * 1000 / 0.004 / 1e9)


def test_worsening_is_signed_by_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        stats.worsening(100.0, 90.0, "sideways")


def test_verdict_against_a_bound_in_both_directions():
    assert stats.verdict(100.0, 111.0, "lower", 0.10) == "worse"
    assert stats.verdict(100.0, 109.0, "lower", 0.10) == "within"
    assert stats.verdict(100.0, 89.0, "lower", 0.10) == "better"
    assert stats.verdict(100.0, 89.0, "higher", 0.10) == "worse"
    assert stats.verdict(100.0, 111.0, "higher", 0.10) == "better"
    assert stats.verdict(100.0, 95.0, "higher", 0.10) == "within"


def test_manifest_lists_what_the_driver_prints():
    """BENCHMARK.json (at the checkout root) and run.py must name the
    same workloads and metrics, with the same units and bounds."""
    import run
    import workloads
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert manifest["paths"] == ["bench"]
    assert manifest["run_seconds"] == workloads.RUN_SECONDS
    assert ([w["name"] for w in manifest["workloads"]]
            == list(workloads.WORKLOADS))
    assert ({m["name"]: (m["unit"], m["better"], m["bound"])
             for m in manifest["end_to_end"]} == run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"])
             for m in manifest["per_layer"]]
            == [(n, *run.layer_spec(n)) for n in run.per_layer_names()])
