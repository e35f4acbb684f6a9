"""Tests of the benchmark's own logic on synthetic inputs; no workload runs.

    python3 -m pytest perfbench -q
"""

import json

import pytest

from layers import KNOCKOUT, NORMALS, PRICE_PDE, layer_metrics
from run import score
from spans import Span, outermost, self_times, summary, union_length
from workloads import WORKLOADS, Oracle, Workload, down_and_out_call


def test_union_length_merges_overlaps_and_touching_intervals():
    assert union_length([]) == 0
    assert union_length([(0, 4), (2, 6), (6, 8), (10, 11)]) == 9
    assert union_length([(5, 5), (3, 1)]) == 0  # empty and reversed intervals cover nothing


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", "cli", 0.0, 10.0),
        Span("child", "finance", 1.0, 5.0, parent=0),
        Span("grandchild", "grid", 2.0, 4.0, parent=1),
        Span("child2", "montecarlo", 6.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", "cli", 0.0, 10.0), Span("a", "x", 1.0, 6.0, parent=0),
             Span("b", "x", 4.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_outermost_skips_calls_nested_in_the_same_set():
    spans = [Span("f", "x", 0, 4), Span("g", "x", 1, 3, parent=0), Span("f", "x", 1.5, 2, parent=1),
             Span("f", "x", 5, 6)]
    assert outermost(spans, {"f"}) == [0, 3]
    assert outermost(spans, {"g"}) == [1]


def test_summary_reports_median_quartiles_and_sample_count():
    s = summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["samples"]) == (3.0, 5)
    assert s["q1"] <= s["median"] <= s["q3"]
    assert summary([2.0, 4.0])["median"] == 3.0
    assert summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "samples": 1}
    with pytest.raises(ValueError):
        summary([])


def _normals(parent, seed, stream, start, count, t):
    return Span(NORMALS, "montecarlo", t, t + 1.0, parent=parent,
                attrs={"seed": seed, "stream": stream, "start": start, "count": count})


def test_unique_draw_ratio_is_interval_union_per_stream():
    spans = [
        Span(KNOCKOUT, "montecarlo", 0.0, 10.0),
        _normals(0, 7, 0, 0, 100, 1.0),
        _normals(0, 7, 0, 50, 100, 3.0),   # overlaps the first by 50
        _normals(None, 7, 1, 0, 100, 11.0),  # another stream: all new, outside the knockout
        _normals(None, 8, 0, 0, 100, 13.0),  # another seed: all new
    ]
    m = layer_metrics(spans, linop_bytes=0)
    assert m["montecarlo.draws"] == 400
    assert m["montecarlo.unique_draw_ratio"] == pytest.approx(350 / 400)
    assert m["montecarlo.normals_s"] == pytest.approx(4.0)
    assert m["montecarlo.ns_per_path_step"] == pytest.approx(10.0 / 200 * 1e9)


def test_pde_metrics_use_self_time_and_distinct_keys():
    spans = [
        Span(PRICE_PDE, "finance", 0.0, 2.0, attrs={"steps": 100, "banded": True, "key": "a"}),
        Span("grid.derivative_matrices", "grid", 0.5, 1.0, parent=0, attrs={"grid": [0, 1, 11]}),
        Span(PRICE_PDE, "finance", 3.0, 4.0, attrs={"steps": 100, "banded": False, "key": "a"}),
        Span(PRICE_PDE, "finance", 5.0, 6.0, attrs={"steps": 100, "banded": True, "key": "b"}),
    ]
    m = layer_metrics(spans, linop_bytes=0)
    assert m["finance.price_pde_calls"] == 3
    assert m["finance.price_pde_s"] == pytest.approx(4.0)
    assert m["finance.pde_step_us"] == pytest.approx(3.5 / 300 * 1e6)
    assert m["finance.unique_pde_ratio"] == pytest.approx(2 / 3)
    assert m["finance.pde_banded_frac"] == pytest.approx(2 / 3)
    assert m["grid.derivative_bytes"] == 2 * 8 * 11 * 11


def test_layers_that_do_not_run_report_zero():
    m = layer_metrics([Span("cli.main", "cli", 0.0, 1.0)], linop_bytes=0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert all(v == 0 for k, v in m.items() if k != "cli.self_s")


def _report(*passed):
    checks = [{"name": f"c{i}", "measured": 0.0, "tolerance": 1.0, "pass": p} for i, p in enumerate(passed)]
    return json.dumps({"checks": checks}).encode()


def _pass(codes, reports):
    return {"codes": codes, "reports": reports}


def test_score_counts_failed_checks_crashes_and_non_reproducible_reports():
    workload = Workload(lambda seed: [], lambda docs: Oracle(0.5, tolerance=1.0))
    ok = _report(True, True)
    passes = [
        _pass([0, 0], [ok, ok]),
        _pass([0, 1], [ok, _report(True, False)]),  # one failed check, and bytes differ
        _pass([-1, 0], [None, ok]),                  # crash without a report
    ]
    attempted, failed, oracle = score(workload, passes)
    # pass 0: 4 checks + oracle; pass 1: 4 checks (exit 1 fails both of cmd1)
    # + 2 reproducibility (1 differs) + oracle; pass 2: 1 unknown check (crash)
    # + 2 checks + 2 reproducibility (1 missing), no oracle (a report is missing)
    assert attempted == 5 + 7 + 5
    assert failed == 0 + 3 + 2
    assert oracle == 0.5


def test_workload_seed_orders_the_vanilla_ladder_only():
    a, b = WORKLOADS["vanilla"].commands(0), WORKLOADS["vanilla"].commands(1)
    assert a == WORKLOADS["vanilla"].commands(0) and a != b
    assert sorted(a) == sorted(b) and len(a) == 10
    assert all(x[x.index("--seed") + 1] == "0" for x in a)
    assert WORKLOADS["barrier"].commands(0) == WORKLOADS["barrier"].commands(5)
    assert WORKLOADS["verify"].commands(0) == WORKLOADS["verify"].commands(5)


def test_down_and_out_call_limits():
    # a barrier far below spot leaves the vanilla price; at spot it is knocked out
    assert down_and_out_call(100, 100, 1e-6, 0.05, 0.2, 1.0) == pytest.approx(10.450583572185565)
    assert down_and_out_call(100, 100, 100, 0.05, 0.2, 1.0) == pytest.approx(0.0, abs=1e-12)
