"""Tests of the benchmark harness.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
The module fixture runs one untraced and one traced pass of every
workload (about 45 s on a 2-core machine).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import parkposet
import tracing
import workloads
from parkposet import cli, homology, kdivisible, parking_order, shelling

ROOT = Path(__file__).resolve().parents[2]

# The lru-cached builders at commit 37d9d8a.
REQUIRED_CACHES = ("build_nc_poset", "build_pp_poset", "build_pp_poset_hat",
                   "permutahedron_face_poset")


def _warm_caches() -> None:
    parking_order.build_pp_poset_hat(3)
    parking_order.build_nc_poset(3)
    parking_order.permutahedron_face_poset(3)


def _traced_pass(workload):
    rec = tracing.Recorder()
    installation = tracing.install(rec)
    try:
        _warm_caches()
        traced = workloads.Runner(workload, recorder=rec)
        traced.run_pass()
    finally:
        installation.uninstall()
    return traced, tracing.layer_metrics(rec, 1, traced.output_bytes)


@pytest.fixture(scope="module")
def passes():
    """Per workload: an untraced runner, a traced runner and the traced
    run's layer metrics, each after one pass started with warm caches."""
    out = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed=7)
        _warm_caches()
        plain = workloads.Runner(workload)
        plain.run_pass()
        out[name] = (plain, *_traced_pass(workload))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_op_starts_cold_and_passes_its_check(passes, name):
    plain, traced, _ = passes[name]
    assert plain.failures == []
    assert traced.failures == []
    assert plain.attempted == len(plain.workload.ops)


def test_an_op_that_starts_warm_fails(monkeypatch):
    monkeypatch.setattr(workloads, "clear_caches", lambda caches: None)
    _warm_caches()
    op = workloads.Op("noop", lambda: None, lambda result: None)
    runner = workloads.Runner(workloads.Workload("warm", [op]))
    runner.run_pass()
    assert len(runner.failures) == 1
    assert "warm caches" in runner.failures[0]


def test_required_caches_are_found():
    caches = workloads.library_caches()
    assert set(REQUIRED_CACHES) <= set(caches)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_results_match_untraced(passes, name):
    plain, traced, _ = passes[name]
    assert len(plain.fingerprints) == len(plain.workload.ops)
    assert traced.fingerprints == plain.fingerprints


def test_every_layer_metric_is_reported(passes):
    names = {row["name"] for row in tracing.load_layers()}
    for _, _, metrics in passes.values():
        assert set(metrics) | {"trace.overhead_frac"} == names


def test_each_layer_metric_is_nonzero_where_its_row_says_it_moves(passes):
    zero = []
    for row in tracing.load_layers():
        for move in row["moves"]:
            for workload in move["workloads"]:
                if not passes[workload][2][row["name"]] > 0:
                    zero.append((row["name"], workload))
    assert zero == []


def _largest_time(metrics: dict) -> str:
    times = {k: v for k, v in metrics.items() if k.endswith("_s") or k == "series.s"}
    return max(times, key=times.get)


def test_largest_self_times(passes):
    assert _largest_time(passes["export"][2]) == "poset.from_leq_s"
    topology = workloads.Workload("topology", workloads.topology_ops())
    assert _largest_time(_traced_pass(topology)[1]) == "homology.rank_s"


def test_benchmark_json_lists_the_layer_metrics():
    with open(ROOT / "BENCHMARK.json") as handle:
        listed = json.load(handle)["per_layer"]
    rows = tracing.load_layers()
    assert listed == [
        {"name": r["name"], "unit": r["unit"], "better": r["better"]} for r in rows
    ]


def test_wrappers_reach_every_binding_and_uninstall_restores():
    originals = (parking_order.pp_leq, parking_order.build_pp_poset,
                 parking_order.pp_join, cli._SHELLING_CHECKS)
    installation = tracing.install(tracing.Recorder())
    try:
        wrapped = parking_order.pp_leq
        assert wrapped is not originals[0]
        assert kdivisible.pp_leq is wrapped and parkposet.pp_leq is wrapped
        assert homology.build_pp_poset is parking_order.build_pp_poset
        assert homology.build_pp_poset is not originals[1]
        assert shelling.pp_join is parking_order.pp_join is not originals[2]
        assert all(fn is getattr(shelling, fn.__name__) for _, fn in cli._SHELLING_CHECKS)
        assert cli._SHELLING_CHECKS is not originals[3]
    finally:
        installation.uninstall()
    assert (parking_order.pp_leq, parking_order.build_pp_poset,
            parking_order.pp_join, cli._SHELLING_CHECKS) == originals
    assert kdivisible.pp_leq is originals[0]


def test_install_skips_functions_the_library_lacks(monkeypatch):
    monkeypatch.delattr(parking_order, "pp_meet")
    installation = tracing.install(tracing.Recorder())
    installation.uninstall()
    assert installation.missing == [("parking_order", "pp_meet")]


def test_self_time_subtracts_child_spans():
    rec = tracing.Recorder()
    rec.spans = [
        ["a", 0.0, 10.0, None, 1, 10.0],
        ["b", 1.0, 4.0, 0, 1, 3.0],
        ["c", 2.0, 3.0, 1, 1, 1.0],
    ]
    assert rec.self_times() == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_seed_decides_the_element_queries_only():
    assert workloads.element_queries(1) == workloads.element_queries(1)
    assert workloads.element_queries(1) != workloads.element_queries(2)
    for name in ("export", "analysis"):
        labels = [op.label for op in workloads.build(name, 1).ops]
        assert labels == [op.label for op in workloads.build(name, 2).ops]


def test_random_words_park():
    for q in workloads.element_queries(3):
        for word in (q.word, q.other):
            assert len(word) == q.n
            assert all(v <= i + 1 for i, v in enumerate(sorted(word)))


def test_a_wrong_result_fails_on_every_pass():
    op = workloads.Op("wrong", lambda: 1, lambda result: "wrong answer")
    runner = workloads.Runner(workloads.Workload("wrong", [op]))
    runner.run_pass()
    runner.run_pass()
    assert runner.attempted == 2
    assert runner.failures == ["wrong: wrong answer"] * 2
