"""Fast tests of the benchmark itself; no full-size solve.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generation_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)


def test_generation_depends_on_seed_and_stays_near_nominal():
    for name, w in workloads.WORKLOADS.items():
        a, b = workloads.generate(name, 1), workloads.generate(name, 2)
        assert [p.distance_km for p in a] != [p.distance_km for p in b]
        assert a[0].alpha != b[0].alpha
        assert len(a) == len(w.distances_km) * len(w.delta_as)
        for p in a:
            assert abs(p.alpha - workloads.ALPHA) <= workloads.ALPHA_JITTER
            nominal = w.distances_km[p.index // len(w.delta_as)]
            assert nominal <= p.distance_km < nominal + workloads.DISTANCE_JITTER_KM


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    assert e2e.keys() == run.END_TO_END.keys()
    assert layer.keys() == spans.LAYER_METRICS.keys()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in workloads.WORKLOADS.items()}
    for name in [*e2e, *layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name
    for name, m in e2e.items():
        assert m["unit"] == run.END_TO_END[name]
    for name, m in layer.items():
        assert (m["unit"], m["better"]) == spans.LAYER_METRICS[name]
    assert spans.layer_metrics([], 0.0).keys() == spans.LAYER_METRICS.keys()


def _span(sid, name, start, end, parent=None, **attrs):
    return spans.Span(sid, name, start, end, parent, 0, attrs)


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span(0, "solver.solve", 0.0, 10.0),
        _span(1, "sdp.solve_sdp", 1.0, 3.0, 0, iterations=20, status="optimal"),
        _span(2, "sdp.solve_sdp", 4.0, 6.0, 0, iterations=15, status="optimal"),
        _span(3, "entropy.line_eval", 5.0, 7.0, 0),  # overlaps span 2 by 1.0
        _span(4, "sdp.solve_sdp", 9.5, 11.0, 0, iterations=5, status="max_iters"),  # runs past its parent
        _span(5, "entropy.gradient", 1.5, 2.0, 1),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - (2.0 + 3.0 + 0.5))
    assert own[1] == pytest.approx(1.5)
    assert own[5] == pytest.approx(0.5)

    m = spans.layer_metrics(tree, 0.25)
    assert m["sdp.presolve_s"] == pytest.approx(2.0)
    assert m["sdp.presolve_iters"] == 20
    assert m["sdp.subproblem_calls"] == 2
    assert m["sdp.subproblem_iters"] == 20
    assert m["sdp.subproblem_s"] == pytest.approx(3.5)
    assert m["sdp.optimal_ratio"] == pytest.approx(0.5)
    assert m["solver.self_s"] == pytest.approx(own[0])
    assert m["trace.overhead_s"] == 0.25


def test_traced_and_untraced_point_agree():
    run.pin_blas()
    dm = run.load_dmrate()
    point = workloads.Point(
        workload="test", index=0, mode="trusted", detector=(0.719, 0.719, 0.01, 0.01),
        distance_km=5.0, alpha=0.4, delta_a=0.0, cutoff=3, rates=True,
    )
    _, (untraced,) = run.run_pass(dm, [point])
    tracer = spans.Tracer()
    with spans.installed(tracer) as missing:
        _, (traced,) = run.run_pass(dm, [point], tracer)
    assert not missing
    for module_name, attr, _ in spans.TARGETS:  # every binding is restored
        assert not hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__")
    assert untraced["problems"] == [] and traced["problems"] == []
    assert run.same_outputs(untraced, traced)
    names = {s.name for s in tracer.spans}
    assert {"point", "solver.solve", "sdp.solve_sdp", "entropy.gradient", "entropy.line_eval"} <= names
    m = spans.layer_metrics(tracer.spans, 0.0)
    assert m["solver.fw_iters"] == traced["fw_iters"]
    assert m["sdp.subproblem_calls"] >= 1
