"""Tests of the benchmark's own code: span arithmetic, names, inputs, tracer."""

import json
import sys
from pathlib import Path

import numpy as np

import run

run.use_checkout_sources()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = Path(run.HERE).parent / "BENCHMARK.json"


def _span(id_, parent, layer, name, start, end, **meta):
    return {"id": id_, "parent": parent, "layer": layer, "name": name,
            "start": start, "end": end, "meta": meta}


def test_self_time_and_busy_on_nested_tree():
    tree = spans.SpanTree([
        _span(0, None, "workload", "solve", 0.0, 10.0),
        _span(1, 0, "pde", "wave_general", 0.0, 9.0, points=100),
        _span(2, 1, "quadrature", "build_ball_rule", 1.0, 3.0),
        _span(3, 2, "quadrature", "stable_sum", 2.0, 2.5),
        _span(4, 1, "fields", "GridField.fft", 4.0, 5.0),
        _span(5, 1, "pde", "wave2d_poisson", 6.0, 8.0),
        _span(6, 5, "fields", "GridField.fft", 6.5, 7.0),
    ])
    # pde is innermost on [0,1], [3,4], [5,6] and [6,6.5], [7,8]
    assert tree.self_time("pde") == 5.5
    assert tree.busy(lambda s: s["layer"] == "pde") == 9.0
    assert tree.self_time("quadrature") == 2.0
    assert tree.busy(lambda s: s["layer"] == "quadrature") == 2.0
    assert tree.busy(lambda s: s["layer"] == "fields") == 1.5
    assert len(tree.outermost(lambda s: s["layer"] == "pde")) == 1


def test_layer_metrics_counts_on_synthetic_pass():
    key = ["ball", 2, 8, "tensor", -0.5]
    metrics = spans.layer_metrics([
        _span(0, None, "workload", "solve", 0.0, 4.0),
        _span(1, 0, "trotter", "cos_noncomm_q", 0.0, 3.0, final_m=16),
        _span(2, 1, "trotter", "taylor_series_build", 0.0, 1.0, m=8, order=3, q=2, d=4),
        _span(3, 1, "trotter", "taylor_series_build", 1.0, 2.5, m=16, order=3, q=2, d=4),
        _span(4, 0, "quadrature", "build_ball_rule", 3.0, 3.5, nodes=10, key=key),
        _span(5, 0, "quadrature", "build_ball_rule", 3.5, 4.0, nodes=10, key=key),
    ], bytes_out=7)
    assert metrics["trotter.m_sum"] == 24
    assert metrics["trotter.m_useful_frac"] == 16 / 24
    assert metrics["trotter.series_build.busy_s"] == 2.5
    assert metrics["trotter.self_s"] == 3.0
    assert metrics["trotter.vecmat_flops"] == 24 * 2 * 6 * 8 * 16
    assert metrics["quadrature.rule_build.distinct_frac"] == 0.5
    assert metrics["serialization.bytes_out"] == 7


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text())
    printed_e2e = run.end_to_end_metrics(1.0, 1.0, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: metric["unit"] for name, metric in printed_e2e.items()
    }
    per_pass = spans.layer_metrics([])
    printed_layers = run.per_layer_metrics([per_pass], 0.1, spans.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: metric["unit"] for name, metric in printed_layers.items()
    }
    assert set(per_pass) | {"trace.overhead_frac"} == set(spans.PER_LAYER_UNITS)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert spans.VERIFY_CHECKS == workloads.CLI_VERIFY_CHECKS


def _leaves(obj):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield np.asarray(obj)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for name, (inputs, _) in workloads.WORKLOADS.items():
        first, again, other = (list(_leaves(inputs(s))) for s in (5, 5, 6))
        assert len(first) == len(again) == len(other), name
        assert all(np.array_equal(a, b) for a, b in zip(first, again)), name
        assert [a.shape for a in first] == [b.shape for b in other], name
        assert any(not np.array_equal(a, b) for a, b in zip(first, other)), name


def _bindings():
    import waveprop.fields
    import waveprop.quadrature
    import waveprop.verify

    snapshot = {}
    for key, mod in sys.modules.items():
        if key == "waveprop" or key.startswith("waveprop."):
            for attr, value in vars(mod).items():
                snapshot[(key, attr)] = value
    for cls, attr in ((waveprop.fields.GridField, "fft"),
                      (waveprop.quadrature.SphereRule, "integrate"),
                      (waveprop.quadrature.BallRule, "integrate")):
        snapshot[(cls.__name__, attr)] = cls.__dict__[attr]
    snapshot["registry"] = list(waveprop.verify._REGISTRY)
    return snapshot


def test_tracer_records_nested_spans_and_restores_every_binding():
    for layer in spans.LAYERS:
        __import__(f"waveprop.{layer}")
    import waveprop.pde
    import waveprop.quadrature

    before = _bindings()
    original = waveprop.quadrature.build_ball_rule
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = waveprop.quadrature.build_ball_rule
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert waveprop.pde.build_ball_rule is wrapped
        waveprop.pde.build_ball_rule(2, 4)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if key != "registry" and before[key] is not after[key]]
    assert changed == []
    assert all(a is b for a, b in zip(before["registry"], after["registry"]))

    recorded = tracer.take()
    build = next(s for s in recorded if s["name"] == "build_ball_rule")
    assert build["parent"] is None and build["meta"]["nodes"] > 0
    integrals = [s for s in recorded if s["parent"] == build["id"] and s["name"] == "integrate"]
    assert integrals
    metrics = spans.layer_metrics(recorded)
    assert metrics["quadrature.rule_build.calls"] == 1
    assert metrics["quadrature.stable_sum.calls"] == len(integrals)

