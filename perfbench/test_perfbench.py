"""Tests of the benchmark's own helpers: order statistics, computed work
counts, span self times and the tracer's wrapping and restoring of names.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import bench_layers
import bench_stats
import run
from bench_spans import Span, Target, Tracer, aggregate, resolve_owner, self_times
from bench_workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (21, 50), (34, 70), (40, 75), (50, 80), (100, 90), (1000, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert bench_stats.tail_percentile(n) == expected
    if expected is not None:
        assert bench_stats.beyond(n, expected) >= 10
        higher = [p for p in bench_stats.PERCENTILE_GRID if p > expected]
        assert all(bench_stats.beyond(n, p) < 10 for p in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))  # 1..40
    assert bench_stats.percentile(values, 75) == 30
    assert bench_stats.beyond(40, 75) == 10
    assert bench_stats.percentile(values, 50) == 20


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        Span("outer", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("b", 50, 70, 0, 0),
        Span("b.inner", 55, 60, 2, 0),
        Span("next", 200, 230, -1, 1),
    ]
    assert self_times(spans) == [50, 30, 15, 5, 30]
    totals = aggregate(spans, lambda op: op == 0)
    assert totals["outer"]["self_ns"] == 50
    assert totals["b"]["calls"] == 1
    assert "next" not in totals


def test_tracer_records_nesting_with_a_fake_clock(monkeypatch):
    ticks = iter(range(0, 1000, 10))
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer(
        [Target("fake_layer", "outer", "fake.outer"), Target("fake_layer", "inner", "fake.inner")],
        clock=lambda: next(ticks),
    )
    with tracer.scope(7):
        assert module.outer(1) == 4
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.op) == ("fake.outer", -1, 7)
    assert (inner.name, inner.parent) == ("fake.inner", 0)
    assert self_times(tracer.spans) == [20, 10]


def test_pixel_sweeps_at_384_with_four_levels():
    sizes = bench_stats.pyramid_sizes(384, 384, 4, 16)
    assert sizes == [(384, 384), (192, 192), (96, 96), (48, 48)]
    assert bench_stats.pixel_sweeps(384, 384, 4, 50, 16) == (
        (147456 + 36864 + 9216 + 2304) * 50
    ) == 9_792_000


def test_pixel_sweeps_follow_the_flow_defaults():
    from semshare.flow import FlowConfig

    cfg = FlowConfig()
    work = bench_layers._flow_work((type("T", (), {"width": 384, "height": 384})(),), {})
    assert work["pixel_sweeps"] == bench_stats.pixel_sweeps(
        384, 384, cfg.num_levels, cfg.iterations_per_level, cfg.min_level_size
    ) == 9_792_000


def test_basic_head_flops_match_a_hand_count():
    from semshare.fusion import new_head

    head = new_head("basic", 6)
    shapes = [p.shape for p in head.params.values() if p.ndim == 2]
    assert shapes == [(6, 12)]
    batch = 36_000
    forward = 2 * 6 * 12 * batch  # W @ x
    weight_grad = 2 * 6 * 12 * batch  # gy @ x.T
    input_grad = 2 * 12 * 6 * batch  # W.T @ gy
    assert bench_stats.fusion_flops_per_step(shapes, batch) == (
        forward + weight_grad + input_grad
    ) == 15_552_000


def _bound_names():
    """Every (owner, attr) the targets name, with the object bound there."""
    out = {}
    for t in bench_layers.TARGETS:
        owner = resolve_owner(t.owner)
        if owner is None or not hasattr(owner, t.attr):
            continue
        bound = owner.__dict__[t.attr] if isinstance(owner, type) else getattr(owner, t.attr)
        out[(t.owner, t.attr)] = bound
    return out


def test_traced_frame_restores_every_wrapped_name(tmp_path):
    from semshare import camera, pipeline, synth

    before = _bound_names()
    assert len(before) == len(bench_layers.TARGETS)
    scene = synth.make_scene(3, size=(64, 64))
    pair = synth.render_scene(scene)
    camera.write_rig(scene.rig, tmp_path / "rig.txt")
    wide = synth.degrade_scores(pair.wide_labels, sigma=0.5, seed=1)
    narrow = synth.degrade_scores(pair.narrow_labels, sigma=0.5, seed=2)
    cfg = pipeline.PipelineConfig(rig_path=str(tmp_path / "rig.txt"))
    tracer = Tracer(bench_layers.TARGETS)
    with tracer.scope(0):
        pipeline.run_frame(cfg, pair.wide_image, wide, pair.narrow_image, narrow)
    with pytest.raises(ZeroDivisionError):
        with tracer.scope(1):
            1 / 0
    after = _bound_names()
    assert all(after[key] is value for key, value in before.items())
    names = {s.name for s in tracer.spans}
    assert {"pipeline.run_frame", "flow.two_stage_map", "flow.estimate_flow",
            "raster.compose_grids", "raster.warp_raster.scores",
            "raster.warp_raster.image", "fusion.fuse_forward"} <= names
    metrics = bench_layers.per_layer(tracer, 1, 1, {}, 0.0)
    assert metrics["flow.estimate_flow.calls"]["value"] == 2
    assert metrics["synth.render_scene.calls"]["value"] == 0
    assert set(metrics) == {name for name, _ in bench_layers.catalogue()}


def test_absent_names_are_skipped_and_left_out_of_the_report():
    targets = bench_layers.TARGETS + [
        Target("semshare.flow", "no_such_function", "flow.no_such_function"),
        Target("semshare.no_such_module", "f", "nowhere.f"),
    ]
    tracer = Tracer(targets)
    assert set(tracer.missing()) == {
        "semshare.flow.no_such_function", "semshare.no_such_module.f"
    }
    with tracer.scope(0):
        pass
    renamed = [t for t in bench_layers.TARGETS if t.attr != "warp_labels"]
    metrics = bench_layers.per_layer(Tracer(renamed), 1, 1, {}, 0.0)
    assert "raster.warp_labels.self_ms" not in metrics
    assert "raster.compose_grids.self_ms" in metrics


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_layers.catalogue()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
