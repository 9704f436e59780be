"""Which public names the traced run wraps, and the per-layer metrics the
resulting spans give.

Every ``<span>.self_ms`` and ``<span>.calls`` figure is per measured
operation of the workload; ``setup.<span>.self_ms`` is per set-up.  A
function the workload does not call reads 0; a name that no longer exists
in the package is left out of the report.
"""

from __future__ import annotations

from semshare import flow, raster

import bench_stats
from bench_spans import Target, aggregate

WARP_KINDS = ("scores", "image")
VARIANTS = ("basic", "residual", "bottleneck")


def _warp_kind(args, kwargs):
    src = args[0] if args else kwargs.get("src")
    return {"kind": "image" if isinstance(src, raster.Image) else "scores"}


def _flow_work(args, kwargs):
    target = args[0] if args else kwargs["target"]
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or flow.FlowConfig()
    return {
        "pixel_sweeps": bench_stats.pixel_sweeps(
            target.width,
            target.height,
            cfg.num_levels,
            cfg.iterations_per_level,
            cfg.min_level_size,
        )
    }


def _train_work(args, kwargs):
    head = args[0] if args else kwargs["head"]
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    pixels = sum(int(item[2].sum()) for item in dataset)
    return {
        "variant": head.variant.kind,
        "steps": cfg.iterations,
        # the batch train_fusion draws: batch_fraction of the valid pixels
        "batch": max(1, int(round(cfg.batch_fraction * pixels))),
        "weights": [list(p.shape) for p in head.params.values() if p.ndim == 2],
        "in_channels": 2 * head.num_classes,
    }


def _targets():
    pipe, flw = "semshare.pipeline", "semshare.flow"
    plain = [
        # names the benchmark itself calls, resolved in their own modules
        (pipe, "run_frame", "pipeline.run_frame"),
        (pipe, "run_ablation", "pipeline.run_ablation"),
        (pipe, "write_benchmark", "pipeline.write_benchmark"),
        ("semshare.synth", "render_scene", "synth.render_scene"),
        ("semshare.synth", "degrade_scores", "synth.degrade_scores"),
        (flw, "two_stage_map", "flow.two_stage_map"),
        # names pipeline resolves
        (pipe, "two_stage_map_detailed", "flow.two_stage_map"),
        (pipe, "grid_from_homography", "raster.grid_from_homography"),
        (pipe, "grid_from_flow", "raster.grid_from_flow"),
        (pipe, "warp_labels", "raster.warp_labels"),
        (pipe, "fuse_forward", "fusion.fuse_forward"),
        (pipe, "read_head", "fusion.read_head"),
        (pipe, "read_rig", "camera.read_rig"),
        (pipe, "read_scene", "synth.read_scene"),
        (pipe, "render_scene", "synth.render_scene"),
        (pipe, "degrade_scores", "synth.degrade_scores"),
        (pipe, "gen_flow_sample", "synth.gen_flow_sample"),
        (pipe, "read_image", "formats.read_image"),
        (pipe, "aepe", "metrics.aepe"),
        (pipe, "ssim_loss", "metrics.ssim_loss"),
        ("semshare.metrics:ConfusionMatrix", "from_labels", "metrics.ConfusionMatrix.from_labels"),
        # names flow resolves
        (flw, "compose_grids", "raster.compose_grids"),
        (flw, "grid_from_homography", "raster.grid_from_homography"),
        (flw, "grid_from_flow", "raster.grid_from_flow"),
    ]
    out = [Target(owner, attr, name) for owner, attr, name in plain]
    for owner in ("semshare.raster", pipe, flw):
        out.append(Target(owner, "warp_raster", "raster.warp_raster", _warp_kind))
    for owner in ("semshare.fusion", pipe):
        out.append(Target(owner, "train_fusion", "fusion.train_fusion", _train_work))
    # ablate_flowquality imports estimate_flow from flow when it runs
    out.append(Target(flw, "estimate_flow", "flow.estimate_flow", _flow_work))
    return out


TARGETS = _targets()

SPAN_NAMES = (
    "flow.estimate_flow",
    "flow.two_stage_map",
    "raster.grid_from_homography",
    "raster.grid_from_flow",
    "raster.compose_grids",
    "raster.warp_raster.scores",
    "raster.warp_raster.image",
    "raster.warp_labels",
    "fusion.fuse_forward",
    "fusion.train_fusion",
    "fusion.read_head",
    "synth.render_scene",
    "synth.gen_flow_sample",
    "synth.read_scene",
    "synth.degrade_scores",
    "formats.read_image",
    "camera.read_rig",
    "metrics.ssim_loss",
    "metrics.aepe",
    "metrics.ConfusionMatrix.from_labels",
    "pipeline.run_frame",
    "pipeline.run_ablation",
    "pipeline.write_benchmark",
)
SETUP_SPANS = (
    "synth.render_scene",
    "flow.estimate_flow",
    "fusion.train_fusion",
    "pipeline.write_benchmark",
)


def _sourced_catalogue():
    """(metric name, unit, span it is derived from), in report order; the
    span is None for a metric that needs no span."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.self_ms", "ms", name), (f"{name}.calls", "count", name)]
    out += [(f"setup.{name}.self_ms", "ms", name) for name in SETUP_SPANS]
    out += [
        ("flow.pixel_sweeps", "count", "flow.estimate_flow"),
        ("flow.ns_per_pixel_sweep", "ns", "flow.estimate_flow"),
        ("raster.valid_frac.narrow", "ratio", "pipeline.run_frame"),
        ("raster.valid_frac.wide", "ratio", "pipeline.run_frame"),
    ]
    for v in VARIANTS:
        out += [
            (f"fusion.train_fusion.ms.{v}", "ms", "fusion.train_fusion"),
            (f"fusion.flops_per_step.{v}", "flop", "fusion.train_fusion"),
            (f"fusion.bytes_per_step.{v}", "B", "fusion.train_fusion"),
            (f"fusion.gflops.{v}", "GFLOP/s", "fusion.train_fusion"),
        ]
    out.append(("trace_overhead_pct", "%", None))
    return out


def catalogue():
    """(metric name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, unit, _ in _sourced_catalogue()]


def present_spans(tracer) -> set[str]:
    """Span names at least one existing target records."""
    missing = set(tracer.missing())
    names = set()
    for t in tracer.targets:
        if f"{t.owner}.{t.attr}" in missing:
            continue
        if t.annotate is _warp_kind:
            names.update(f"{t.name}.{k}" for k in WARP_KINDS)
        else:
            names.add(t.name)
    return names


def per_layer(tracer, ops: int, setups: int, valid_frac, overhead_pct) -> dict:
    """Per-layer metrics from the tracer's spans: loop spans carry an int op
    id, set-up spans the op "setup"."""
    loop = aggregate(tracer.spans, lambda op: isinstance(op, int))
    setup = aggregate(tracer.spans, lambda op: op == "setup")
    values = {}
    for name in SPAN_NAMES:
        entry = loop.get(name, {"self_ns": 0, "calls": 0})
        values[f"{name}.self_ms"] = entry["self_ns"] / 1e6 / ops
        values[f"{name}.calls"] = entry["calls"] / ops
    for name in SETUP_SPANS:
        values[f"setup.{name}.self_ms"] = setup.get(name, {"self_ns": 0})["self_ns"] / 1e6 / setups

    flow_entry = loop.get("flow.estimate_flow", {"self_ns": 0, "attrs": []})
    sweeps = sum(a["pixel_sweeps"] for _, a in flow_entry["attrs"])
    values["flow.pixel_sweeps"] = sweeps / ops
    values["flow.ns_per_pixel_sweep"] = flow_entry["self_ns"] / sweeps if sweeps else 0.0
    values["raster.valid_frac.narrow"] = valid_frac.get("narrow", 0.0)
    values["raster.valid_frac.wide"] = valid_frac.get("wide", 0.0)

    train_attrs = loop.get("fusion.train_fusion", {"attrs": []})["attrs"]
    for v in VARIANTS:
        calls = [(own, a) for own, a in train_attrs if a["variant"] == v]
        steps = sum(a["steps"] for _, a in calls)
        ms_per_step = sum(own for own, _ in calls) / 1e6 / steps if steps else 0.0
        flops = bytes_moved = 0
        if calls:
            a = calls[-1][1]
            flops = bench_stats.fusion_flops_per_step(a["weights"], a["batch"])
            bytes_moved = bench_stats.fusion_bytes_per_step(a["weights"], a["in_channels"], a["batch"])
        values[f"fusion.train_fusion.ms.{v}"] = ms_per_step
        values[f"fusion.flops_per_step.{v}"] = flops
        values[f"fusion.bytes_per_step.{v}"] = bytes_moved
        values[f"fusion.gflops.{v}"] = flops / ms_per_step / 1e6 if ms_per_step else 0.0
    values["trace_overhead_pct"] = overhead_pct

    present = present_spans(tracer)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, source in _sourced_catalogue()
        if source is None or source in present
    }
