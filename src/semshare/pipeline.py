"""End-to-end orchestration: propagate scores between the cameras through
the two-stage map, fuse them with trained heads, and drive the benchmark
ablations.

The frame loop runs: forward share (wide scores into the narrow frame),
narrow fusion, backward share (fused narrow scores into the wide frame),
wide fusion.  Both shares are one function, `share`, run in either
direction.  Invalid pixels always fall back to the native scores, so
the wide branch never changes outside the overlap region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraRig, TextFields, read_ascii, read_rig, write_rig
from .errors import ConfigError, DataError, MetricUndefinedError, PipelineStageError, SemShareError
from .flow import FlowConfig, two_stage_map_detailed
from .formats import read_image, write_image, write_labels
from .fusion import FusionHead, TrainConfig, fuse_forward, identity_head, new_head, read_head, train_fusion
from .metrics import ConfusionMatrix, aepe, l1_photometric, smoothness, ssim_loss
from .raster import (
    FlowField,
    Image,
    LabelMap,
    ScoreMap,
    grid_from_flow,
    grid_from_homography,  # unused here; perfbench/bench_layers.py traces this binding
    warp_labels,
    warp_raster,
)
from .synth import (
    NUM_CLASSES,
    RandomTransformSpec,
    degrade_scores,
    gen_flow_sample,
    make_scene,
    read_scene,
    render_scene,
    texture_image,
    write_scene,
)

# Degradation and training presets shared by the benchmark ablations.
PROPAGATED_SIGMA = 0.45
PROPAGATED_BLUR = 1
NATIVE_NARROW_SIGMA = 0.6
BACKWARD_NARROW_SIGMA = 0.35  # narrow scores degrade less: the long focal sees far content
NATIVE_WIDE_SIGMA = 0.55
NATIVE_WIDE_BLUR = 1
FUSION_TRAIN = TrainConfig(learning_rate=0.25, iterations=3000, batch_fraction=0.1, seed=7)
OVERLAP_TRAIN = TrainConfig(learning_rate=0.25, iterations=2000, batch_fraction=0.1, seed=9)

ABLATION_SUITES = ("flow", "fusion", "overlap", "flowquality")


@dataclass
class PipelineConfig:
    """File-level configuration of the frame loop."""

    rig_path: str
    flow: FlowConfig = field(default_factory=FlowConfig)
    narrow_head_path: str | None = None
    wide_head_path: str | None = None

    def load_rig(self) -> CameraRig:
        if not os.path.exists(self.rig_path):
            raise ConfigError(f"rig file {self.rig_path!r} does not exist")
        return read_rig(self.rig_path)


def load_head(path, num_classes) -> FusionHead:
    """The fusion head stored at `path`, or the identity head if None."""
    if path is None:
        return identity_head(num_classes)
    if not os.path.exists(path):
        raise ConfigError(f"fusion head file {path!r} does not exist")
    head = read_head(path)
    if head.num_classes != num_classes:
        raise ConfigError(
            f"head at {path!r} has {head.num_classes} classes, inputs carry {num_classes}"
        )
    return head


@dataclass
class FrameResult:
    """Fused scores, labels and validity masks of both branches, plus the
    intermediates: "propagated" and "back_propagated" scores, and per
    direction ("forward", "backward") the stage-one warped image and the
    residual flow.  The backward residual flow is solved on the box of the
    stage-one footprint in the wide frame and is zero outside it."""

    narrow_scores: ScoreMap
    narrow_labels: LabelMap
    wide_scores: ScoreMap
    wide_labels: LabelMap
    narrow_mask: np.ndarray
    wide_mask: np.ndarray
    intermediates: dict


def _run_stage(stage: str, fn):
    try:
        return fn()
    except SemShareError as exc:
        raise PipelineStageError(stage, exc) from exc


def share(
    rig: CameraRig,
    scores: ScoreMap,
    wide_img: Image,
    narrow_img: Image,
    cfg: FlowConfig | None = None,
    direction: str = "forward",
):
    """Propagate scores between the cameras through the two-stage map.

    direction "forward" pulls wide-camera scores into the narrow frame;
    "backward" pulls narrow-camera scores into the wide frame by running
    the same machinery with the camera roles swapped (inverted homography,
    flow estimated in the opposite direction).

    Returns (propagated scores, validity mask, stage-one warped image,
    residual flow).
    """
    if direction == "forward":
        rig_in, source_img, target_img = rig, wide_img, narrow_img
    elif direction == "backward":
        rig_in, source_img, target_img = rig.swapped(), narrow_img, wide_img
    else:
        raise ConfigError(f"share direction must be 'forward' or 'backward', got {direction!r}")
    grid, _, stage1_image, flow = two_stage_map_detailed(rig_in, source_img, target_img, cfg)
    propagated, mask = warp_raster(scores, grid)
    return propagated, mask, stage1_image, flow


def run_frame(
    cfg: PipelineConfig,
    wide_img: Image,
    wide_scores: ScoreMap,
    narrow_img: Image,
    narrow_scores: ScoreMap,
) -> FrameResult:
    """Full closed loop over one synchronized frame pair."""
    rig = _run_stage("config", cfg.load_rig)
    c = wide_scores.num_classes
    narrow_head = _run_stage("config", lambda: load_head(cfg.narrow_head_path, c))
    wide_head = _run_stage("config", lambda: load_head(cfg.wide_head_path, c))

    propagated, narrow_mask, fwd_stage1, fwd_flow = _run_stage(
        "share_forward",
        lambda: share(rig, wide_scores, wide_img, narrow_img, cfg.flow),
    )
    narrow_fused = _run_stage(
        "fuse_narrow",
        lambda: fuse_forward(narrow_head, propagated, narrow_scores, narrow_mask),
    )
    back, wide_mask, bwd_stage1, bwd_flow = _run_stage(
        "share_backward",
        lambda: share(rig, narrow_fused, wide_img, narrow_img, cfg.flow, "backward"),
    )
    wide_fused = _run_stage(
        "fuse_wide", lambda: fuse_forward(wide_head, back, wide_scores, wide_mask)
    )

    return FrameResult(
        narrow_scores=narrow_fused,
        narrow_labels=narrow_fused.argmax_labels(),
        wide_scores=wide_fused,
        wide_labels=wide_fused.argmax_labels(),
        narrow_mask=narrow_mask,
        wide_mask=wide_mask,
        intermediates={
            "propagated": propagated,
            "back_propagated": back,
            "forward": {"stage1_image": fwd_stage1, "flow": fwd_flow},
            "backward": {"stage1_image": bwd_stage1, "flow": bwd_flow},
        },
    )


# ---------------------------------------------------------------------------
# Benchmark on disk


@dataclass
class BenchmarkEntry:
    directory: str
    planar: bool
    seed: int


@dataclass
class Benchmark:
    root: str
    seed: int
    scenes: list[BenchmarkEntry]
    textures: list[tuple[int, str, int]]  # (index, relpath, seed)

    def scene_path(self, entry: BenchmarkEntry) -> str:
        return os.path.join(self.root, entry.directory, "scene.txt")

    def nonplanar(self) -> list[BenchmarkEntry]:
        return [e for e in self.scenes if not e.planar]


def write_benchmark(
    root,
    seed: int = 42,
    num_scenes: int = 20,
    num_planar: int = 3,
    num_flow_samples: int = 50,
    scene_size=(192, 192),
    flow_size=(256, 256),
) -> Benchmark:
    """Generate the synthetic benchmark: scenes with rendered rasters plus
    texture images for flow samples, all indexed by a manifest.  The
    arguments are checked, and every scene is made, before anything is
    written; scene and flow sizes must be at least the flow pyramid's
    min_level_size on each side."""
    if num_scenes < 1 or num_planar < 0 or num_flow_samples < 0:
        raise ConfigError(
            f"benchmark needs at least one scene and no negative count, got {num_scenes} "
            f"scenes, {num_planar} planar scenes and {num_flow_samples} flow samples"
        )
    if min(*scene_size, *flow_size) < FlowConfig.min_level_size:
        raise ConfigError(
            f"benchmark sizes must be at least {FlowConfig.min_level_size} pixels on each side "
            f"(the flow's min_level_size), got {scene_size} and {flow_size}"
        )
    rng = np.random.default_rng(seed)
    scene_seeds = [int(rng.integers(1 << 31)) for _ in range(num_scenes + num_planar)]
    # every scene is made before anything is written, so one that cannot
    # be made leaves nothing behind
    made = [
        make_scene(scene_seed, size=scene_size, planar=i >= num_scenes)
        for i, scene_seed in enumerate(scene_seeds)
    ]
    os.makedirs(root, exist_ok=True)
    lines = ["version 1", f"seed {seed}",
             f"size {scene_size[0]} {scene_size[1]}",
             f"flow_size {flow_size[0]} {flow_size[1]}"]
    scenes = []
    for i, (scene_seed, scene) in enumerate(zip(scene_seeds, made)):
        planar = i >= num_scenes
        name = f"scene_{i:03d}"
        directory = os.path.join(root, name)
        os.makedirs(directory, exist_ok=True)
        write_scene(scene, os.path.join(directory, "scene.txt"))
        write_rig(scene.rig, os.path.join(directory, "rig.txt"))
        pair = render_scene(scene)
        write_image(pair.wide_image, os.path.join(directory, "wide.pgm"))
        write_image(pair.narrow_image, os.path.join(directory, "narrow.pgm"))
        write_labels(pair.wide_labels, os.path.join(directory, "wide_labels.bin"))
        write_labels(pair.narrow_labels, os.path.join(directory, "narrow_labels.bin"))
        lines.append(f"scene {i:03d} {name} planar {int(planar)} seed {scene_seed}")
        scenes.append(BenchmarkEntry(name, planar, scene_seed))
    textures = []
    tex_dir = os.path.join(root, "textures")
    os.makedirs(tex_dir, exist_ok=True)
    for i in range(num_flow_samples):
        tex_seed = int(rng.integers(1 << 31))
        rel = os.path.join("textures", f"tex_{i:03d}.pgm")
        write_image(texture_image(flow_size, tex_seed), os.path.join(root, rel))
        lines.append(f"texture {i:03d} {rel} seed {tex_seed}")
        textures.append((i, rel, tex_seed))
    with open(os.path.join(root, "manifest.txt"), "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
    return Benchmark(str(root), seed, scenes, textures)


def read_benchmark(root) -> Benchmark:
    manifest = os.path.join(root, "manifest.txt")
    if not os.path.exists(manifest):
        raise ConfigError(f"no benchmark manifest at {manifest!r}; run gen-bench first")
    fields = TextFields(read_ascii(manifest), "benchmark manifest")
    try:
        version = fields.take("version", 1)[0]
        if version != "1":
            raise DataError(f"benchmark manifest version must be 1, got {version!r}")
        seed = int(fields.take("seed", 1)[0])
        for key in ("size", "flow_size"):
            if min(int(v) for v in fields.take(key, 2)) < 1:
                raise DataError(f"benchmark manifest {key} must be positive")
        scenes = [
            BenchmarkEntry(directory, bool(int(planar)), int(scene_seed))
            for _, directory, _, planar, _, scene_seed in fields.take_all("scene", 6)
        ]
        textures = [
            (int(index), rel, int(tex_seed))
            for index, rel, _, tex_seed in fields.take_all("texture", 4)
        ]
    except ValueError as exc:
        raise DataError(f"benchmark manifest has a malformed number: {exc}") from exc
    fields.done()
    if not scenes and not textures:
        raise ConfigError(f"benchmark manifest {manifest!r} lists no content")
    return Benchmark(str(root), seed, scenes, textures)


# ---------------------------------------------------------------------------
# Ablation drivers


@dataclass
class AblationTable:
    suite: str
    rows: list  # (name, {metric: (value, count)})
    deltas: list  # (label, metric, value)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for name, metrics in self.rows:
            for metric, (value, count) in metrics.items():
                lines.append(f"row {name} {metric} {float(value)!r} {count}")
        for label, metric, value in self.deltas:
            lines.append(f"delta {label} {metric} {float(value)!r}")
        return "\n".join(lines) + "\n"

    def row(self, name: str) -> dict:
        for row_name, metrics in self.rows:
            if row_name == name:
                return {metric: value for metric, (value, _) in metrics.items()}
        raise KeyError(name)


def _load_pair(bench: Benchmark, entry: BenchmarkEntry):
    scene = read_scene(bench.scene_path(entry))
    return scene, render_scene(scene)


def _pooled_report(label_pairs):
    """IoU report over the pooled confusion of every pair; pairs with an
    empty mask (scenes whose views share no pixels) are skipped."""
    cm = None
    for pred, gt, mask in label_pairs:
        if not np.any(mask):
            continue
        part = ConfusionMatrix.from_labels(pred, gt, mask, gt.num_classes)
        cm = part if cm is None else cm.add(part)
    if cm is None:
        raise MetricUndefinedError("every scene has an empty evaluation mask")
    return cm.iou_report()


def ablate_flow(bench: Benchmark) -> AblationTable:
    """Propagated-label quality with the calibrated warp alone versus the
    calibrated warp plus estimated flow, pooled over non-planar scenes."""
    entries = bench.nonplanar()
    if not entries:
        raise ConfigError("benchmark has no non-planar scenes")
    pt_pairs, two_pairs = [], []
    for entry in entries:
        scene, pair = _load_pair(bench, entry)
        grid_two, grid_pt = two_stage_map_detailed(
            scene.rig, pair.wide_image, pair.narrow_image, FlowConfig()
        )[:2]
        lab_pt, m_pt = warp_labels(pair.wide_labels, grid_pt)
        lab_two, m_two = warp_labels(pair.wide_labels, grid_two)
        mask = m_pt & m_two
        pt_pairs.append((lab_pt, pair.narrow_labels, mask))
        two_pairs.append((lab_two, pair.narrow_labels, mask))
    r_pt = _pooled_report(pt_pairs)
    r_two = _pooled_report(two_pairs)
    rows = [
        ("pt", {"miou": (r_pt.mean_iou, r_pt.pixels)}),
        ("pt+flow", {"miou": (r_two.mean_iou, r_two.pixels)}),
    ]
    deltas = [("pt+flow-pt", "miou", r_two.mean_iou - r_pt.mean_iou)]
    return AblationTable("flow", rows, deltas)


def _fusion_dataset(bench, entries, flow_cfg, train_seed_base):
    items = []
    for entry in entries:
        scene, pair = _load_pair(bench, entry)
        wide_scores = degrade_scores(
            pair.wide_labels,
            sigma=PROPAGATED_SIGMA,
            blur=PROPAGATED_BLUR,
            seed=train_seed_base + 3 * entry.seed + 1,
        )
        propagated, mask = share(
            scene.rig, wide_scores, pair.wide_image, pair.narrow_image, flow_cfg
        )[:2]
        native = degrade_scores(
            pair.narrow_labels,
            sigma=NATIVE_NARROW_SIGMA,
            seed=train_seed_base + 3 * entry.seed + 2,
        )
        items.append((propagated, native, mask, pair.narrow_labels))
    return items


def ablate_fusion(bench: Benchmark, train_cfg: TrainConfig | None = None) -> AblationTable:
    """Head-to-head comparison of the fusion wirings against propagated
    scores alone, trained on half the scenes and evaluated on the rest."""
    train_cfg = train_cfg or FUSION_TRAIN
    entries = bench.nonplanar()
    if len(entries) < 2:
        raise ConfigError("fusion ablation needs at least two non-planar scenes")
    half = len(entries) // 2
    items = _fusion_dataset(bench, entries, FlowConfig(), train_seed_base=bench.seed)
    train_items, eval_items = items[:half], items[half:]

    r_none = _pooled_report([(p.argmax_labels(), gt, m) for p, n, m, gt in eval_items])
    rows = [("none", {"miou": (r_none.mean_iou, r_none.pixels)})]
    deltas = []
    for kind in ("basic", "residual", "bottleneck"):
        head, _ = train_fusion(new_head(kind, NUM_CLASSES, seed=11), train_items, train_cfg)
        fused = [
            (fuse_forward(head, p, n, m).argmax_labels(), gt, m) for p, n, m, gt in eval_items
        ]
        report = _pooled_report(fused)
        rows.append((kind, {"miou": (report.mean_iou, report.pixels)}))
        deltas.append((f"{kind}-none", "miou", report.mean_iou - r_none.mean_iou))
    return AblationTable("fusion", rows, deltas)


def _overlap_dataset(bench, entries, flow_cfg):
    """Back-propagated narrow scores (lightly degraded: the long focal sees
    far content more clearly) paired with heavier-degraded native wide
    scores, per scene."""
    items = []
    for entry in entries:
        scene, pair = _load_pair(bench, entry)
        narrow_scores = degrade_scores(
            pair.narrow_labels, sigma=BACKWARD_NARROW_SIGMA, seed=bench.seed + 5 * entry.seed + 1
        )
        back, mask = share(
            scene.rig, narrow_scores, pair.wide_image, pair.narrow_image, flow_cfg, "backward"
        )[:2]
        native_wide = degrade_scores(
            pair.wide_labels,
            sigma=NATIVE_WIDE_SIGMA,
            blur=NATIVE_WIDE_BLUR,
            seed=bench.seed + 5 * entry.seed + 2,
        )
        items.append((back, native_wide, mask, pair.wide_labels))
    return items


def ablate_overlap(
    bench: Benchmark, train_cfg: TrainConfig | None = None, variant: str = "basic"
) -> AblationTable:
    """Wide-branch refinement in the overlap region: back-propagated narrow
    scores (generated at lower degradation) fused with the native wide
    scores, against the native wide scores alone."""
    train_cfg = train_cfg or OVERLAP_TRAIN
    entries = bench.nonplanar()
    if len(entries) < 2:
        raise ConfigError("overlap ablation needs at least two non-planar scenes")
    half = len(entries) // 2
    items = _overlap_dataset(bench, entries, FlowConfig())
    train_items, eval_items = items[:half], items[half:]

    r_native = _pooled_report([(n.argmax_labels(), gt, m) for b, n, m, gt in eval_items])
    head, _ = train_fusion(new_head(variant, NUM_CLASSES, seed=13), train_items, train_cfg)
    r_refined = _pooled_report(
        [(fuse_forward(head, b, n, m).argmax_labels(), gt, m) for b, n, m, gt in eval_items]
    )
    rows = [
        ("native", {"miou": (r_native.mean_iou, r_native.pixels)}),
        ("refined", {"miou": (r_refined.mean_iou, r_refined.pixels)}),
    ]
    deltas = [("refined-native", "miou", r_refined.mean_iou - r_native.mean_iou)]
    return AblationTable("overlap", rows, deltas)


def ablate_flowquality(bench: Benchmark) -> AblationTable:
    """Estimator quality on the random-perspective samples: endpoint error
    plus the unsupervised loss terms, against the zero-flow baseline."""
    from .flow import estimate_flow

    if not bench.textures:
        raise ConfigError("benchmark has no flow textures")
    zero_metrics = {"aepe": [], "l1": [], "ssim": [], "smooth": []}
    est_metrics = {"aepe": [], "l1": [], "ssim": [], "smooth": []}
    pixels = 0
    for index, rel, tex_seed in bench.textures:
        img = read_image(os.path.join(bench.root, rel))
        warped, gt_flow, mask = gen_flow_sample(img, RandomTransformSpec(seed=tex_seed))
        w, h = img.size
        crop = np.zeros((h, w), bool)
        mx, my = int(0.1 * w), int(0.1 * h)
        crop[my : h - my, mx : w - mx] = True
        eval_mask = crop & mask
        pixels += int(eval_mask.sum())
        est = estimate_flow(warped, img, FlowConfig(num_levels=5))
        zero = FlowField.zero(img.size)
        zero_metrics["aepe"].append(aepe(gt_flow, zero, eval_mask))
        est_metrics["aepe"].append(aepe(gt_flow, est, eval_mask))
        zero_metrics["l1"].append(l1_photometric(warped, img, eval_mask))
        rewarped, _ = warp_raster(img, grid_from_flow(est))
        est_metrics["l1"].append(l1_photometric(warped, rewarped, eval_mask))
        zero_metrics["ssim"].append(ssim_loss(warped, img))
        est_metrics["ssim"].append(ssim_loss(warped, rewarped))
        zero_metrics["smooth"].append(smoothness(zero))
        est_metrics["smooth"].append(smoothness(est))
    rows = []
    for name, metrics in (("zero", zero_metrics), ("estimated", est_metrics)):
        rows.append((name, {k: (float(np.mean(v)), pixels) for k, v in metrics.items()}))
    deltas = [
        (
            "estimated-zero",
            "aepe",
            float(np.mean(est_metrics["aepe"]) - np.mean(zero_metrics["aepe"])),
        )
    ]
    return AblationTable("flowquality", rows, deltas)


def run_ablation(suite: str, bench_root, **kwargs) -> AblationTable:
    """Dispatch one named ablation suite against a generated benchmark."""
    bench = read_benchmark(bench_root)
    if suite == "flow":
        return ablate_flow(bench)
    if suite == "fusion":
        return ablate_fusion(bench, kwargs.get("train_cfg"))
    if suite == "overlap":
        return ablate_overlap(bench, kwargs.get("train_cfg"), kwargs.get("variant", "basic"))
    if suite == "flowquality":
        return ablate_flowquality(bench)
    raise ConfigError(f"unknown ablation suite {suite!r}; choose from {ABLATION_SUITES}")
