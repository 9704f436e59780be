"""End-to-end orchestration: propagate scores between the cameras through
the two-stage map, fuse them with trained heads, and drive the benchmark
ablations.

The frame loop runs: forward share (wide scores into the narrow frame),
narrow fusion, backward share (fused narrow scores into the wide frame),
wide fusion.  Both shares are `share`, run in either direction; FrameResult
keeps each one's `Shared` record.  Invalid pixels always fall back to the
native scores, so the wide branch never changes outside the overlap region.

The ablation suites run through run_ablation, which alone holds their
training presets and the rules on which suite takes which argument.  One
builder, _branch_dataset, makes either camera branch's training items for
ablate fusion, ablate overlap and train-fusion; one routine,
_train_and_evaluate, splits the scenes into halves and trains and scores
the heads.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .camera import CameraRig, TextFields, read_ascii, read_rig, write_rig
from .errors import ConfigError, DataError, MetricUndefinedError, PipelineStageError, SemShareError
from .flow import FlowConfig, two_stage_map_detailed
from .formats import read_image, write_image, write_labels
from .fusion import VARIANT_KINDS, FusionHead, TrainConfig, fuse_forward, identity_head, new_head
from .fusion import read_head, train_fusion
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
_TRAIN_PRESETS = {"fusion": FUSION_TRAIN, "overlap": OVERLAP_TRAIN}

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


class Shared(NamedTuple):
    """One share's output in its target frame: propagated scores, validity
    mask, the source image warped by stage one alone and the residual flow
    solved against it.  It holds no grid, so a kept record frees the map."""

    scores: ScoreMap
    mask: np.ndarray
    stage1_image: Image
    flow: FlowField


@dataclass
class FrameResult:
    """Fused scores, labels and validity masks (forward.mask, backward.mask)
    of both branches, and the `Shared` records of the forward (wide into
    narrow) and backward (fused narrow into wide) shares.  The backward flow
    is solved on the box of the stage-one footprint and is zero outside it."""

    narrow_scores: ScoreMap
    narrow_labels: LabelMap
    wide_scores: ScoreMap
    wide_labels: LabelMap
    narrow_mask: np.ndarray
    wide_mask: np.ndarray
    forward: Shared
    backward: Shared


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
) -> Shared:
    """Propagate scores between the cameras through the two-stage map.

    direction "forward" pulls wide-camera scores into the narrow frame;
    "backward" pulls narrow-camera scores into the wide frame by running
    the same machinery with the camera roles swapped (inverted homography,
    flow estimated in the opposite direction).
    """
    if direction == "forward":
        rig_in, source_img, target_img = rig, wide_img, narrow_img
    elif direction == "backward":
        rig_in, source_img, target_img = rig.swapped(), narrow_img, wide_img
    else:
        raise ConfigError(f"share direction must be 'forward' or 'backward', got {direction!r}")
    grid, _, stage1_image, flow = two_stage_map_detailed(rig_in, source_img, target_img, cfg)
    return Shared(*warp_raster(scores, grid), stage1_image, flow)


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

    forward = _run_stage(
        "share_forward", lambda: share(rig, wide_scores, wide_img, narrow_img, cfg.flow)
    )
    narrow_fused = _run_stage(
        "fuse_narrow", lambda: fuse_forward(narrow_head, forward.scores, narrow_scores, forward.mask)
    )
    backward = _run_stage(
        "share_backward",
        lambda: share(rig, narrow_fused, wide_img, narrow_img, cfg.flow, "backward"),
    )
    wide_fused = _run_stage(
        "fuse_wide", lambda: fuse_forward(wide_head, backward.scores, wide_scores, backward.mask)
    )

    return FrameResult(
        narrow_scores=narrow_fused,
        narrow_labels=narrow_fused.argmax_labels(),
        wide_scores=wide_fused,
        wide_labels=wide_fused.argmax_labels(),
        narrow_mask=forward.mask,
        wide_mask=backward.mask,
        forward=forward,
        backward=backward,
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
    num_planar: int = 0,
    num_flow_samples: int = 50,
    scene_size=(192, 192),
    flow_size=(256, 256),
) -> Benchmark:
    """Generate the synthetic benchmark: scenes with rendered rasters plus
    texture images for flow samples, all indexed by a manifest.  Scene and
    flow sizes must be at least the flow pyramid's min_level_size on each
    side.  Nothing reaches `root` until the whole benchmark exists in a
    stage beside it, and the manifest is written last, so a failed call
    leaves either `root` as it was or no manifest there."""
    if num_scenes < 1 or min(num_planar, num_flow_samples, seed) < 0:
        raise ConfigError(
            f"benchmark needs at least one scene and no negative count or seed, got seed "
            f"{seed}, {num_scenes} scenes, {num_planar} planar scenes and "
            f"{num_flow_samples} flow samples"
        )
    if min(*scene_size, *flow_size) < FlowConfig.min_level_size:
        raise ConfigError(
            f"benchmark sizes must be at least {FlowConfig.min_level_size} pixels on each side "
            f"(the flow's min_level_size), got {scene_size} and {flow_size}"
        )
    rng = np.random.default_rng(seed)
    scenes = [
        BenchmarkEntry(f"scene_{i:03d}", i >= num_scenes, int(rng.integers(1 << 31)))
        for i in range(num_scenes + num_planar)
    ]
    textures = [
        (i, os.path.join("textures", f"tex_{i:03d}.pgm"), int(rng.integers(1 << 31)))
        for i in range(num_flow_samples)
    ]
    lines = ["version 1", f"seed {seed}",
             f"size {scene_size[0]} {scene_size[1]}",
             f"flow_size {flow_size[0]} {flow_size[1]}"]
    lines += [f"scene {i:03d} {e.directory} planar {int(e.planar)} seed {e.seed}"
              for i, e in enumerate(scenes)]
    lines += [f"texture {i:03d} {rel} seed {tex_seed}" for i, rel, tex_seed in textures]
    # the stage sits on root's file system, so each move below is a rename
    anchor = os.path.abspath(root)
    while not os.path.isdir(anchor):
        anchor = os.path.dirname(anchor)
    stage = tempfile.mkdtemp(prefix=".gen-bench-", dir=anchor)
    try:
        for e in scenes:
            scene = make_scene(e.seed, size=scene_size, planar=e.planar)
            pair = render_scene(scene)
            directory = os.path.join(stage, e.directory)
            os.mkdir(directory)
            write_scene(scene, os.path.join(directory, "scene.txt"))
            write_rig(scene.rig, os.path.join(directory, "rig.txt"))
            write_image(pair.wide_image, os.path.join(directory, "wide.pgm"))
            write_image(pair.narrow_image, os.path.join(directory, "narrow.pgm"))
            write_labels(pair.wide_labels, os.path.join(directory, "wide_labels.bin"))
            write_labels(pair.narrow_labels, os.path.join(directory, "narrow_labels.bin"))
        os.mkdir(os.path.join(stage, "textures"))
        for _, rel, tex_seed in textures:
            write_image(texture_image(flow_size, tex_seed), os.path.join(stage, rel))
        # the whole benchmark exists: only now is root touched, and an old
        # manifest goes first so that no failed move leaves one in place
        os.makedirs(root, exist_ok=True)
        manifest = os.path.join(root, "manifest.txt")
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest)
        for directory, _, names in os.walk(stage):
            target = os.path.join(root, os.path.relpath(directory, stage))
            os.makedirs(target, exist_ok=True)
            for name in names:
                os.replace(os.path.join(directory, name), os.path.join(target, name))
        staged = os.path.join(stage, "manifest.txt")
        with open(staged, "w", encoding="ascii") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(staged, manifest)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
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
        rows = fields.take_all("scene", 6)
        if any(planar not in ("0", "1") for _, _, _, planar, _, _ in rows):
            raise DataError("benchmark manifest planar flags must be 0 or 1")
        scenes = [
            BenchmarkEntry(directory, planar == "1", int(scene_seed))
            for _, directory, _, planar, _, scene_seed in rows
        ]
        textures = [
            (int(index), rel, int(tex_seed))
            for index, rel, _, tex_seed in fields.take_all("texture", 4)
        ]
    except ValueError as exc:
        raise DataError(f"benchmark manifest has a malformed number: {exc}") from exc
    fields.done()
    if min([seed] + [e.seed for e in scenes] + [t[2] for t in textures]) < 0:
        raise DataError("benchmark manifest seeds must be non-negative")
    paths = [os.path.normpath(p) for p in [e.directory for e in scenes] + [t[1] for t in textures]]
    if len(set(paths)) < len(paths):
        raise DataError("benchmark manifest lists a scene directory or texture path twice")
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


def _miou_row(name, label_pairs):
    """Table row `name` holding the mIoU over the pooled confusion of every
    pair, and that mean; pairs with an empty mask (scenes whose views share
    no pixels) are skipped."""
    cm = None
    for pred, gt, mask in label_pairs:
        if not np.any(mask):
            continue
        part = ConfusionMatrix.from_labels(pred, gt, mask, gt.num_classes)
        cm = part if cm is None else cm.add(part)
    if cm is None:
        raise MetricUndefinedError("every scene has an empty evaluation mask")
    report = cm.iou_report()
    return (name, {"miou": (report.mean_iou, report.pixels)}), report.mean_iou


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
        lab_pt, _ = warp_labels(pair.wide_labels, grid_pt)
        # composing only clears valid bits, so this mask lies inside stage one's
        lab_two, mask = warp_labels(pair.wide_labels, grid_two)
        pt_pairs.append((lab_pt, pair.narrow_labels, mask))
        two_pairs.append((lab_two, pair.narrow_labels, mask))
    pt_row, pt = _miou_row("pt", pt_pairs)
    two_row, two = _miou_row("pt+flow", two_pairs)
    return AblationTable("flow", [pt_row, two_row], [("pt+flow-pt", "miou", two - pt)])


# Per camera branch: the direction in which the other camera's degraded
# (sigma, blur) labels are shared into it, its native degradation (sigma,
# blur) and the per-scene seed stride.
_BRANCHES = {
    "narrow": ("forward", PROPAGATED_SIGMA, PROPAGATED_BLUR, NATIVE_NARROW_SIGMA, 0, 3),
    "wide": ("backward", BACKWARD_NARROW_SIGMA, 0, NATIVE_WIDE_SIGMA, NATIVE_WIDE_BLUR, 5),
}


def _branch_dataset(bench, entries, flow_cfg, branch, seed_base):
    """Training items (shared scores, native scores, validity mask, labels)
    of one camera branch, one per scene.  The wide branch shares back
    lightly degraded narrow scores: the long focal sees far content more
    clearly."""
    direction, sigma, blur, native_sigma, native_blur, stride = _BRANCHES[branch]
    other = "wide" if branch == "narrow" else "narrow"
    items = []
    for entry in entries:
        scene, pair = _load_pair(bench, entry)
        seed = seed_base + stride * entry.seed
        scores = degrade_scores(getattr(pair, f"{other}_labels"), sigma, blur, seed + 1)
        shared, mask = share(
            scene.rig, scores, pair.wide_image, pair.narrow_image, flow_cfg, direction
        )[:2]
        labels = getattr(pair, f"{branch}_labels")
        native = degrade_scores(labels, native_sigma, native_blur, seed + 2)
        items.append((shared, native, mask, labels))
    return items


def _fusion_dataset(bench, entries, flow_cfg, train_seed_base):
    return _branch_dataset(bench, entries, flow_cfg, "narrow", train_seed_base)


def _overlap_dataset(bench, entries, flow_cfg):
    return _branch_dataset(bench, entries, flow_cfg, "wide", bench.seed)


def _train_and_evaluate(suite, bench, build, baseline, heads, train_cfg) -> AblationTable:
    """Train each (name, head) of `heads` on the items `build(bench,
    entries)` makes of the first half of the non-planar scenes, and compare
    its fused labels on the rest against the `baseline` row: the argmax of
    the shared scores ("none") or of the native scores ("native")."""
    entries = bench.nonplanar()
    if len(entries) < 2:
        raise ConfigError(f"{suite} ablation needs at least two non-planar scenes")
    items = build(bench, entries)
    train_items, eval_items = items[: len(items) // 2], items[len(items) // 2 :]

    def row(name, scores):
        pairs = [(scores(p, n, m).argmax_labels(), gt, m) for p, n, m, gt in eval_items]
        return _miou_row(name, pairs)

    base_row, base = row(baseline, lambda p, n, m: n if baseline == "native" else p)
    rows, deltas = [base_row], []
    for name, head in heads:
        trained, _ = train_fusion(head, train_items, train_cfg)
        fused_row, value = row(name, partial(fuse_forward, trained))
        rows.append(fused_row)
        deltas.append((f"{name}-{baseline}", "miou", value - base))
    return AblationTable(suite, rows, deltas)


def ablate_fusion(bench: Benchmark, train_cfg: TrainConfig) -> AblationTable:
    """Head-to-head comparison of the fusion wirings against propagated
    scores alone, trained on half the scenes and evaluated on the rest."""
    heads = [(kind, new_head(kind, NUM_CLASSES, seed=11)) for kind in VARIANT_KINDS]
    build = partial(_fusion_dataset, flow_cfg=FlowConfig(), train_seed_base=bench.seed)
    return _train_and_evaluate("fusion", bench, build, "none", heads, train_cfg)


def ablate_overlap(bench: Benchmark, train_cfg: TrainConfig, variant: str) -> AblationTable:
    """Wide-branch refinement in the overlap region: back-propagated narrow
    scores (generated at lower degradation) fused with the native wide
    scores, against the native wide scores alone."""
    heads = [("refined", new_head(variant, NUM_CLASSES, seed=13))]
    build = partial(_overlap_dataset, flow_cfg=FlowConfig())
    return _train_and_evaluate("overlap", bench, build, "native", heads, train_cfg)


def ablate_flowquality(bench: Benchmark) -> AblationTable:
    """Estimator quality on the random-perspective samples: endpoint error
    plus the unsupervised loss terms, against the zero-flow baseline."""
    from .flow import estimate_flow

    if not bench.textures:
        raise ConfigError("benchmark has no flow textures")
    samples = {"zero": [], "estimated": []}  # per texture: aepe, l1, ssim, smooth
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
        rewarped, _ = warp_raster(img, grid_from_flow(est))
        zero = FlowField.zero(img.size)
        for name, flow, image in (("zero", zero, img), ("estimated", est, rewarped)):
            samples[name].append((
                aepe(gt_flow, flow, eval_mask),
                l1_photometric(warped, image, eval_mask),
                ssim_loss(warped, image),
                smoothness(flow),
            ))
    means = {
        name: [float(np.mean(col)) for col in zip(*values)] for name, values in samples.items()
    }
    rows = [
        (name, {k: (mean, pixels) for k, mean in zip(("aepe", "l1", "ssim", "smooth"), row)})
        for name, row in means.items()
    ]
    deltas = [("estimated-zero", "aepe", means["estimated"][0] - means["zero"][0])]
    return AblationTable("flowquality", rows, deltas)


def run_ablation(suite: str, bench_root, train=None, variant=None) -> AblationTable:
    """Run one named ablation suite against a generated benchmark.  `train`
    maps TrainConfig field names to values replacing the suite's preset
    (FUSION_TRAIN, OVERLAP_TRAIN); `variant` is the overlap head's kind
    ("basic" when None).  An argument the suite does not use, a `train`
    entry TrainConfig does not take (an unknown name, a value of the wrong
    type) and an unknown variant are ConfigErrors, raised before the
    benchmark is read."""
    if suite not in ABLATION_SUITES:
        raise ConfigError(f"unknown ablation suite {suite!r}; choose from {ABLATION_SUITES}")
    if train and suite not in _TRAIN_PRESETS:
        raise ConfigError(f"ablate {suite} trains no head; it takes no training flags")
    if variant is not None and suite != "overlap":
        raise ConfigError(f"--variant applies only to ablate overlap, not {suite}")
    if variant is not None and variant not in VARIANT_KINDS:
        raise ConfigError(f"unknown fusion variant {variant!r}; choose from {VARIANT_KINDS}")
    if suite in _TRAIN_PRESETS:
        try:
            train_cfg = replace(_TRAIN_PRESETS[suite], **(train or {}))
        except TypeError as exc:  # an unknown name
            raise ConfigError(f"ablate {suite}: bad training settings {train}: {exc}") from exc
    bench = read_benchmark(bench_root)
    if suite == "flow":
        return ablate_flow(bench)
    if suite == "flowquality":
        return ablate_flowquality(bench)
    if suite == "fusion":
        return ablate_fusion(bench, train_cfg)
    return ablate_overlap(bench, train_cfg, variant or "basic")
