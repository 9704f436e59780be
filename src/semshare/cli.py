"""Command-line interface.

Subcommands: gen-bench, flow, share, train-fusion, run, ablate, eval.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure or a refused allocation.  All commands are deterministic:
identical flags and seeds produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .camera import read_rig
from .errors import (
    CalibrationError,
    ConfigError,
    DataError,
    DimensionError,
    MetricUndefinedError,
    PipelineStageError,
    PointAtInfinityError,
    SemShareError,
    TrainingError,
)
from .flow import FlowConfig, estimate_flow, flow_to_color
from .formats import (
    _MAX_LABEL_CLASSES,
    read_image,
    read_labels,
    read_mask,
    read_scores,
    write_flo,
    write_image,
    write_labels,
    write_mask,
    write_scores,
)
from .fusion import VARIANT_KINDS, TrainConfig, new_head, train_fusion, write_head
from .metrics import miou, report_to_text
from .pipeline import (
    ABLATION_SUITES,
    FUSION_TRAIN,
    PipelineConfig,
    read_benchmark,
    run_ablation,
    run_frame,
    share,
    write_benchmark,
)
from .pipeline import _branch_dataset
from .raster import LabelMap
from .synth import NUM_CLASSES


def _size(text: str):
    try:
        w, h = text.lower().split("x")
        return (int(w), int(h))
    except ValueError as exc:
        raise ConfigError(f"sizes are WIDTHxHEIGHT, got {text!r}") from exc


def _flow_config(args) -> FlowConfig:
    return FlowConfig(
        num_levels=args.levels,
        iterations_per_level=args.iterations,
        smoothness_weight=args.alpha,
    )


def _add_flow_flags(parser):
    cfg = FlowConfig()
    parser.add_argument("--levels", type=int, default=cfg.num_levels,
                        help="pyramid levels; the finest is upsampled, not solved")
    parser.add_argument("--iterations", type=int, default=cfg.iterations_per_level,
                        help="solver sweeps per solved level")
    parser.add_argument("--alpha", type=float, default=cfg.smoothness_weight,
                        help="smoothness weight")


def cmd_gen_bench(args) -> int:
    write_benchmark(
        args.out,
        seed=args.seed,
        num_scenes=args.scenes,
        num_planar=args.planar_scenes,
        num_flow_samples=args.flow_samples,
        scene_size=_size(args.size),
        flow_size=_size(args.flow_size),
    )
    print(f"benchmark written to {args.out}")
    return 0


def cmd_flow(args) -> int:
    target = read_image(args.target)
    source = read_image(args.source)
    flow = estimate_flow(target, source, _flow_config(args))
    write_flo(flow, args.out)
    if args.viz:
        write_image(flow_to_color(flow), args.viz)
    print(f"flow written to {args.out}")
    return 0


def cmd_share(args) -> int:
    rig = read_rig(args.rig)
    wide_img = read_image(args.wide_image)
    narrow_img = read_image(args.narrow_image)
    scores = read_scores(args.scores)
    shared = share(rig, scores, wide_img, narrow_img, _flow_config(args), args.direction)
    write_scores(shared.scores, args.out)
    if args.out_mask:
        write_mask(shared.mask, args.out_mask)
    if args.dump_intermediates:
        stem, _ = os.path.splitext(args.out)
        write_image(shared.stage1_image, stem + "_stage1.pgm")
        write_flo(shared.flow, stem + "_flow.flo")
    print(f"propagated scores written to {args.out}")
    return 0


def cmd_train_fusion(args) -> int:
    bench = read_benchmark(args.bench)
    cfg = TrainConfig(
        learning_rate=args.lr,
        iterations=args.train_iterations,
        batch_fraction=args.batch_fraction,
        seed=args.seed,
    )
    head = new_head(args.variant, NUM_CLASSES, seed=args.seed)
    items = _branch_dataset(bench, bench.nonplanar(), _flow_config(args), args.branch, bench.seed)
    trained, losses = train_fusion(head, items, cfg)
    write_head(trained, args.out)
    print(f"trained {args.variant} head written to {args.out} (final loss {losses[-1]:.6f})")
    return 0


def cmd_run(args) -> int:
    cfg = PipelineConfig(
        rig_path=args.rig,
        flow=_flow_config(args),
        narrow_head_path=args.narrow_head,
        wide_head_path=args.wide_head,
    )
    wide_img = read_image(args.wide_image)
    narrow_img = read_image(args.narrow_image)
    wide_scores = read_scores(args.wide_scores)
    narrow_scores = read_scores(args.narrow_scores)
    result = run_frame(cfg, wide_img, wide_scores, narrow_img, narrow_scores)
    os.makedirs(args.out, exist_ok=True)

    def path(name):
        return os.path.join(args.out, name)

    write_scores(result.narrow_scores, path("narrow_fused.bin"))
    write_labels(result.narrow_labels, path("narrow_labels.bin"))
    write_scores(result.wide_scores, path("wide_refined.bin"))
    write_labels(result.wide_labels, path("wide_labels.bin"))
    write_mask(result.narrow_mask, path("narrow_mask.pgm"))
    write_mask(result.wide_mask, path("wide_mask.pgm"))
    if args.dump_intermediates:
        for direction, prefix in (("forward", ""), ("backward", "back_")):
            shared = getattr(result, direction)
            write_image(shared.stage1_image, path(f"stage1_{direction}.pgm"))
            write_flo(shared.flow, path(f"flow_{direction}.flo"))
            write_scores(shared.scores, path(f"{prefix}propagated.bin"))
    print(f"frame results written to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    fields = ("learning_rate", "iterations", "batch_fraction", "seed")
    given = {name: getattr(args, name) for name in fields if getattr(args, name) is not None}
    table = run_ablation(args.suite, args.bench, given, args.variant)
    text = table.to_text()
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    print(text, end="")
    return 0


def cmd_eval(args) -> int:
    if args.classes is not None and not 2 <= args.classes <= _MAX_LABEL_CLASSES:
        raise ConfigError(f"--classes must be in [2, {_MAX_LABEL_CLASSES}], got {args.classes}")
    pred = read_labels(args.pred)
    gt = read_labels(args.gt)
    if args.mask:
        mask = read_mask(args.mask)
    else:
        mask = np.ones((gt.height, gt.width), dtype=bool)
    classes = gt.num_classes if args.classes is None else args.classes
    if pred.num_classes != classes:
        pred = LabelMap(pred.data, classes)
    if gt.num_classes != classes:
        gt = LabelMap(gt.data, classes)
    report = miou(pred, gt, mask, classes)
    text = report_to_text(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semshare",
        description="Dual-camera semantic score sharing: calibrated + flow warping with fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bench", help="generate the synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scenes", type=int, default=20)
    p.add_argument("--planar-scenes", type=int, default=0)
    p.add_argument("--flow-samples", type=int, default=50)
    p.add_argument("--size", default="192x192")
    p.add_argument("--flow-size", default="256x256")
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("flow", help="estimate optical flow between two images")
    p.add_argument("--target", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--out", required=True, help="output .flo path")
    p.add_argument("--viz", help="optional color-wheel visualization (PPM)")
    _add_flow_flags(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("share", help="propagate scores between the cameras")
    p.add_argument("--rig", required=True)
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--wide-image", required=True)
    p.add_argument("--narrow-image", required=True)
    p.add_argument("--scores", required=True, help="scores to propagate")
    p.add_argument("--out", required=True)
    p.add_argument("--out-mask")
    p.add_argument("--dump-intermediates", action="store_true")
    _add_flow_flags(p)
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("train-fusion", help="train a fusion head on the benchmark")
    p.add_argument("--bench", required=True)
    p.add_argument("--variant", choices=VARIANT_KINDS, default="basic")
    p.add_argument("--branch", choices=("narrow", "wide"), default="narrow")
    p.add_argument("--out", required=True)
    # FUSION_TRAIN, the narrow branch's preset, but seed 0.  Unlike ablate's,
    # these dests are not TrainConfig's field names: --train-iterations would
    # share the dest `iterations` with the flow flags' --iterations
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=FUSION_TRAIN.learning_rate)
    p.add_argument("--train-iterations", type=int, default=FUSION_TRAIN.iterations)
    p.add_argument("--batch-fraction", type=float, default=FUSION_TRAIN.batch_fraction)
    _add_flow_flags(p)
    p.set_defaults(func=cmd_train_fusion)

    p = sub.add_parser("run", help="run the full frame loop")
    p.add_argument("--rig", required=True)
    p.add_argument("--wide-image", required=True)
    p.add_argument("--wide-scores", required=True)
    p.add_argument("--narrow-image", required=True)
    p.add_argument("--narrow-scores", required=True)
    p.add_argument("--narrow-head")
    p.add_argument("--wide-head")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-intermediates", action="store_true")
    _add_flow_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run a named ablation suite")
    p.add_argument("suite", choices=ABLATION_SUITES)
    p.add_argument("--bench", required=True)
    p.add_argument("--out")
    # the overlap suite's head variant (basic when unset)
    p.add_argument("--variant", choices=VARIANT_KINDS)
    # fusion and overlap training flags, as TrainConfig fields; unset ones keep the preset
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--train-iterations", dest="iterations", type=int)
    p.add_argument("--batch-fraction", type=float)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="mIoU of predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mask", help="optional PGM mask; the overlap-region analog")
    p.add_argument("--classes", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)
    return parser


def _exit_status(exc) -> tuple[int, str]:
    """Exit code and message prefix for an error a command raised; a
    pipeline stage error exits with the code of its cause."""
    if isinstance(exc, PipelineStageError):
        return _exit_status(exc.cause)[0], "pipeline error"
    if isinstance(exc, (ConfigError, CalibrationError)):
        return 2, "config error"
    if isinstance(exc, (DataError, DimensionError, OSError)):
        return 3, "data error"
    if isinstance(exc, (PointAtInfinityError, MetricUndefinedError, TrainingError)):
        return 4, "numeric error"
    return 4, "error"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SemShareError, OSError, MemoryError) as exc:
        code, prefix = _exit_status(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
