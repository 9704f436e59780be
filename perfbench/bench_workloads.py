"""The three closed-loop workloads, each a single caller that starts its next
operation when the previous one returns.

A workload is built by ``setup(seed, workdir)``, which generates every input
from the seed and hands the package only those inputs.  ``op(i)`` runs one
operation, returns the seconds spent inside the package calls and then
checks the outputs, raising ``CheckFailed`` on a wrong result.
``summary()`` gives the quality figures and the workload's named metrics.

The package is called only through public module attributes
(``pipeline.run_frame``, ``synth.render_scene``, ...), so that the tracer
in ``bench_spans`` sees the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

import numpy as np

from semshare import camera, flow, fusion, metrics, pipeline, raster, synth

NUM_CLASSES = synth.NUM_CLASSES
HEAD_INIT_SEED = 11


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def _require(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _train_config(iterations: int) -> fusion.TrainConfig:
    """FUSION_TRAIN's learning rate, batch fraction and seed, fixed steps."""
    preset = pipeline.FUSION_TRAIN
    return fusion.TrainConfig(
        learning_rate=preset.learning_rate,
        iterations=iterations,
        batch_fraction=preset.batch_fraction,
        seed=preset.seed,
    )


def _draw_seed(rng) -> int:
    return int(rng.integers(1 << 31))


def _pooled_miou(triples) -> float:
    """Class-mean IoU of one confusion matrix summed over (pred, gt, mask)."""
    cm = None
    for pred, gt, mask in triples:
        part = metrics.ConfusionMatrix.from_labels(pred, gt, mask, gt.num_classes)
        cm = part if cm is None else cm.add(part)
    return cm.iou_report().mean_iou


def _forward_item(scene, pair, rng):
    """(propagated, native, mask, gt) for the narrow branch, built like the
    fusion ablation's dataset: wide scores through the two-stage map."""
    grid = flow.two_stage_map(scene.rig, pair.wide_image, pair.narrow_image)
    wide = synth.degrade_scores(
        pair.wide_labels,
        sigma=pipeline.PROPAGATED_SIGMA,
        blur=pipeline.PROPAGATED_BLUR,
        seed=_draw_seed(rng),
    )
    propagated, mask = raster.warp_raster(wide, grid)
    native = synth.degrade_scores(
        pair.narrow_labels, sigma=pipeline.NATIVE_NARROW_SIGMA, seed=_draw_seed(rng)
    )
    return propagated, native, mask, pair.narrow_labels


def _backward_item(scene, pair, rng):
    """(back-propagated, native, mask, gt) for the wide branch, built like
    the overlap ablation's dataset: narrow scores through the swapped map."""
    grid = flow.two_stage_map(scene.rig.swapped(), pair.narrow_image, pair.wide_image)
    narrow = synth.degrade_scores(
        pair.narrow_labels, sigma=pipeline.BACKWARD_NARROW_SIGMA, seed=_draw_seed(rng)
    )
    back, mask = raster.warp_raster(narrow, grid)
    native = synth.degrade_scores(
        pair.wide_labels,
        sigma=pipeline.NATIVE_WIDE_SIGMA,
        blur=pipeline.NATIVE_WIDE_BLUR,
        seed=_draw_seed(rng),
    )
    return back, native, mask, pair.wide_labels


def _render(rng, size):
    scene = synth.make_scene(_draw_seed(rng), size=size)
    return scene, synth.render_scene(scene)


class Frame384:
    """``run_frame`` over a cycle of distinct pre-rendered 384x384 pairs."""

    name = "frame-384"
    op_label = "one run_frame call"
    named_op = "frame_ms"
    SIZE = (384, 384)
    FRAMES = 4
    # heads are per-pixel, so small scenes train them as well as large ones
    HEAD_SIZE = (128, 128)
    HEAD_SCENES = 2
    HEAD_STEPS = 900  # fewer steps leave the fused mIoU seed-sensitive

    @classmethod
    def setup(cls, seed: int, workdir: str) -> "Frame384":
        self = cls()
        rng = np.random.default_rng(seed)
        narrow_items, wide_items = [], []
        for _ in range(cls.HEAD_SCENES):
            scene, pair = _render(rng, cls.HEAD_SIZE)
            narrow_items.append(_forward_item(scene, pair, rng))
            wide_items.append(_backward_item(scene, pair, rng))
        heads = {}
        for branch, kind, items in (
            ("narrow", "residual", narrow_items),
            ("wide", "basic", wide_items),
        ):
            head, _ = fusion.train_fusion(
                fusion.new_head(kind, NUM_CLASSES, seed=HEAD_INIT_SEED),
                items,
                _train_config(cls.HEAD_STEPS),
            )
            heads[branch] = os.path.join(workdir, f"{branch}_head.bin")
            fusion.write_head(head, heads[branch])
        self.frames = []
        for k in range(cls.FRAMES):
            scene, pair = _render(rng, cls.SIZE)
            rig_path = os.path.join(workdir, f"rig_{k}.txt")
            camera.write_rig(scene.rig, rig_path)
            wide_native = synth.degrade_scores(
                pair.wide_labels,
                sigma=pipeline.NATIVE_WIDE_SIGMA,
                blur=pipeline.NATIVE_WIDE_BLUR,
                seed=_draw_seed(rng),
            )
            narrow_native = synth.degrade_scores(
                pair.narrow_labels, sigma=pipeline.NATIVE_NARROW_SIGMA, seed=_draw_seed(rng)
            )
            cfg = pipeline.PipelineConfig(
                rig_path=rig_path,
                narrow_head_path=heads["narrow"],
                wide_head_path=heads["wide"],
            )
            self.frames.append(
                {"cfg": cfg, "pair": pair, "wide": wide_native, "narrow": narrow_native}
            )
        self.first = [None] * cls.FRAMES
        return self

    def op(self, i: int) -> float:
        k = i % len(self.frames)
        f = self.frames[k]
        pair = f["pair"]
        start = time.perf_counter()
        result = pipeline.run_frame(
            f["cfg"], pair.wide_image, f["wide"], pair.narrow_image, f["narrow"]
        )
        elapsed = time.perf_counter() - start
        for branch, fused, native, mask in (
            ("narrow", result.narrow_scores, f["narrow"], result.narrow_mask),
            ("wide", result.wide_scores, f["wide"], result.wide_mask),
        ):
            outside = ~mask
            _require(
                fused.data[:, outside].tobytes() == native.data[:, outside].tobytes(),
                f"{branch} scores differ from the native scores outside {branch}_mask",
            )
        digest = hashlib.sha256(result.narrow_scores.data.tobytes())
        digest.update(result.wide_scores.data.tobytes())
        digest = digest.hexdigest()
        if self.first[k] is None:
            self.first[k] = {
                "digest": digest,
                "labels": (result.narrow_labels, result.wide_labels),
                "masks": (result.narrow_mask, result.wide_mask),
            }
        else:
            _require(digest == self.first[k]["digest"], "a repeated frame changed its fused scores")
        return elapsed

    def summary(self) -> dict:
        runs = [(f["pair"], first) for f, first in zip(self.frames, self.first) if first]
        full = np.ones(self.SIZE[::-1], bool)
        narrow = [(r["labels"][0], pair.narrow_labels, full) for pair, r in runs]
        wide = [(r["labels"][1], pair.wide_labels, full) for pair, r in runs]
        return {
            "miou": _pooled_miou(narrow + wide),
            "named": [
                ("narrow_miou", _pooled_miou(narrow), "mIoU"),
                ("wide_miou", _pooled_miou(wide), "mIoU"),
            ],
            "valid_frac": {
                branch: float(np.mean([r["masks"][b].mean() for _, r in runs]))
                for b, branch in enumerate(("narrow", "wide"))
            },
        }


class TrainHeads:
    """``train_fusion`` for each head variant in turn on a fixed dataset."""

    name = "train-heads"
    op_label = "one train_fusion call per variant"
    named_op = None
    KINDS = ("basic", "residual", "bottleneck")
    SIZE = (192, 192)
    TRAIN_SCENES = 10
    EVAL_SCENES = 2
    STEPS = 8

    @classmethod
    def setup(cls, seed: int, workdir: str) -> "TrainHeads":
        self = cls()
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(cls.TRAIN_SCENES + cls.EVAL_SCENES):
            scene, pair = _render(rng, cls.SIZE)
            items.append(_forward_item(scene, pair, rng))
        self.train_items = items[: cls.TRAIN_SCENES]
        self.eval_items = items[cls.TRAIN_SCENES :]
        self.config = _train_config(cls.STEPS)
        self.head_path = os.path.join(workdir, "head.bin")
        self.step_ms = {kind: [] for kind in cls.KINDS}
        self.first = {}
        return self

    def op(self, i: int) -> float:
        total = 0.0
        for kind in self.KINDS:
            initial = fusion.new_head(kind, NUM_CLASSES, seed=HEAD_INIT_SEED)
            start = time.perf_counter()
            head, losses = fusion.train_fusion(initial, self.train_items, self.config)
            elapsed = time.perf_counter() - start
            total += elapsed
            _require(all(np.isfinite(losses)), f"{kind}: non-finite loss")
            _require(losses[-1] < losses[0], f"{kind}: loss did not decrease")
            fusion.write_head(head, self.head_path)
            with open(self.head_path, "rb") as f:
                blob = f.read()
            if kind not in self.first:
                self.first[kind] = (blob, head)
            else:
                _require(blob == self.first[kind][0], f"{kind}: retraining changed the head")
            self.step_ms[kind].append(1e3 * elapsed / self.STEPS)
        return total

    def summary(self) -> dict:
        per_kind = {}
        for kind, (_, head) in self.first.items():
            per_kind[kind] = _pooled_miou(
                [
                    (fusion.fuse_forward(head, p, n, m).argmax_labels(), gt, m)
                    for p, n, m, gt in self.eval_items
                ]
            )
        named = [
            (f"sgd_step_ms.{kind}", statistics.median(self.step_ms[kind]), "ms")
            for kind in self.KINDS
        ]
        named.append(("heads_miou.min", min(per_kind.values()), "mIoU"))
        return {"miou": float(np.mean(list(per_kind.values()))), "named": named}


class Ablate:
    """Alternating ``run_ablation("flow")`` and ``run_ablation("flowquality")``
    against a small benchmark written in set-up."""

    name = "ablate"
    op_label = "one flow plus one flowquality suite"
    named_op = None
    SCENES = 2
    TEXTURES = 2

    @classmethod
    def setup(cls, seed: int, workdir: str) -> "Ablate":
        self = cls()
        self.root = os.path.join(workdir, "bench")
        pipeline.write_benchmark(
            self.root,
            seed=seed,
            num_scenes=cls.SCENES,
            num_planar=0,
            num_flow_samples=cls.TEXTURES,
        )
        self.suite_s = {"flow": [], "flowquality": []}
        self.first = None
        return self

    def op(self, i: int) -> float:
        tables = {}
        total = 0.0
        for suite in ("flow", "flowquality"):
            start = time.perf_counter()
            tables[suite] = pipeline.run_ablation(suite, self.root)
            elapsed = time.perf_counter() - start
            total += elapsed
            self.suite_s[suite].append(elapsed)
        text = tables["flow"].to_text() + tables["flowquality"].to_text()
        fq = tables["flowquality"]
        _require(
            fq.row("estimated")["aepe"] < fq.row("zero")["aepe"],
            "estimated flow is no better than zero flow",
        )
        fl = tables["flow"]
        _require(fl.row("pt+flow")["miou"] >= fl.row("pt")["miou"], "flow lowered the mIoU")
        if self.first is None:
            self.first = (text, tables)
        else:
            _require(text == self.first[0], "a repeated suite changed its table")
        return total

    def summary(self) -> dict:
        tables = self.first[1]
        fl, fq = tables["flow"], tables["flowquality"]
        return {
            "miou": fl.row("pt+flow")["miou"],
            "named": [
                ("suite_s.flow", statistics.median(self.suite_s["flow"]), "s"),
                ("suite_s.flowquality", statistics.median(self.suite_s["flowquality"]), "s"),
                ("flow_miou_gain", dict((d[0], d[2]) for d in fl.deltas)["pt+flow-pt"], "mIoU"),
                ("aepe", fq.row("estimated")["aepe"], "px"),
            ],
        }


WORKLOADS = {w.name: w for w in (Frame384, TrainHeads, Ablate)}
