import dataclasses
import os
import threading

import numpy as np
import pytest
from test_flow import reference_solve_level
from test_raster import reference_bilinear_support, reference_gather_bilinear
from test_row_parts import by_part_count

from semshare import cli, flow, pipeline, raster
from semshare.camera import CameraRig, Rotation3, homography_from_rig, write_rig
from semshare.cli import main
from semshare.errors import ConfigError, DataError, MetricUndefinedError, PipelineStageError
from semshare.flow import FlowConfig, two_stage_map
from semshare.fusion import TrainConfig, identity_head, new_head, write_head
from semshare.metrics import miou
from semshare.pipeline import (
    PipelineConfig,
    _fusion_dataset,
    _overlap_dataset,
    ablate_flow,
    read_benchmark,
    run_ablation,
    run_frame,
    share,
    write_benchmark,
)
from semshare.raster import GridMap, ScoreMap, grid_from_homography, warp_labels
from semshare.synth import (
    default_rig,
    degrade_scores,
    make_scene,
    read_scene,
    render_scene,
    write_scene,
)

FAST_FLOW = FlowConfig()


def degenerate_scene(seed=9, size=(96, 96)):
    """Identical cameras, no baseline: sharing should be near-lossless."""
    wide_cam = default_rig(size).cam_wide
    rig = CameraRig(
        cam_narrow=wide_cam,
        cam_wide=wide_cam,
        rotation_wide_to_narrow=Rotation3.identity(),
        image_size_narrow=size,
        image_size_wide=size,
    )
    from semshare.synth import Box, SynthScene

    scene = SynthScene(
        rig=rig,
        baseline=(0.0, 0.0, 0.0),
        ground_height=1.5,
        ground_cell=0.7,
        boxes=(Box(depth=5.0, x_center=0.3, width=1.2, height=1.4, class_id=3, texture_seed=5),),
        texture_seed=seed,
    )
    return scene, render_scene(scene)


class TestShareForward:
    def test_degenerate_rig_preserves_scores(self):
        scene, pair = degenerate_scene()
        gt_scores = degrade_scores(pair.wide_labels, sigma=0.0)
        propagated, mask, _, _ = share(
            scene.rig, gt_scores, pair.wide_image, pair.narrow_image, FAST_FLOW
        )
        report = miou(propagated.argmax_labels(), pair.narrow_labels, mask, 6)
        assert report.mean_iou > 0.99
        with pytest.raises(ConfigError):
            share(scene.rig, gt_scores, pair.wide_image, pair.narrow_image, FAST_FLOW, "sideways")

    def test_planar_scene_high_quality(self):
        scene = make_scene(801, planar=True)
        pair = render_scene(scene)
        gt_scores = degrade_scores(pair.wide_labels, sigma=0.0)
        propagated, mask, _, _ = share(
            scene.rig, gt_scores, pair.wide_image, pair.narrow_image, FAST_FLOW
        )
        overlap = mask & pair.grid_to_narrow.valid
        report = miou(propagated.argmax_labels(), pair.narrow_labels, overlap, 6)
        assert report.mean_iou >= 0.95

    def test_planar_two_stage_matches_gt_grid(self):
        scene = make_scene(802, planar=True)
        pair = render_scene(scene)
        grid = two_stage_map(scene.rig, pair.wide_image, pair.narrow_image, FAST_FLOW)
        both = grid.valid & pair.grid_to_narrow.valid
        err = np.hypot(
            grid.sx - pair.grid_to_narrow.sx, grid.sy - pair.grid_to_narrow.sy
        )[both]
        assert err.mean() < 1.0

    def test_nonplanar_flow_beats_homography(self):
        for seed in (810, 811):
            scene = make_scene(seed, planar=False)
            pair = render_scene(scene)
            h = homography_from_rig(scene.rig)
            grid_pt = grid_from_homography(
                h, scene.rig.image_size_narrow, scene.rig.image_size_wide
            )
            grid_two = two_stage_map(scene.rig, pair.wide_image, pair.narrow_image, FAST_FLOW)
            lab_pt, m_pt = warp_labels(pair.wide_labels, grid_pt)
            lab_two, m_two = warp_labels(pair.wide_labels, grid_two)
            mask = m_pt & m_two
            miou_pt = miou(lab_pt, pair.narrow_labels, mask, 6).mean_iou
            miou_two = miou(lab_two, pair.narrow_labels, mask, 6).mean_iou
            assert miou_two > miou_pt


class TestShareBackward:
    def test_roundtrip_on_degenerate_rig(self):
        scene, pair = degenerate_scene(seed=12)
        gt_scores = degrade_scores(pair.narrow_labels, sigma=0.0)
        back, mask, _, _ = share(
            scene.rig, gt_scores, pair.wide_image, pair.narrow_image, FAST_FLOW, "backward"
        )
        agree = (back.argmax_labels().data == pair.wide_labels.data)[mask]
        assert agree.mean() >= 0.98

    def test_outside_overlap_returns_native_exactly(self):
        scene = make_scene(820, planar=False)
        pair = render_scene(scene)
        narrow_scores = degrade_scores(pair.narrow_labels, sigma=0.2, seed=1)
        native_wide = degrade_scores(pair.wide_labels, sigma=0.2, seed=2)
        back, mask, _, _ = share(
            scene.rig, narrow_scores, pair.wide_image, pair.narrow_image, FAST_FLOW, "backward"
        )
        fused = __import__("semshare.fusion", fromlist=["fuse_forward"]).fuse_forward(
            identity_head(6), back, native_wide, mask
        )
        outside = ~mask
        assert outside.any()
        assert np.array_equal(fused.data[:, outside], native_wide.data[:, outside])

    def test_planar_backward_quality(self):
        scene = make_scene(821, planar=True)
        pair = render_scene(scene)
        gt_scores = degrade_scores(pair.narrow_labels, sigma=0.0)
        back, mask, _, _ = share(
            scene.rig, gt_scores, pair.wide_image, pair.narrow_image, FAST_FLOW, "backward"
        )
        report = miou(back.argmax_labels(), pair.wide_labels, mask & pair.grid_to_wide.valid, 6)
        assert report.mean_iou >= 0.95

    def test_backward_mask_confined_to_narrow_footprint(self):
        # the flow stage must not manufacture correspondences outside the
        # region the calibrated warp actually covered with narrow content
        from semshare.camera import invert_homography
        from semshare.raster import grid_from_homography

        scene = make_scene(822, planar=False)
        pair = render_scene(scene)
        narrow_scores = degrade_scores(pair.narrow_labels, sigma=0.2, seed=1)
        _, mask, _, _ = share(
            scene.rig, narrow_scores, pair.wide_image, pair.narrow_image, FAST_FLOW, "backward"
        )
        h_inv = invert_homography(homography_from_rig(scene.rig))
        footprint = grid_from_homography(
            h_inv, scene.rig.image_size_wide, scene.rig.image_size_narrow
        ).valid
        assert not (mask & ~footprint).any()
        assert 0.05 < mask.mean() < 0.5  # roughly the overlap, not the frame


class TestRunFrame:
    def make_inputs(self, seed=830):
        scene = make_scene(seed, planar=False)
        pair = render_scene(scene)
        wide_scores = degrade_scores(pair.wide_labels, sigma=0.3, seed=3)
        narrow_scores = degrade_scores(pair.narrow_labels, sigma=0.3, seed=4)
        return scene, pair, wide_scores, narrow_scores

    def test_identity_heads_pass_native_argmax(self, tmp_path):
        scene, pair, wide_scores, narrow_scores = self.make_inputs()
        rig_path = tmp_path / "rig.txt"
        write_rig(scene.rig, rig_path)
        cfg = PipelineConfig(rig_path=str(rig_path), flow=FAST_FLOW)
        result = run_frame(cfg, pair.wide_image, wide_scores, pair.narrow_image, narrow_scores)
        # wide branch: identity fusion returns native scores everywhere
        assert np.array_equal(
            result.wide_labels.data, wide_scores.argmax_labels().data
        )
        assert np.array_equal(
            result.narrow_labels.data, narrow_scores.argmax_labels().data
        )

    def test_wide_branch_untouched_outside_overlap(self, tmp_path):
        scene, pair, wide_scores, narrow_scores = self.make_inputs(831)
        rig_path = tmp_path / "rig.txt"
        write_rig(scene.rig, rig_path)
        head_path = tmp_path / "head.bin"
        write_head(identity_head(6), head_path)
        cfg = PipelineConfig(
            rig_path=str(rig_path),
            flow=FAST_FLOW,
            narrow_head_path=str(head_path),
            wide_head_path=str(head_path),
        )
        result = run_frame(cfg, pair.wide_image, wide_scores, pair.narrow_image, narrow_scores)
        outside = ~result.wide_mask
        assert np.array_equal(result.wide_scores.data[:, outside], wide_scores.data[:, outside])

    def test_deterministic(self, tmp_path):
        scene, pair, wide_scores, narrow_scores = self.make_inputs(832)
        rig_path = tmp_path / "rig.txt"
        write_rig(scene.rig, rig_path)
        cfg = PipelineConfig(rig_path=str(rig_path), flow=FAST_FLOW)
        a = run_frame(cfg, pair.wide_image, wide_scores, pair.narrow_image, narrow_scores)
        b = run_frame(cfg, pair.wide_image, wide_scores, pair.narrow_image, narrow_scores)
        assert np.array_equal(a.narrow_scores.data, b.narrow_scores.data)
        assert np.array_equal(a.wide_scores.data, b.wide_scores.data)
        assert np.array_equal(a.forward.flow.data, b.forward.flow.data)

    def test_stage_tagged_errors(self, tmp_path):
        scene, pair, wide_scores, narrow_scores = self.make_inputs(833)
        cfg = PipelineConfig(rig_path=str(tmp_path / "missing.txt"), flow=FAST_FLOW)
        with pytest.raises(PipelineStageError) as exc:
            run_frame(cfg, pair.wide_image, wide_scores, pair.narrow_image, narrow_scores)
        assert exc.value.stage == "config"

        rig_path = tmp_path / "rig.txt"
        write_rig(scene.rig, rig_path)
        cfg = PipelineConfig(rig_path=str(rig_path), flow=FAST_FLOW)
        bad_scores = ScoreMap(np.zeros((6, 10, 10)))
        with pytest.raises(PipelineStageError) as exc:
            run_frame(cfg, pair.wide_image, bad_scores, pair.narrow_image, narrow_scores)
        assert exc.value.stage in ("share_forward", "fuse_narrow")


def raster_bytes(value):
    """Every array of a run_frame output, flattened to {path: bytes}.  Dicts
    and NamedTuple records are walked by key or field name; any other leaf
    must be an ndarray or a raster with an ndarray `.data`."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {
            f"{key}.{path}": data
            for key, item in value.items()
            for path, data in raster_bytes(item).items()
        }
    data = value if isinstance(value, np.ndarray) else getattr(value, "data", None)
    if not isinstance(data, np.ndarray):
        raise TypeError(f"{type(value).__name__} is neither an ndarray nor a raster")
    return {"": data.tobytes()}


def guard_frame(tmp_path):
    """(config, inputs) of a run_frame call: an odd height that is no band
    multiple, and non-identity heads on both branches."""
    scene = make_scene(834, size=(96, 97), planar=False)
    pair = render_scene(scene)
    write_rig(scene.rig, tmp_path / "rig.txt")
    write_head(new_head("residual", 6, seed=1, init_scale=1.0), tmp_path / "narrow.bin")
    write_head(new_head("bottleneck", 6, seed=2, init_scale=1.0), tmp_path / "wide.bin")
    cfg = PipelineConfig(
        rig_path=str(tmp_path / "rig.txt"),
        narrow_head_path=str(tmp_path / "narrow.bin"),
        wide_head_path=str(tmp_path / "wide.bin"),
    )
    inputs = (
        pair.wide_image,
        degrade_scores(pair.wide_labels, sigma=0.3, seed=5),
        pair.narrow_image,
        degrade_scores(pair.narrow_labels, sigma=0.3, seed=6),
    )
    return cfg, inputs


def frame_bytes(cfg, inputs):
    """Every array of run_frame(cfg, *inputs), as {path: bytes}."""
    result = run_frame(cfg, *inputs)
    return raster_bytes({f.name: getattr(result, f.name) for f in dataclasses.fields(result)})


class TestFrameRecords:
    def test_records_are_the_direct_shares_and_no_field_is_a_dict(self, tmp_path):
        """run_frame's forward and backward records are, byte for byte, the
        share calls made directly: the wide scores forward, the fused narrow
        scores backward."""
        cfg, (wide_img, wide_scores, narrow_img, narrow_scores) = guard_frame(tmp_path)
        result = run_frame(cfg, wide_img, wide_scores, narrow_img, narrow_scores)
        rig = cfg.load_rig()
        forward = share(rig, wide_scores, wide_img, narrow_img, cfg.flow)
        backward = share(rig, result.narrow_scores, wide_img, narrow_img, cfg.flow, "backward")
        assert raster_bytes(result.forward) == raster_bytes(forward)
        assert raster_bytes(result.backward) == raster_bytes(backward)
        assert result.narrow_mask is result.forward.mask
        assert result.wide_mask is result.backward.mask
        for f in dataclasses.fields(result):
            assert not isinstance(getattr(result, f.name), dict), f.name

    def test_raster_bytes_rejects_what_is_not_an_array(self):
        plane = np.zeros((8, 8))
        grid = GridMap(plane, plane, plane == 0, (8, 8))
        with pytest.raises(TypeError):
            raster_bytes({"grid": grid})


class TestReferenceKernelGuard:
    def test_run_frame_matches_reference_kernels_bytewise(self, tmp_path, monkeypatch):
        """The solver's buffered sweep and the flat-index gather change no
        output byte of the frame loop: an odd height that is no band
        multiple, and non-identity heads on both branches."""
        cfg, inputs = guard_frame(tmp_path)
        fast = frame_bytes(cfg, inputs)
        monkeypatch.setattr(flow, "_solve_level", reference_solve_level)
        monkeypatch.setattr(raster, "_bilinear_support", reference_bilinear_support)
        monkeypatch.setattr(raster, "_gather_bilinear", reference_gather_bilinear)
        reference = frame_bytes(cfg, inputs)
        # fused scores, labels and masks of both branches (6), and the four
        # fields of each of the forward and backward share records (8)
        assert len(fast) == 14
        assert fast == reference


class TestFrameRowParts:
    def test_outputs_do_not_depend_on_the_part_count(self, tmp_path, monkeypatch):
        """Both fused score maps, label maps and masks, and every
        intermediate, are the same bytes with every banded pass of the frame
        (the warps, grid compositions and both fusions) split between 1, 2
        and 3 threads."""
        cfg, inputs = guard_frame(tmp_path)
        got = by_part_count(monkeypatch, lambda: frame_bytes(cfg, inputs).values())
        # the 14 arrays of frame_bytes: 6 branch outputs and 2 x 4 record fields
        assert len(got[1]) == 14
        assert got[2] == got[1] and got[3] == got[1]

    def test_one_cpu_starts_no_thread(self, tmp_path, monkeypatch):
        """One-row bands would give every pass a part per CPU; with one
        CPU no pass starts a thread."""
        cfg, inputs = guard_frame(tmp_path)
        monkeypatch.setattr(raster, "_BAND_PIXELS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        run_frame(cfg, *inputs)
        assert started == []


class TestMonotoneInformation:
    def test_flow_never_hurts_planar_and_helps_nonplanar(self):
        for seed, planar in ((840, True), (841, True), (842, False), (843, False)):
            scene = make_scene(seed, planar=planar)
            pair = render_scene(scene)
            h = homography_from_rig(scene.rig)
            grid_pt = grid_from_homography(
                h, scene.rig.image_size_narrow, scene.rig.image_size_wide
            )
            grid_two = two_stage_map(scene.rig, pair.wide_image, pair.narrow_image, FAST_FLOW)
            lab_pt, m_pt = warp_labels(pair.wide_labels, grid_pt)
            lab_two, m_two = warp_labels(pair.wide_labels, grid_two)
            mask = m_pt & m_two
            miou_pt = miou(lab_pt, pair.narrow_labels, mask, 6).mean_iou
            miou_two = miou(lab_two, pair.narrow_labels, mask, 6).mean_iou
            if planar:
                assert miou_two >= miou_pt - 0.01
            else:
                assert miou_two > miou_pt


@pytest.fixture(scope="module")
def tiny_benchmark(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    write_benchmark(
        root,
        seed=5,
        num_scenes=4,
        num_planar=1,
        num_flow_samples=2,
        scene_size=(96, 96),
        flow_size=(96, 96),
    )
    return root


def blind_benchmark(root, num_scenes):
    """A benchmark whose last scene yaws the narrow camera by 80 degrees,
    so the two views of that scene share no pixels."""
    bench = write_benchmark(
        root, seed=6, num_scenes=num_scenes, num_planar=0, num_flow_samples=0,
        scene_size=(64, 64), flow_size=(64, 64),
    )
    path = bench.scene_path(bench.scenes[-1])
    scene = read_scene(path)
    write_scene(dataclasses.replace(scene, rig=default_rig((64, 64), yaw_deg=80.0)), path)
    return bench


class TestEmptyMaskScenes:
    def test_scene_without_overlap_is_skipped(self, tmp_path):
        bench = blind_benchmark(tmp_path, num_scenes=2)
        table = ablate_flow(bench)
        alone = ablate_flow(dataclasses.replace(bench, scenes=bench.scenes[:1]))
        assert table.to_text() == alone.to_text()

    def test_all_scenes_without_overlap_raise(self, tmp_path):
        bench = blind_benchmark(tmp_path, num_scenes=1)
        with pytest.raises(MetricUndefinedError):
            ablate_flow(bench)

    def test_backward_share_without_overlap_is_all_fill(self):
        scene = make_scene(6, size=(64, 64), planar=False)
        scene = dataclasses.replace(scene, rig=default_rig((64, 64), yaw_deg=80.0))
        pair = render_scene(scene)
        stage1 = grid_from_homography(
            homography_from_rig(scene.rig.swapped()), (64, 64), (64, 64)
        )
        assert not stage1.valid.any()
        scores = degrade_scores(pair.narrow_labels, sigma=0.3, seed=1)
        back, mask, _, _ = share(
            scene.rig, scores, pair.wide_image, pair.narrow_image, FAST_FLOW, "backward"
        )
        assert mask.shape == (64, 64) and not mask.any()
        assert np.all(back.data == raster.SCORE_FILL)


class TestBenchmarkAndAblations:
    def test_benchmark_roundtrip(self, tiny_benchmark):
        bench = read_benchmark(tiny_benchmark)
        assert len(bench.scenes) == 5
        assert len(bench.nonplanar()) == 4
        assert len(bench.textures) == 2
        assert bench.seed == 5
        assert [e.directory for e in bench.scenes] == [f"scene_{i:03d}" for i in range(5)]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed 5\n", "seed 5\nseed 6\n"),  # a repeated single-valued key
            ("version 1\n", "version 2\n"),
            ("seed 5\n", "seed 5\nwibble 1\n"),  # an unknown key
            ("seed 5\n", "seed 5\ntexture 009 textures/t.pgm seed 1 extra\n"),
            ("planar 0 ", "planar 7 "),  # read as planar once, so ablate flow exited 2
            # one scene listed twice, so the suites pooled it twice
            ("scene 001 scene_001", "scene 001 scene_000"),
            ("scene 001 scene_001", "scene 001 ./scene_000/"),
            ("texture 001 textures/tex_001.pgm", "texture 001 textures/tex_000.pgm"),
        ],
    )
    def test_malformed_manifest_rejected(self, tiny_benchmark, tmp_path, capsys, old, new):
        text = (tiny_benchmark / "manifest.txt").read_text()
        assert old in text
        (tmp_path / "manifest.txt").write_text(text.replace(old, new, 1))
        with pytest.raises(DataError):
            read_benchmark(tmp_path)
        assert main(["ablate", "flow", "--bench", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("data error: benchmark manifest")

    def test_missing_benchmark_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_benchmark(tmp_path / "nope")

    def test_flow_suite_layout_and_direction(self, tiny_benchmark):
        table = ablate_flow(read_benchmark(tiny_benchmark))
        names = [name for name, _ in table.rows]
        assert names == ["pt", "pt+flow"]
        assert table.row("pt+flow")["miou"] > table.row("pt")["miou"]
        assert table.deltas[0][0] == "pt+flow-pt"

    def test_suite_reruns_identical(self, tiny_benchmark):
        a = run_ablation("flow", tiny_benchmark)
        b = run_ablation("flow", tiny_benchmark)
        assert a.to_text() == b.to_text()

    def test_fusion_suite_rows(self, tiny_benchmark):
        table = run_ablation(
            "fusion", tiny_benchmark, train={"iterations": 120, "batch_fraction": 0.2}
        )
        names = [name for name, _ in table.rows]
        assert names == ["none", "basic", "residual", "bottleneck"]

    def test_overlap_suite_rows_and_direction(self, tiny_benchmark):
        table = run_ablation(
            "overlap", tiny_benchmark, train={"iterations": 200, "batch_fraction": 0.2}
        )
        names = [name for name, _ in table.rows]
        assert names == ["native", "refined"]
        assert table.row("refined")["miou"] > table.row("native")["miou"]

    def test_flowquality_suite_rows_and_direction(self, tiny_benchmark):
        table = run_ablation("flowquality", tiny_benchmark)
        names = [name for name, _ in table.rows]
        assert names == ["zero", "estimated"]
        for metric in ("aepe", "l1", "ssim", "smooth"):
            assert metric in table.row("zero")
        assert table.row("estimated")["aepe"] < table.row("zero")["aepe"]
        assert table.deltas[0][2] < 0.0

    def test_unknown_suite_rejected(self, tiny_benchmark):
        with pytest.raises(ConfigError):
            run_ablation("nonsense", tiny_benchmark)

    @pytest.mark.parametrize(
        "suite, train, variant",
        [
            ("flow", {"seed": 1}, None),
            ("flowquality", {"seed": 1}, None),
            ("flow", None, "residual"),
            ("fusion", None, "residual"),
            ("flowquality", None, "residual"),
            # arguments no suite can use: an unknown variant or TrainConfig
            # field, and a value of the wrong type
            ("overlap", None, "nonsense"),
            ("overlap", {"bogus": 1}, None),
            ("fusion", {"iterations": 5, "bogus": 1}, None),
            ("fusion", {"iterations": "many"}, None),
            # these once loaded and shared every scene, then raised TypeError
            ("fusion", {"iterations": 2.5}, None),
            ("overlap", {"seed": 1.5}, None),
        ],
    )
    def test_arguments_a_suite_does_not_use_are_rejected_unread(
        self, tiny_benchmark, monkeypatch, suite, train, variant
    ):
        loads = []
        load_pair = pipeline._load_pair
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_load_pair", lambda *args: loads.append(args) or load_pair(*args))
            with pytest.raises(ConfigError):
                run_ablation(suite, tiny_benchmark, train, variant)
        assert loads == []
        reads = []
        monkeypatch.setattr(pipeline, "read_benchmark", lambda root: reads.append(root))
        with pytest.raises(ConfigError):
            run_ablation(suite, tiny_benchmark, train, variant)
        assert reads == []

    @pytest.mark.parametrize(
        "branch, build",
        [
            ("narrow", lambda bench, entries, cfg: _fusion_dataset(bench, entries, cfg, bench.seed)),
            ("wide", _overlap_dataset),
        ],
    )
    def test_train_fusion_trains_on_the_suite_dataset(
        self, tiny_benchmark, tmp_path, monkeypatch, branch, build
    ):
        trained_on = []

        def fake_train_fusion(head, items, cfg):
            trained_on.extend(items)
            return head, [0.0]

        monkeypatch.setattr(cli, "train_fusion", fake_train_fusion)
        argv = ["train-fusion", "--bench", str(tiny_benchmark), "--branch", branch,
                "--iterations", "5", "--out", str(tmp_path / "head.bin")]
        assert main(argv) == 0
        bench = read_benchmark(tiny_benchmark)
        built = build(bench, bench.nonplanar(), FlowConfig(iterations_per_level=5))

        def arrays(items):
            planes = [[a if isinstance(a, np.ndarray) else a.data for a in item] for item in items]
            return [[(a.dtype.str, a.shape, a.tobytes()) for a in item] for item in planes]

        assert len(built) == 4
        assert arrays(trained_on) == arrays(built)

    def test_table_text_parsable(self, tiny_benchmark):
        table = run_ablation("flow", tiny_benchmark)
        text = table.to_text()
        assert text.startswith("suite flow\n")
        for line in text.strip().splitlines()[1:]:
            kind = line.split()[0]
            assert kind in ("row", "delta")


def wrong_typed_fields():
    """Every TrainConfig and FlowConfig field with each value of the wrong
    type for it: a float for a count or seed, a str and a bool for any."""
    for config in (TrainConfig, FlowConfig):
        for f in dataclasses.fields(config):
            values = ([2.5] if isinstance(f.default, int) else []) + ["3", True]
            for value in values:
                yield pytest.param(config, f.name, value, id=f"{config.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("config, name, value", list(wrong_typed_fields()))
def test_config_fields_reject_wrong_types(config, name, value):
    with pytest.raises(ConfigError):
        config(**{name: value})
