import argparse
import os
import stat
from dataclasses import replace

import numpy as np
import pytest
from test_formats import patch_label_classes

from semshare import cli, pipeline
from semshare.camera import read_rig, write_rig
from semshare.cli import main
from semshare.flow import FlowConfig
from semshare.formats import (
    read_flo, read_image, read_labels, read_scores, write_flo, write_image, write_labels,
    write_mask, write_scores,
)
from semshare.metrics import miou, report_to_text
from semshare.pipeline import FUSION_TRAIN, OVERLAP_TRAIN, AblationTable
from semshare.raster import LabelMap
from semshare.synth import degrade_scores, make_scene, render_scene, texture_image


def snapshot(root):
    """Every path under `root`, with a file's bytes."""
    return sorted((str(p), p.read_bytes() if p.is_file() else None) for p in root.rglob("*"))


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_bench")
    code = main(
        [
            "gen-bench", "--out", str(root), "--seed", "3",
            "--scenes", "4", "--planar-scenes", "1", "--flow-samples", "2",
            "--size", "96x96", "--flow-size", "96x96",
        ]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_scene")
    scene = make_scene(77, size=(96, 96), planar=False)
    pair = render_scene(scene)
    write_rig(scene.rig, root / "rig.txt")
    write_image(pair.wide_image, root / "wide.pgm")
    write_image(pair.narrow_image, root / "narrow.pgm")
    write_scores(degrade_scores(pair.wide_labels, sigma=0.3, seed=1), root / "wide_scores.bin")
    write_scores(degrade_scores(pair.narrow_labels, sigma=0.3, seed=2), root / "narrow_scores.bin")
    write_labels(pair.narrow_labels, root / "narrow_gt.bin")
    write_labels(pair.wide_labels, root / "wide_gt.bin")
    return root


class TestGenBench:
    def test_reruns_byte_identical(self, bench_dir, tmp_path):
        again = tmp_path / "again"
        code = main(
            [
                "gen-bench", "--out", str(again), "--seed", "3",
                "--scenes", "4", "--planar-scenes", "1", "--flow-samples", "2",
                "--size", "96x96", "--flow-size", "96x96",
            ]
        )
        assert code == 0
        assert tree_bytes(bench_dir) == tree_bytes(again)

    def test_odd_height_scenes(self, tmp_path):
        out = tmp_path / "odd"
        code = main(
            [
                "gen-bench", "--out", str(out), "--scenes", "1", "--planar-scenes", "0",
                "--flow-samples", "1", "--size", "97x97",
            ]
        )
        assert code == 0
        assert (out / "manifest.txt").exists()

    def test_default_writes_no_planar_scene(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "gen-bench", "--out", str(out), "--scenes", "2", "--flow-samples", "0",
                "--size", "32x32", "--flow-size", "32x32",
            ]
        )
        assert code == 0
        rows = [line for line in (out / "manifest.txt").read_text().splitlines()
                if line.startswith("scene ")]
        assert len(rows) == 2
        assert all(" planar 0 " in row for row in rows)

    def test_bad_size_flag(self, tmp_path):
        assert main(["gen-bench", "--out", str(tmp_path / "x"), "--size", "banana"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--flow-size", "0x5", "--flow-samples", "1"],
            ["--scenes", "2", "--planar-scenes", "-1"],
            ["--flow-samples", "-3"],
            ["--size", "0x32"],
            # below the flow pyramid's min_level_size: no command could use them
            ["--size", "8x8"],
            ["--flow-size", "8x8", "--flow-samples", "1"],
            ["--size", "1x1"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_counts_and_sizes_write_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "bench"
        small = ["--scenes", "1", "--planar-scenes", "0", "--flow-samples", "0",
                 "--size", "32x32", "--flow-size", "32x32"]
        assert main(["gen-bench", "--out", str(out), *small, *flags]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_refused_allocation_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        """An allocation the machine refuses (numpy raises a MemoryError)
        exits 4 with a message instead of a traceback.  The renderer is
        replaced, so nothing large is allocated."""

        def refuse(scene):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(pipeline, "render_scene", refuse)
        small = ["--scenes", "1", "--flow-samples", "0", "--size", "32x32"]
        assert main(["gen-bench", "--out", str(tmp_path / "bench"), *small]) == 4
        assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB\n"

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_render_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, existing):
        """A render that fails on the second scene removes everything the
        call wrote (the first scene's files and every directory it made),
        and nothing that was there before."""
        render = pipeline.render_scene
        rendered = []

        def refuse_second(scene):
            rendered.append(scene)
            if len(rendered) == 2:
                raise MemoryError("Unable to allocate 74.5 GiB")
            return render(scene)

        monkeypatch.setattr(pipeline, "render_scene", refuse_second)
        out = tmp_path / "a" / "b" / "bench"
        if existing:
            (out / "scene_000").mkdir(parents=True)
            (out / "scene_000" / "notes.txt").write_text("kept\n")
            (out / "keep.txt").write_text("kept too\n")
        before = sorted((str(p), p.read_bytes() if p.is_file() else None) for p in tmp_path.rglob("*"))
        small = ["--scenes", "3", "--flow-samples", "1", "--size", "32x32", "--flow-size", "32x32"]
        assert main(["gen-bench", "--out", str(out), *small]) == 4
        assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB\n"
        assert len(rendered) == 2
        after = sorted((str(p), p.read_bytes() if p.is_file() else None) for p in tmp_path.rglob("*"))
        assert after == before

    SMALL = ["--scenes", "2", "--flow-samples", "1", "--size", "32x32", "--flow-size", "32x32"]

    def test_failed_rerun_leaves_old_benchmark_whole(self, tmp_path, capsys, monkeypatch):
        """A gen-bench over an earlier benchmark that fails on its second
        render leaves the earlier one, manifest and scenes, byte for byte
        as it was, and no stage behind."""
        out = tmp_path / "b"
        assert main(["gen-bench", "--out", str(out), "--seed", "1", *self.SMALL]) == 0
        before = snapshot(tmp_path)
        render = pipeline.render_scene
        rendered = []

        def refuse_second(scene):
            rendered.append(scene)
            if len(rendered) == 2:
                raise MemoryError("Unable to allocate 74.5 GiB")
            return render(scene)

        monkeypatch.setattr(pipeline, "render_scene", refuse_second)
        assert main(["gen-bench", "--out", str(out), "--seed", "2", *self.SMALL]) == 4
        assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB\n"
        assert snapshot(tmp_path) == before

    def test_failed_move_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        """A move into --out that fails part-way leaves no manifest, so the
        mixed directory is refused instead of read as a benchmark."""
        out = tmp_path / "b"
        assert main(["gen-bench", "--out", str(out), "--seed", "1", *self.SMALL]) == 0
        replace = os.replace
        moves = []

        def fail_fourth(src, dst):
            moves.append(dst)
            if len(moves) == 4:
                raise OSError(28, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_fourth)
        assert main(["gen-bench", "--out", str(out), "--seed", "2", *self.SMALL]) == 3
        monkeypatch.undo()
        assert capsys.readouterr().err == "data error: [Errno 28] No space left on device\n"
        assert len(moves) == 4
        assert not (out / "manifest.txt").exists()
        assert not list(tmp_path.rglob(".gen-bench-*"))
        assert main(["ablate", "flow", "--bench", str(out)]) == 2
        assert "run gen-bench first" in capsys.readouterr().err

    def test_empty_out_touches_nothing(self, tmp_path, capsys, monkeypatch):
        """--out '' cannot be made, and the working directory's own
        manifest.txt is left alone."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "manifest.txt").write_text("version 1\n")
        before = snapshot(tmp_path)
        assert main(["gen-bench", "--out", "", *self.SMALL]) == 3
        assert capsys.readouterr().err.startswith("data error")
        assert snapshot(tmp_path) == before

    def test_out_directory_modes(self, tmp_path):
        """An existing --out keeps its mode; a new one, and each scene
        directory, gets the mode os.makedirs gives, not the stage's."""
        old = tmp_path / "old"
        old.mkdir()
        old.chmod(0o700)
        assert main(["gen-bench", "--out", str(old), *self.SMALL]) == 0
        assert stat.S_IMODE(old.stat().st_mode) == 0o700
        new = tmp_path / "new"
        assert main(["gen-bench", "--out", str(new), *self.SMALL]) == 0
        probe = tmp_path / "probe"
        os.makedirs(probe)
        made = stat.S_IMODE(probe.stat().st_mode)
        assert stat.S_IMODE(new.stat().st_mode) == made
        assert stat.S_IMODE((new / "scene_000").stat().st_mode) == made

    @pytest.mark.parametrize("existing", [False, True])
    def test_stage_beside_out_is_removed(self, tmp_path, monkeypatch, existing):
        """The stage is made in --out when it exists, else in its nearest
        existing parent, and is gone once the benchmark is in place."""
        out = tmp_path / "a" / "b" / "bench"
        if existing:
            out.mkdir(parents=True)
        mkdtemp = pipeline.tempfile.mkdtemp
        stages = []

        def spy(**kwargs):
            stages.append(mkdtemp(**kwargs))
            return stages[-1]

        monkeypatch.setattr(pipeline.tempfile, "mkdtemp", spy)
        assert main(["gen-bench", "--out", str(out), *self.SMALL]) == 0
        assert len(stages) == 1
        assert os.path.dirname(stages[0]) == str(out if existing else tmp_path)
        assert not os.path.exists(stages[0])
        assert not list(tmp_path.rglob(".gen-bench-*"))
        assert len(pipeline.read_benchmark(out).scenes) == 2

    def test_rerun_replaces_listed_files_and_keeps_others(self, tmp_path):
        out = tmp_path / "b"
        fresh = tmp_path / "fresh"
        assert main(["gen-bench", "--out", str(out), "--seed", "1", *self.SMALL,
                     "--scenes", "3"]) == 0
        assert main(["gen-bench", "--out", str(out), "--seed", "2", *self.SMALL]) == 0
        assert main(["gen-bench", "--out", str(fresh), "--seed", "2", *self.SMALL]) == 0
        rerun = tree_bytes(out)
        assert {k: rerun[k] for k in tree_bytes(fresh)} == tree_bytes(fresh)
        assert os.path.join("scene_002", "scene.txt") in rerun  # not listed, kept


class TestFlowCommand:
    def test_writes_flo_and_viz(self, tmp_path):
        a = texture_image((64, 64), 5)
        shifted = np.zeros_like(a.data[0])
        shifted[:, :-3] = a.data[0][:, 3:]
        shifted[:, -3:] = a.data[0][:, -3:]
        from semshare.raster import Image

        write_image(a, tmp_path / "src.pgm")
        write_image(Image(shifted[None]), tmp_path / "tgt.pgm")
        code = main(
            [
                "flow", "--target", str(tmp_path / "tgt.pgm"), "--source", str(tmp_path / "src.pgm"),
                "--out", str(tmp_path / "f.flo"), "--viz", str(tmp_path / "f.ppm"),
            ]
        )
        assert code == 0
        flow = read_flo(tmp_path / "f.flo")
        interior = flow.dx[12:-12, 12:-12]
        assert abs(interior.mean() - 3.0) < 0.3
        assert (tmp_path / "f.ppm").exists()

    def test_rerun_byte_identical(self, tmp_path):
        a = texture_image((64, 64), 6)
        write_image(a, tmp_path / "a.pgm")
        for name in ("f1.flo", "f2.flo"):
            code = main(
                ["flow", "--target", str(tmp_path / "a.pgm"), "--source", str(tmp_path / "a.pgm"),
                 "--out", str(tmp_path / name)]
            )
            assert code == 0
        assert (tmp_path / "f1.flo").read_bytes() == (tmp_path / "f2.flo").read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(
            ["flow", "--target", str(tmp_path / "no.pgm"), "--source", str(tmp_path / "no.pgm"),
             "--out", str(tmp_path / "f.flo")]
        ) == 3

    def test_bad_config_is_config_error(self, tmp_path):
        a = texture_image((64, 64), 7)
        write_image(a, tmp_path / "a.pgm")
        assert main(
            ["flow", "--target", str(tmp_path / "a.pgm"), "--source", str(tmp_path / "a.pgm"),
             "--out", str(tmp_path / "f.flo"), "--levels", "0"]
        ) == 2

    # inf and 1e20 gave a zero flow and exit 0; 1e200 raised OverflowError
    @pytest.mark.parametrize("alpha", ["inf", "1e20", "1e200"])
    def test_smoothness_weight_out_of_range_is_config_error(self, tmp_path, alpha):
        a = texture_image((32, 32), 7)
        write_image(a, tmp_path / "a.pgm")
        argv = ["flow", "--target", str(tmp_path / "a.pgm"), "--source", str(tmp_path / "a.pgm"),
                "--out", str(tmp_path / "f.flo"), "--alpha", alpha]
        assert main(argv) == 2
        assert not (tmp_path / "f.flo").exists()


class TestShareCommand:
    def test_forward_and_backward(self, scene_files, tmp_path):
        for direction, scores in (("forward", "wide_scores.bin"), ("backward", "narrow_scores.bin")):
            out = tmp_path / f"{direction}.bin"
            code = main(
                [
                    "share", "--rig", str(scene_files / "rig.txt"), "--direction", direction,
                    "--wide-image", str(scene_files / "wide.pgm"),
                    "--narrow-image", str(scene_files / "narrow.pgm"),
                    "--scores", str(scene_files / scores),
                    "--out", str(out), "--out-mask", str(tmp_path / f"{direction}_mask.pgm"),
                ]
            )
            assert code == 0
            assert read_scores(out).num_classes == 6

    @pytest.mark.parametrize(
        "direction, scores", [("forward", "wide_scores.bin"), ("backward", "narrow_scores.bin")]
    )
    def test_dump_intermediates_writes_the_share_record(
        self, scene_files, tmp_path, direction, scores
    ):
        """--out, --out-mask and --dump-intermediates write exactly the four
        fields of the Shared record that share returns, in their formats."""
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir()
        want.mkdir()
        code = main(
            [
                "share", "--rig", str(scene_files / "rig.txt"), "--direction", direction,
                "--wide-image", str(scene_files / "wide.pgm"),
                "--narrow-image", str(scene_files / "narrow.pgm"),
                "--scores", str(scene_files / scores), "--out", str(got / "shared.bin"),
                "--out-mask", str(got / "mask.pgm"), "--dump-intermediates",
            ]
        )
        assert code == 0
        record = pipeline.share(
            read_rig(str(scene_files / "rig.txt")), read_scores(scene_files / scores),
            read_image(scene_files / "wide.pgm"), read_image(scene_files / "narrow.pgm"),
            FlowConfig(), direction,
        )
        write_scores(record.scores, want / "shared.bin")
        write_mask(record.mask, want / "mask.pgm")
        write_image(record.stage1_image, want / "shared_stage1.pgm")
        write_flo(record.flow, want / "shared_flow.flo")
        assert tree_bytes(got) == tree_bytes(want)

    # 33 levels passed before the cap; the box pad is 2**(levels - 1)
    @pytest.mark.parametrize("levels, code", [("32", 0), ("33", 2)])
    def test_levels_above_32_are_a_config_error(self, scene_files, tmp_path, levels, code):
        out = tmp_path / "shared.bin"
        argv = [
            "share", "--rig", str(scene_files / "rig.txt"),
            "--wide-image", str(scene_files / "wide.pgm"),
            "--narrow-image", str(scene_files / "narrow.pgm"),
            "--scores", str(scene_files / "wide_scores.bin"),
            "--out", str(out), "--levels", levels,
        ]
        assert main(argv) == code
        assert out.exists() == (code == 0)

    def test_rerun_byte_identical(self, scene_files, tmp_path):
        outs = []
        for name in ("s1.bin", "s2.bin"):
            code = main(
                [
                    "share", "--rig", str(scene_files / "rig.txt"),
                    "--wide-image", str(scene_files / "wide.pgm"),
                    "--narrow-image", str(scene_files / "narrow.pgm"),
                    "--scores", str(scene_files / "wide_scores.bin"),
                    "--out", str(tmp_path / name),
                ]
            )
            assert code == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]


class TestTrainAndRun:
    def test_train_run_eval_loop(self, bench_dir, scene_files, tmp_path):
        head_path = tmp_path / "head.bin"
        code = main(
            [
                "train-fusion", "--bench", str(bench_dir), "--variant", "basic",
                "--out", str(head_path), "--train-iterations", "150",
                "--batch-fraction", "0.2", "--seed", "5",
            ]
        )
        assert code == 0

        out_dir = tmp_path / "frame"
        code = main(
            [
                "run", "--rig", str(scene_files / "rig.txt"),
                "--wide-image", str(scene_files / "wide.pgm"),
                "--wide-scores", str(scene_files / "wide_scores.bin"),
                "--narrow-image", str(scene_files / "narrow.pgm"),
                "--narrow-scores", str(scene_files / "narrow_scores.bin"),
                "--narrow-head", str(head_path),
                "--out", str(out_dir), "--dump-intermediates",
            ]
        )
        assert code == 0
        assert sorted(os.listdir(out_dir)) == sorted([
            "narrow_fused.bin", "narrow_labels.bin", "wide_refined.bin", "wide_labels.bin",
            "narrow_mask.pgm", "wide_mask.pgm",
            "stage1_forward.pgm", "flow_forward.flo", "propagated.bin",
            "stage1_backward.pgm", "flow_backward.flo", "back_propagated.bin",
        ])
        cfg = pipeline.PipelineConfig(
            rig_path=str(scene_files / "rig.txt"), narrow_head_path=str(head_path)
        )
        result = pipeline.run_frame(
            cfg,
            read_image(scene_files / "wide.pgm"), read_scores(scene_files / "wide_scores.bin"),
            read_image(scene_files / "narrow.pgm"), read_scores(scene_files / "narrow_scores.bin"),
        )
        for name, shared in (("propagated", result.forward), ("back_propagated", result.backward)):
            write_scores(shared.scores, tmp_path / f"{name}.bin")
            assert (out_dir / f"{name}.bin").read_bytes() == (tmp_path / f"{name}.bin").read_bytes()

        report_path = tmp_path / "report.txt"
        code = main(
            [
                "eval", "--pred", str(out_dir / "narrow_labels.bin"),
                "--gt", str(scene_files / "narrow_gt.bin"),
                "--mask", str(out_dir / "narrow_mask.pgm"),
                "--out", str(report_path),
            ]
        )
        assert code == 0
        assert "miou" in report_path.read_text()

    def test_overlap_eval_reads_the_wide_mask(self, scene_files, tmp_path):
        """eval --mask wide_mask.pgm scores the wide labels on the region
        the narrow camera's fused scores reached: run_frame's wide_mask."""
        out_dir, report_path = tmp_path / "frame", tmp_path / "report.txt"
        files = {name: str(scene_files / name) for name in os.listdir(scene_files)}
        code = main(
            [
                "run", "--rig", files["rig.txt"],
                "--wide-image", files["wide.pgm"], "--wide-scores", files["wide_scores.bin"],
                "--narrow-image", files["narrow.pgm"], "--narrow-scores", files["narrow_scores.bin"],
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        code = main(
            [
                "eval", "--pred", str(out_dir / "wide_labels.bin"), "--gt", files["wide_gt.bin"],
                "--mask", str(out_dir / "wide_mask.pgm"), "--out", str(report_path),
            ]
        )
        assert code == 0
        result = pipeline.run_frame(
            pipeline.PipelineConfig(rig_path=files["rig.txt"]),
            read_image(files["wide.pgm"]), read_scores(files["wide_scores.bin"]),
            read_image(files["narrow.pgm"]), read_scores(files["narrow_scores.bin"]),
        )
        gt = read_labels(files["wide_gt.bin"])
        report = miou(result.wide_labels, gt, result.wide_mask, gt.num_classes)
        assert report_path.read_text() == report_to_text(report)

    def test_init_scale_flag_is_refused(self, bench_dir, tmp_path):
        """train-fusion has no --init-scale: a head always starts at
        new_head's default scale, and the flag is a usage error."""
        head_path = tmp_path / "head.bin"
        with pytest.raises(SystemExit) as exc:
            main(["train-fusion", "--bench", str(bench_dir), "--out", str(head_path),
                  "--init-scale", "0.1"])
        assert exc.value.code == 2
        assert not head_path.exists()

    def test_run_rerun_byte_identical(self, bench_dir, scene_files, tmp_path):
        trees = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            code = main(
                [
                    "run", "--rig", str(scene_files / "rig.txt"),
                    "--wide-image", str(scene_files / "wide.pgm"),
                    "--wide-scores", str(scene_files / "wide_scores.bin"),
                    "--narrow-image", str(scene_files / "narrow.pgm"),
                    "--narrow-scores", str(scene_files / "narrow_scores.bin"),
                    "--out", str(out_dir),
                ]
            )
            assert code == 0
            trees.append(tree_bytes(out_dir))
        assert trees[0] == trees[1]


class TestAblateCommand:
    def test_flow_suite(self, bench_dir, tmp_path):
        out = tmp_path / "flow.txt"
        code = main(["ablate", "flow", "--bench", str(bench_dir), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "row pt miou" in text and "row pt+flow miou" in text

    def test_rerun_byte_identical(self, bench_dir, tmp_path):
        for name in ("a1.txt", "a2.txt"):
            assert main(["ablate", "flow", "--bench", str(bench_dir), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a1.txt").read_bytes() == (tmp_path / "a2.txt").read_bytes()

    def test_missing_benchmark_is_config_error(self, tmp_path):
        assert main(["ablate", "flow", "--bench", str(tmp_path / "none")]) == 2


class TestEvalCommand:
    def test_bad_container_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        good = tmp_path / "good.bin"
        write_labels(LabelMap(np.zeros((4, 4), dtype=int), 6), good)
        assert main(["eval", "--pred", str(bad), "--gt", str(good)]) == 3

    def test_label_file_above_256_classes_is_data_error(self, tmp_path):
        good, labels = tmp_path / "good.bin", tmp_path / "labels.bin"
        write_labels(LabelMap(np.zeros((4, 4), dtype=int), 6), good)
        labels.write_bytes(patch_label_classes(good.read_bytes(), 257))
        assert main(["eval", "--pred", str(good), "--gt", str(labels)]) == 3

    @pytest.mark.parametrize("classes", ["0", "1"])
    def test_fewer_than_two_classes_is_config_error(self, tmp_path, classes):
        labels = tmp_path / "labels.bin"
        write_labels(LabelMap(np.zeros((4, 4), dtype=int), 6), labels)
        argv = ["eval", "--pred", str(labels), "--gt", str(labels), "--classes", classes]
        assert main(argv) == 2

    @pytest.mark.parametrize("classes", ["257", "1000000000"])
    def test_more_classes_than_a_label_byte_holds_is_config_error(self, tmp_path, capsys, classes):
        # the paths do not exist: the flag is rejected before anything is read
        missing = str(tmp_path / "missing.bin")
        assert main(["eval", "--pred", missing, "--gt", missing, "--classes", classes]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_256_classes_is_accepted(self, tmp_path):
        labels = tmp_path / "labels.bin"
        write_labels(LabelMap(np.zeros((4, 4), dtype=int), 6), labels)
        assert main(["eval", "--pred", str(labels), "--gt", str(labels), "--classes", "256"]) == 0

    def test_empty_mask_is_numeric_error(self, tmp_path):
        labels = tmp_path / "labels.bin"
        write_labels(LabelMap(np.zeros((4, 4), dtype=int), 6), labels)
        from semshare.formats import write_mask

        mask_path = tmp_path / "mask.pgm"
        write_mask(np.zeros((4, 4), dtype=bool), mask_path)
        assert main(
            ["eval", "--pred", str(labels), "--gt", str(labels), "--mask", str(mask_path)]
        ) == 4


class TestDirectoryAsInput:
    @pytest.mark.parametrize("command", ["eval", "run", "share", "flow", "train-fusion"])
    def test_directory_input_is_data_error(self, scene_files, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        f = {name: str(scene_files / name) for name in os.listdir(scene_files)}
        images = ["--wide-image", f["wide.pgm"], "--narrow-image", f["narrow.pgm"]]
        argv = {
            "eval": ["eval", "--pred", str(folder), "--gt", f["narrow_gt.bin"]],
            "run": ["run", "--rig", str(folder), *images, "--wide-scores", f["wide_scores.bin"],
                    "--narrow-scores", f["narrow_scores.bin"], "--out", str(tmp_path / "out")],
            "share": ["share", "--rig", f["rig.txt"], *images, "--scores", str(folder),
                      "--out", str(tmp_path / "s.bin")],
            "flow": ["flow", "--target", str(folder), "--source", f["wide.pgm"],
                     "--out", str(tmp_path / "f.flo")],
            "train-fusion": ["train-fusion", "--bench", str(tmp_path), "--out", str(tmp_path / "h.bin")],
        }[command]
        if command == "train-fusion":
            (tmp_path / "manifest.txt").mkdir()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err


def fake_training_suites(monkeypatch):
    """Replace the benchmark read and the fusion and overlap drivers of
    `pipeline`; returns the dict that the fake drivers fill with the
    training config and head variant they are given."""
    seen = {}

    def fake_driver(suite):
        def driver(bench, train_cfg, variant=None):
            seen.update(train_cfg=train_cfg, variant=variant)
            return AblationTable(suite, [], [])

        return driver

    monkeypatch.setattr(pipeline, "read_benchmark", lambda root: None)
    monkeypatch.setattr(pipeline, "ablate_fusion", fake_driver("fusion"))
    monkeypatch.setattr(pipeline, "ablate_overlap", fake_driver("overlap"))
    return seen


def test_train_fusion_defaults_are_the_narrow_preset():
    args = cli.build_parser().parse_args(["train-fusion", "--bench", "b", "--out", "h"])
    assert (args.lr, args.train_iterations, args.batch_fraction) == (
        FUSION_TRAIN.learning_rate, FUSION_TRAIN.iterations, FUSION_TRAIN.batch_fraction
    )
    assert args.seed == 0  # not the preset's


def test_train_fusion_keeps_flow_and_training_iterations_apart(bench_dir, tmp_path, monkeypatch):
    seen = {}

    def fake_branch_dataset(bench, entries, flow_cfg, branch, seed_base):
        seen["flow_cfg"] = flow_cfg
        return []

    def fake_train_fusion(head, items, cfg):
        seen["train_cfg"] = cfg
        return head, [0.0]

    monkeypatch.setattr(cli, "_branch_dataset", fake_branch_dataset)
    monkeypatch.setattr(cli, "train_fusion", fake_train_fusion)
    argv = ["train-fusion", "--bench", str(bench_dir), "--out", str(tmp_path / "head.bin"),
            "--iterations", "7", "--train-iterations", "5"]
    assert main(argv) == 0
    assert seen["flow_cfg"].iterations_per_level == 7
    assert seen["train_cfg"].iterations == 5


class TestAblateTrainingFlags:
    @pytest.mark.parametrize(
        "suite, flags, expected",
        [
            ("fusion", [], FUSION_TRAIN),
            ("overlap", [], OVERLAP_TRAIN),
            ("overlap", ["--train-iterations", "5"], replace(OVERLAP_TRAIN, iterations=5)),
            ("fusion", ["--lr", "0.5", "--seed", "3"], replace(FUSION_TRAIN, learning_rate=0.5, seed=3)),
            ("overlap", ["--batch-fraction", "0.5"], replace(OVERLAP_TRAIN, batch_fraction=0.5)),
        ],
    )
    def test_given_flags_replace_preset_fields(self, monkeypatch, tmp_path, suite, flags, expected):
        seen = fake_training_suites(monkeypatch)
        assert main(["ablate", suite, "--bench", str(tmp_path), *flags]) == 0
        assert seen["train_cfg"] == expected


class TestAblateRejectsUnusedFlags:
    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("flowquality", ["--train-iterations", "-3"]),
            ("flow", ["--lr", "5", "--variant", "residual"]),
            ("flow", ["--seed", "1"]),
            ("flowquality", ["--batch-fraction", "0.5"]),
            ("flow", ["--variant", "basic"]),
            ("flowquality", ["--variant", "bottleneck"]),
            ("fusion", ["--variant", "residual"]),
        ],
    )
    def test_flags_a_suite_does_not_use_are_config_errors(
        self, monkeypatch, tmp_path, capsys, suite, flags
    ):
        calls = []
        monkeypatch.setattr(pipeline, "read_benchmark", lambda root: calls.append(root))
        assert main(["ablate", suite, "--bench", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert calls == []

    @pytest.mark.parametrize("flags, variant", [([], None), (["--variant", "residual"], "residual")])
    def test_overlap_variant_is_passed_only_when_given(self, monkeypatch, tmp_path, flags, variant):
        seen = fake_training_suites(monkeypatch)
        assert main(["ablate", "overlap", "--bench", str(tmp_path), *flags]) == 0
        assert seen["variant"] == (variant or "basic")  # run_ablation resolves an unset variant


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """A 32x32 benchmark with 2 scenes and 1 flow sample, and score files
    for its first scene."""
    root = tmp_path_factory.mktemp("sweep")
    bench = root / "bench"
    assert main(["gen-bench", "--out", str(bench), "--scenes", "2", "--planar-scenes", "0",
                 "--flow-samples", "1", "--size", "32x32", "--flow-size", "32x32"]) == 0
    scene = bench / "scene_000"
    for side, seed in (("wide", 1), ("narrow", 2)):
        labels = read_labels(scene / f"{side}_labels.bin")
        write_scores(degrade_scores(labels, sigma=0.3, seed=seed), root / f"{side}_scores.bin")
    return root


def sweep_argv(command, root, out):
    """A command line for `command` that exits 0 on the sweep inputs."""
    bench, scene = root / "bench", root / "bench" / "scene_000"
    images = ["--wide-image", str(scene / "wide.pgm"), "--narrow-image", str(scene / "narrow.pgm")]
    return {
        "gen-bench": ["gen-bench", "--out", str(out / "bench"), "--scenes", "2",
                      "--planar-scenes", "0", "--flow-samples", "1", "--size", "32x32",
                      "--flow-size", "32x32"],
        "flow": ["flow", "--target", str(scene / "narrow.pgm"), "--source", str(scene / "wide.pgm"),
                 "--out", str(out / "f.flo")],
        "share": ["share", "--rig", str(scene / "rig.txt"), *images,
                  "--scores", str(root / "wide_scores.bin"), "--out", str(out / "s.bin")],
        "train-fusion": ["train-fusion", "--bench", str(bench), "--out", str(out / "h.bin"),
                         "--train-iterations", "2"],
        "run": ["run", "--rig", str(scene / "rig.txt"), *images,
                "--wide-scores", str(root / "wide_scores.bin"),
                "--narrow-scores", str(root / "narrow_scores.bin"), "--out", str(out / "frame")],
        "ablate": ["ablate", "fusion", "--bench", str(bench), "--train-iterations", "2"],
        "eval": ["eval", "--pred", str(scene / "narrow_labels.bin"),
                 "--gt", str(scene / "narrow_labels.bin")],
    }[command]


# no huge ints: --iterations or --scenes at 1e9 would run for hours
SWEEP_VALUES = {int: ["-1", "0"], float: ["-1", "0", "nan", "inf", "1e200", "1e-30", "5e-324"]}


def numeric_flags():
    """(command, flag, value) for every int and float flag of every
    subcommand, read from the parser."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            for value in SWEEP_VALUES.get(action.type, []):
                yield command, action.option_strings[0], value


def test_sweep_inputs_run_cleanly(sweep_inputs, tmp_path):
    for command in ("gen-bench", "flow", "share", "train-fusion", "run", "ablate", "eval"):
        out = tmp_path / command
        out.mkdir()
        assert main(sweep_argv(command, sweep_inputs, out)) == 0, command


@pytest.mark.parametrize("command, flag, value", list(numeric_flags()))
def test_numeric_flag_sweep_exits_with_a_documented_code(sweep_inputs, tmp_path, command, flag,
                                                         value):
    argv = sweep_argv(command, sweep_inputs, tmp_path) + [flag, value]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag with status 2
        code = exc.code
    assert code in (0, 2, 3, 4)
    if value in ("nan", "inf"):  # only float flags take these
        assert code == 2
    if flag == "--alpha" and value in ("1e-30", "5e-324"):  # the solve would overflow float32
        assert code == 2
