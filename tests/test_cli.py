import os
from dataclasses import replace

import numpy as np
import pytest

from semshare import cli
from semshare.camera import write_rig
from semshare.cli import main
from semshare.formats import read_flo, read_scores, write_image, write_labels, write_scores
from semshare.pipeline import FUSION_TRAIN, OVERLAP_TRAIN, AblationTable
from semshare.raster import LabelMap
from semshare.synth import degrade_scores, make_scene, render_scene, texture_image


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
        ],
    )
    def test_bad_counts_and_sizes_write_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "bench"
        small = ["--scenes", "1", "--planar-scenes", "0", "--flow-samples", "0",
                 "--size", "32x32", "--flow-size", "32x32"]
        assert main(["gen-bench", "--out", str(out), *small, *flags]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()


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
        for name in (
            "narrow_fused.bin", "narrow_labels.bin", "wide_refined.bin", "wide_labels.bin",
            "narrow_mask.pgm", "wide_mask.pgm", "stage1_forward.pgm", "flow_forward.flo",
        ):
            assert (out_dir / name).exists()

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

    @pytest.mark.parametrize("scale", ["0", "-1", "inf"])
    def test_bad_init_scale_is_config_error(self, bench_dir, tmp_path, scale):
        head_path = tmp_path / "head.bin"
        code = main(
            [
                "train-fusion", "--bench", str(bench_dir), "--out", str(head_path),
                "--init-scale", scale,
            ]
        )
        assert code == 2
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

    @pytest.mark.parametrize("classes", ["0", "1"])
    def test_fewer_than_two_classes_is_config_error(self, tmp_path, classes):
        labels = tmp_path / "labels.bin"
        write_labels(LabelMap(np.zeros((4, 4), dtype=int), 6), labels)
        argv = ["eval", "--pred", str(labels), "--gt", str(labels), "--classes", classes]
        assert main(argv) == 2

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
        seen = {}

        def fake_run_ablation(name, bench_root, **kwargs):
            seen.update(kwargs)
            return AblationTable(name, [], [])

        monkeypatch.setattr(cli, "run_ablation", fake_run_ablation)
        assert main(["ablate", suite, "--bench", str(tmp_path), *flags]) == 0
        assert seen["train_cfg"] == expected
