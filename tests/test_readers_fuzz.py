"""Seeded fuzz over every file reader.

Truncations and byte flips of valid files must make each reader either
return or raise a SemShareError subclass, never anything else, and the
CLI command that reads a broken file must exit with 2, 3 or 4.
"""

import os
import random
import shutil

import numpy as np
import pytest

from semshare.camera import read_rig
from semshare.cli import main
from semshare.errors import DataError, SemShareError
from semshare.formats import (
    KIND_FUSION_HEAD,
    pack_header,
    read_container,
    read_flo,
    read_image,
    write_flo,
    write_image,
    write_scores,
)
from semshare.fusion import new_head, read_head, write_head
from semshare.pipeline import read_benchmark, write_benchmark
from semshare.raster import FlowField, Image
from semshare.synth import degrade_scores, read_scene

SIZE = (32, 32)
MUTATIONS = 60
CLI_CHECKS = 4  # broken files per reader that also go through the CLI


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per reader, all inside one tiny generated benchmark."""
    root = tmp_path_factory.mktemp("fuzz_bench")
    bench = write_benchmark(
        root, seed=4, num_scenes=1, num_planar=0, num_flow_samples=1,
        scene_size=SIZE, flow_size=SIZE,
    )
    scene_dir = root / bench.scenes[0].directory
    rng = np.random.default_rng(0)
    write_image(Image(rng.random((3, 6, 5))), root / "color.ppm")
    write_flo(FlowField(rng.standard_normal((2, 6, 5))), root / "flow.flo")
    labels = read_container(scene_dir / "wide_labels.bin")
    write_scores(degrade_scores(labels, sigma=0.3), root / "scores.bin")
    write_head(new_head("residual", 6, seed=1), root / "head.bin")
    return root, scene_dir


def reader_cases(root, scene_dir):
    """name -> (valid path, reader) for every reader under test."""
    return {
        "rig": (scene_dir / "rig.txt", read_rig),
        "scene": (scene_dir / "scene.txt", read_scene),
        "manifest": (root / "manifest.txt", lambda p: read_benchmark(os.path.dirname(p))),
        "pgm": (scene_dir / "wide.pgm", read_image),
        "ppm": (root / "color.ppm", read_image),
        "flo": (root / "flow.flo", read_flo),
        "labels": (scene_dir / "wide_labels.bin", read_container),
        "scores": (root / "scores.bin", read_container),
        "head": (root / "head.bin", read_head),
    }


READERS = ("rig", "scene", "manifest", "pgm", "ppm", "flo", "labels", "scores", "head")


def mutations(blob, seed):
    """Seeded truncations and byte flips of a valid file's bytes."""
    rng = random.Random(seed)
    for k in range(MUTATIONS):
        if k % 3 == 0:
            yield blob[: rng.randrange(len(blob))]
        else:
            out = bytearray(blob)
            # flips land in the first 256 bytes half of the time: headers
            # and text keys are where most parsing happens
            span = min(len(out), 256) if k % 2 else len(out)
            for _ in range(rng.randint(1, 4)):
                out[rng.randrange(span)] = rng.randrange(256)
            yield bytes(out)


def rewrite(path, blob):
    """Replace the file at `path` by a new one holding `blob`.  Removing
    the file first is much faster on some filesystems than truncating it
    with open(path, "wb")."""
    os.remove(path)
    with open(path, "wb") as f:
        f.write(blob)


def broken_inputs(path, reader, seed):
    """Write each mutation over `path`, a scratch copy, and yield it while
    it holds a mutation the reader rejects; any exception other than a
    SemShareError fails the test.  The valid bytes are restored at the end."""
    with open(path, "rb") as f:
        blob = f.read()
    for blob_k in mutations(blob, seed):
        rewrite(path, blob_k)
        try:
            reader(str(path))
        except SemShareError:
            yield path
    rewrite(path, blob)


def cli_argv(name, path, root, scene_dir, out):
    """A CLI command whose first failing read is the broken file at `path`."""
    images = ["--wide-image", str(scene_dir / "wide.pgm"),
              "--narrow-image", str(scene_dir / "narrow.pgm")]
    if name == "rig":
        return ["share", "--rig", str(path), *images,
                "--scores", str(root / "scores.bin"), "--out", str(out / "p.bin")]
    if name in ("scene", "manifest"):
        return ["ablate", "flow", "--bench", str(root)]
    if name in ("pgm", "ppm"):
        return ["flow", "--target", str(path), "--source", str(scene_dir / "wide.pgm"),
                "--out", str(out / "f.flo")]
    if name in ("labels", "scores"):
        return ["eval", "--pred", str(path), "--gt", str(scene_dir / "wide_labels.bin")]
    if name == "head":
        return ["run", "--rig", str(scene_dir / "rig.txt"), *images,
                "--wide-scores", str(root / "scores.bin"),
                "--narrow-scores", str(root / "scores.bin"),
                "--narrow-head", str(path), "--out", str(out / "frame")]
    return None  # nothing on the command line reads .flo files


def edit_key(text, key, field, value):
    """`text` with token `field` of the first line of `key` set to `value`."""
    lines = text.splitlines()
    at = next(k for k, line in enumerate(lines) if line.split()[0] == key)
    tokens = lines[at].split()
    tokens[field] = value
    lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", READERS)
def test_readers_raise_only_semshare_errors(valid, tmp_path, name):
    root, scene_dir = valid
    work = tmp_path / "bench"
    shutil.copytree(root, work)
    work_scene = work / scene_dir.name
    path, reader = reader_cases(work, work_scene)[name]
    rejected = 0
    for broken in broken_inputs(path, reader, seed=100 + READERS.index(name)):
        rejected += 1
        argv = cli_argv(name, broken, work, work_scene, tmp_path)
        if argv is not None and rejected <= CLI_CHECKS:
            assert main(argv) in (2, 3, 4), (name, argv)
    assert rejected > 0, f"no mutation of the {name} file was rejected"


class TestReportedCases:
    def test_short_manifest_line(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("version 1\nscene 000\n")
        with pytest.raises(DataError):
            read_benchmark(tmp_path)
        assert main(["ablate", "flow", "--bench", str(tmp_path)]) == 3

    def test_binary_rig(self, valid, tmp_path):
        root, scene_dir = valid
        rig = tmp_path / "rig.txt"
        rig.write_bytes(bytes(range(256)))
        with pytest.raises(DataError):
            read_rig(rig)
        argv = ["share", "--rig", str(rig),
                "--wide-image", str(scene_dir / "wide.pgm"),
                "--narrow-image", str(scene_dir / "narrow.pgm"),
                "--scores", str(root / "scores.bin"), "--out", str(tmp_path / "p.bin")]
        assert main(argv) == 3

    def test_binary_scene(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_bytes(b"# semshare scene\n\xff\xfe\x00garbage\n")
        with pytest.raises(DataError):
            read_scene(scene)

    # a file that parses but describes an impossible head or scene is a
    # data error, though building the same head or scene in code is a
    # config error
    @pytest.mark.parametrize(
        "header, payload",
        [
            # residual tag with hidden width 0
            ((KIND_FUSION_HEAD, 6, 1, 0), b""),
            # a basic head with 1 class: w (1, 2) and b (1,)
            ((KIND_FUSION_HEAD, 1, 0, 0), bytes(12)),
            # a residual head whose w1 (h, 2c) has more elements than an int64
            # holds: np.prod wrapped the count to 12942, and reshape raised
            # a bare ValueError out of `run`
            ((KIND_FUSION_HEAD, 3037012561, 1, 3036988439), bytes(51768)),
        ],
        ids=["residual-hidden-0", "one-class", "size-product-overflows-int64"],
    )
    def test_impossible_head(self, valid, tmp_path, header, payload):
        root, scene_dir = valid
        head = tmp_path / "head.bin"
        head.write_bytes(pack_header(*header) + payload)
        with pytest.raises(DataError):
            read_head(head)
        assert main(cli_argv("head", head, root, scene_dir, tmp_path)) == 3

    # (key, token, value): the edit, in a rig file and in a scene file
    IMPOSSIBLE_RIGS = pytest.mark.parametrize(
        "key, field, value",
        [("narrow.fx", 1, "0.0"), ("narrow.fx", 1, "nan"), ("rotation", 2, "0.5"),
         ("narrow.size", 1, "0")],
        ids=["fx-zero", "fx-nan", "rotation-not-orthonormal", "size-zero"],
    )

    @IMPOSSIBLE_RIGS
    def test_impossible_rig(self, valid, tmp_path, key, field, value):
        root, scene_dir = valid
        rig = tmp_path / "rig.txt"
        rig.write_text(edit_key((scene_dir / "rig.txt").read_text(), key, field, value))
        with pytest.raises(DataError):
            read_rig(rig)
        assert main(cli_argv("rig", rig, root, scene_dir, tmp_path)) == 3

    @IMPOSSIBLE_RIGS
    def test_impossible_rig_in_a_scene(self, valid, tmp_path, key, field, value):
        root, scene_dir = valid
        work = tmp_path / "bench"
        shutil.copytree(root, work)
        scene = work / scene_dir.name / "scene.txt"
        scene.write_text(edit_key(scene.read_text(), key, field, value))
        with pytest.raises(DataError):
            read_scene(scene)
        assert main(cli_argv("scene", scene, work, work / scene_dir.name, tmp_path)) == 3

    @pytest.mark.parametrize(
        "key, field, value",
        [("box", 5, "1"), ("num_classes", 1, "7"), ("box", 6, "-1"), ("texture_seed", 1, "-1")],
        ids=["box-class-1", "num-classes-7", "box-seed-negative", "scene-seed-negative"],
    )
    def test_impossible_scene(self, valid, tmp_path, key, field, value):
        root, scene_dir = valid
        work = tmp_path / "bench"
        shutil.copytree(root, work)
        scene = work / scene_dir.name / "scene.txt"
        scene.write_text(edit_key(scene.read_text(), key, field, value))
        with pytest.raises(DataError):
            read_scene(scene)
        assert main(cli_argv("scene", scene, work, work / scene_dir.name, tmp_path)) == 3

    # headers whose payload is larger than the file: the read is bounded by
    # the file, so neither a huge allocation nor an index overflow happens
    @pytest.mark.parametrize(
        "header",
        [b"P5\n100000000 100000000\n255\n", b"P5\n4000000000 4000000000\n255\n",
         b"P6\n100000000 100000000\n255\n"],
        ids=["pgm-1e8", "pgm-4e9", "ppm-1e8"],
    )
    def test_header_larger_than_file(self, valid, tmp_path, header):
        root, scene_dir = valid
        image = tmp_path / "huge.pgm"
        image.write_bytes(header + bytes(64))
        with pytest.raises(DataError):
            read_image(image)
        assert main(cli_argv("pgm", image, root, scene_dir, tmp_path)) == 3

    @pytest.mark.parametrize(
        "key, field", [("seed", 1), ("scene", 6), ("texture", 4)], ids=["bench", "scene", "texture"]
    )
    def test_negative_manifest_seed(self, valid, tmp_path, key, field):
        root, _ = valid
        work = tmp_path / "bench"
        shutil.copytree(root, work)
        manifest = work / "manifest.txt"
        manifest.write_text(edit_key(manifest.read_text(), key, field, "-7"))
        with pytest.raises(DataError):
            read_benchmark(work)
        assert main(["ablate", "overlap", "--bench", str(work)]) == 3
