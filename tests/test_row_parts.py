"""Row parts on threads: raster._run_parts shares the parts of a pass (the
row bands of a warp or of fusion, the row parts of a solver level) out
between the calling thread and its workers.  The warps, grid composition
and fusion inference give the same bytes for 1, 2 and 3 threads, and a
failing part's exception reaches the caller once every thread is
joined."""

import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from test_flow import bounded, fast_switching, force_parts  # noqa: F401 (a fixture)
from test_raster import edge_heavy_grid

from semshare import flow, fusion, raster
from semshare.fusion import VARIANT_KINDS, fuse_forward, new_head
from semshare.raster import GridMap, LabelMap, ScoreMap, compose_grids, warp_labels

PART_COUNTS = (1, 2, 3)


def record_part_counts(monkeypatch):
    """A list that receives the thread count of every raster._run_parts
    call, in raster and in the modules that import it."""
    counts = []
    run_parts = raster._run_parts

    def spy(fn, parts, threads=None, barrier=False):
        counts.append(len(parts) if threads is None else threads)
        return run_parts(fn, parts, threads, barrier)

    for module in (raster, flow, fusion):
        monkeypatch.setattr(module, "_run_parts", spy)
    return counts


def by_part_count(monkeypatch, outputs, one_row_bands=True):
    """{thread count: outputs() as bytes} for every count of PART_COUNTS.
    With one_row_bands (force_parts) every pass runs on exactly that many
    threads; otherwise only the CPU count is forced, the bands keep their
    size, and the largest pass runs on that many threads."""
    got = {}
    for cpus in PART_COUNTS:
        with monkeypatch.context() as m:
            if one_row_bands:
                force_parts(m, cpus)
            else:
                m.setattr(raster, "_usable_cpus", lambda: cpus)
            counts = record_part_counts(m)
            got[cpus] = [np.asarray(a).tobytes() for a in outputs()]
        assert counts and max(counts) == cpus
        assert min(counts) == cpus or not one_row_bands
    return got


def warp_inputs(seed=41):
    """Planes, labels and two grids: `grid` warps the planes and labels and
    composes with `inner`.  Its valid pixels start at row 4, so the box's
    parts start there too, and its box (238 x 319 pixels) splits into 3
    parts at the default band size."""
    rng = np.random.default_rng(seed)
    inner = edge_heavy_grid(rng, (61, 47), (67, 43), invalid_frac=0.1)
    grid = edge_heavy_grid(rng, (319, 242), inner.size)
    valid = grid.valid.copy()
    valid[:4] = False
    grid = GridMap(grid.sx, grid.sy, valid, grid.source_size)
    planes = rng.standard_normal((4, 47, 61))
    labels = LabelMap(rng.integers(0, 5, size=(47, 61)), 5)
    return planes, labels, grid, inner


def fusion_inputs(kind, seed=43):
    """A head and two maps whose mask's box (237 x 319 pixels) splits into
    3 parts at the default band size.  Its 38-row bands hold 12,122
    pixels, no multiple of a BLAS kernel's column block, so a product's
    last columns can round differently from the others."""
    c, h, w = 6, 242, 319
    rng = np.random.default_rng(seed)
    head = new_head(kind, c, seed=3, init_scale=1.0)
    propagated = ScoreMap(rng.standard_normal((c, h, w)))
    native = ScoreMap(rng.standard_normal((c, h, w)))
    mask = rng.random((h, w)) < 0.7
    mask[:5] = False
    return head, propagated, native, mask


BAND_MODES = pytest.mark.parametrize(
    "one_row_bands", [True, False], ids=["one-row-bands", "default-bands"]
)


class TestPartCount:
    @BAND_MODES
    def test_warps_do_not_depend_on_the_part_count(
        self, monkeypatch, fast_switching, one_row_bands
    ):
        planes, labels, grid, inner = warp_inputs()

        def outputs():
            composed = compose_grids(grid, inner)
            warped, mask = warp_labels(labels, grid)
            warped_planes = raster._warp_planes(planes, grid, -3.0)
            return warped_planes, composed.sx, composed.sy, composed.valid, warped.data, mask

        got = by_part_count(monkeypatch, outputs, one_row_bands)
        assert got[2] == got[1] and got[3] == got[1]

    @BAND_MODES
    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_fusion_does_not_depend_on_the_part_count(
        self, monkeypatch, fast_switching, kind, one_row_bands
    ):
        """The threads share out the bands of the serial pass, so every
        product has the serial pass's columns: parts that split bands
        changed the bits of about 70 scores of the residual head here."""
        inputs = fusion_inputs(kind)
        got = by_part_count(monkeypatch, lambda: [fuse_forward(*inputs).data], one_row_bands)
        assert got[2] == got[1] and got[3] == got[1]

    def test_fusion_under_a_one_thread_blas_does_not_depend_on_the_part_count(self):
        """The default-bands check in a child process whose BLAS runs on
        one thread: there a product's last columns round differently from
        the others, so a part that split a band would change bits (with a
        threaded BLAS these inputs showed no such difference)."""
        here = pathlib.Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        child = subprocess.run(
            [sys.executable, "-c", ONE_THREAD_BLAS_CHECK],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == list(VARIANT_KINDS)


ONE_THREAD_BLAS_CHECK = """
import pytest
from semshare.fusion import VARIANT_KINDS, fuse_forward
from test_row_parts import by_part_count, fusion_inputs

with pytest.MonkeyPatch.context() as m:
    for kind in VARIANT_KINDS:
        inputs = fusion_inputs(kind)
        got = by_part_count(m, lambda: [fuse_forward(*inputs).data], one_row_bands=False)
        assert got[2] == got[1] and got[3] == got[1], kind
        print(kind)
"""


# stage: the pass, the module and the name of the per-band kernel it calls
STAGES = {"warp": (raster, "_sample_planes"), "fuse": (fusion, "_forward_mat")}


class TestFailingPart:
    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize(
        "part, divide, expected",
        [(1, None, ValueError), (1, "warn", RuntimeWarning), (1, "raise", FloatingPointError),
         (0, None, ValueError)],
        ids=["part-1-error", "part-1-numpy-warning", "part-1-numpy-raise", "part-0-error"],
    )
    def test_a_failing_part_raises_its_exception(
        self, monkeypatch, fast_switching, stage, part, divide, expected
    ):
        """The first band of part `part` fails.  Its exception reaches the
        caller unchanged, and every thread is joined.  A division by zero
        on the worker follows the caller's numpy error state: a warning (an
        exception under the suite's filterwarnings = error) or, under
        np.errstate(divide="raise"), a FloatingPointError."""
        force_parts(monkeypatch, 2)
        module, name = STAGES[stage]
        kernel = getattr(module, name)
        caller, raised = [], []

        def failing(*args, **kwargs):
            if (threading.get_ident() != caller[0]) == part and not raised:
                try:
                    if divide is None:
                        raise ValueError("band failed")
                    np.float64(1.0) / np.float64(0.0)
                except Exception as exc:
                    raised.append(exc)
                    raise
            return kernel(*args, **kwargs)

        if stage == "warp":
            planes, _, grid, _ = warp_inputs()
            run = lambda: raster._warp_planes(planes, grid, 0.0)  # noqa: E731
        else:
            inputs = fusion_inputs("residual")
            run = lambda: fuse_forward(*inputs)  # noqa: E731

        def call():
            caller.append(threading.get_ident())
            with np.errstate(divide=divide or "warn"):
                return run()

        monkeypatch.setattr(module, name, failing)
        before = threading.active_count()
        with pytest.raises(expected) as info:
            bounded(call)
        assert len(raised) == 1 and info.value is raised[0]
        assert threading.active_count() == before

    @pytest.mark.parametrize("barrier", [False, True])
    def test_a_thread_that_fails_to_start_fails_the_pass(self, monkeypatch, barrier):
        """The start failure is raised once the started worker is joined
        (with a barrier, aborting it frees that worker), and the calling
        thread runs no part."""
        start = threading.Thread.start
        started, owners = [], []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        def run(taken, *sync):
            for rows in taken:
                owners.append(threading.get_ident())
                for wait in sync:
                    wait.wait()

        def call():
            with monkeypatch.context() as m:  # after bounded started its thread
                m.setattr(threading.Thread, "start", start_once)
                raster._run_parts(run, [slice(0, 1), slice(1, 2), slice(2, 3)], barrier=barrier)

        with pytest.raises(RuntimeError, match="can't start"):
            bounded(call)
        assert len(started) == 1 and not started[0].is_alive()
        assert set(owners) == {started[0].ident}

    def test_a_failing_part_breaks_the_barrier_of_the_others(self):
        def run(taken, barrier):
            for rows in taken:
                if rows.start == 1:
                    raise ValueError("part 1 failed")
                barrier.wait()

        parts = [slice(0, 1), slice(1, 2), slice(2, 3)]
        before = threading.active_count()
        with pytest.raises(ValueError, match="part 1 failed"):
            bounded(raster._run_parts, run, parts, None, True)
        assert threading.active_count() == before

    def test_with_a_barrier_every_thread_takes_one_part(self):
        owners = {}

        def run(taken, barrier):
            for rows in taken:
                owners[rows.start] = threading.get_ident()
                barrier.wait()

        bounded(raster._run_parts, run, [slice(i, i + 1) for i in range(3)], None, True)
        assert sorted(owners) == [0, 1, 2] and len(set(owners.values())) == 3

    def test_a_thread_that_runs_late_takes_fewer_parts(self):
        """The worker takes part 0 and then waits until the calling thread,
        which starts only once part 0 is taken, has run all the others."""
        took, done, owners = threading.Event(), threading.Event(), {}

        def run(taken):
            on_caller = threading.get_ident() == caller[0]
            if on_caller:
                assert took.wait(60)
            for part in taken:
                owners[part] = on_caller
                if not on_caller:
                    took.set()
                    assert done.wait(60)
            if on_caller:
                done.set()

        caller = []

        def call():
            caller.append(threading.get_ident())
            raster._run_parts(run, list(range(10)), threads=2)

        bounded(call)
        assert owners == {0: False, **{i: True for i in range(1, 10)}}
