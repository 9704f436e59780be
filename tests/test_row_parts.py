"""Row bands on threads: raster._run_box hands the row bands of a warp or
of fusion to raster._run_parts, which shares them out between the calling
thread and the workers that raster._thread_count allows.  The warps, grid
composition and fusion inference give the same bytes for 1, 2 and 3
threads, a failing part's exception reaches the caller once every thread
is joined, and the flow solver starts no thread."""

import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from test_flow import noise_pair
from test_raster import edge_heavy_grid, projective_homography

from semshare import fusion, raster
from semshare.flow import FlowConfig, estimate_flow
from semshare.fusion import VARIANT_KINDS, fuse_forward, new_head
from semshare.raster import FlowField, GridMap, LabelMap, ScoreMap, compose_grids, warp_labels

PART_COUNTS = (1, 2, 3)


@pytest.fixture
def fast_switching():
    """A 1 us thread switch interval, so the threads of a pass interleave
    at almost every bytecode."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def bounded(fn, *args, timeout=120.0):
    """fn(*args) run in a daemon thread and waited for at most `timeout`
    seconds: its result, or its exception raised here."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{fn.__name__} did not return within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def force_parts(monkeypatch, cpus):
    """One-row bands, and `cpus` usable CPUs: every banded pass runs on
    min(cpus, rows) threads."""
    monkeypatch.setattr(raster, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(raster, "_BAND_PIXELS", 1)


def record_part_counts(monkeypatch):
    """A list that receives the thread count of every raster._run_parts
    call; the warps and fusion reach it through raster._run_box."""
    counts = []
    run_parts = raster._run_parts

    def spy(fn, parts, threads):
        counts.append(threads)
        return run_parts(fn, parts, threads)

    monkeypatch.setattr(raster, "_run_parts", spy)
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
    """Planes, labels, a grid that warps them, and a flow and homography
    that compose_grids maps over the grid's mask.  The mask's valid pixels
    start at row 4, so the box's parts start there too, and its box
    (238 x 319 pixels) splits into 3 parts at the default band size."""
    rng = np.random.default_rng(seed)
    grid = edge_heavy_grid(rng, (319, 242), (61, 47))
    valid = grid.valid.copy()
    valid[:4] = False
    grid = GridMap(grid.sx, grid.sy, valid, grid.source_size)
    planes = rng.standard_normal((4, 47, 61))
    labels = LabelMap(rng.integers(0, 5, size=(47, 61)), 5)
    flow = FlowField(rng.standard_normal((2, 242, 319)) * 4.0)
    return planes, labels, grid, flow, projective_homography()


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
        planes, labels, grid, flow, homography = warp_inputs()

        def outputs():
            composed = compose_grids(flow, grid.valid, homography, (300, 230))
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
            planes, _, grid, _, _ = warp_inputs()
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

    def test_a_thread_that_fails_to_start_fails_the_pass(self, monkeypatch):
        """The start failure is raised once the started worker is joined,
        and the calling thread runs no part."""
        start = threading.Thread.start
        started, owners = [], []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        def run(taken):
            for rows in taken:
                owners.append(threading.get_ident())

        def call():
            with monkeypatch.context() as m:  # after bounded started its thread
                m.setattr(threading.Thread, "start", start_once)
                raster._run_parts(run, [slice(0, 1), slice(1, 2), slice(2, 3)], threads=3)

        with pytest.raises(RuntimeError, match="can't start"):
            bounded(call)
        assert len(started) == 1 and not started[0].is_alive()
        assert set(owners) == {started[0].ident}

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


class TestThreadCount:
    """How many threads a banded pass gets (raster._thread_count) and the
    row bands it hands out (raster._row_bands)."""

    @pytest.mark.parametrize(
        "cpus, shape, threads",
        [
            (2, (384, 384), 2),
            (2, (208, 216), 1),  # fewer than 2 * _BAND_PIXELS per thread
            (1, (384, 384), 1),
            (3, (301, 384), 3),
            (64, (16, 12_300), 8),  # at most one per 2 * _BAND_PIXELS pixels
        ],
    )
    def test_thread_count(self, monkeypatch, cpus, shape, threads):
        monkeypatch.setattr(raster, "_usable_cpus", lambda: cpus)
        h, w = shape
        assert raster._thread_count(slice(0, h), w) == threads
        assert raster._thread_count(slice(10, 10 + h), w) == threads

    @pytest.mark.parametrize(
        "rows, width, sizes",
        [
            (slice(10, 311), 384, [32] * 9 + [13]),
            (slice(0, 16), 12_300, [1] * 16),  # a row wider than a band
            (slice(3, 8), 100, [5]),
        ],
        ids=["32-row-bands", "1-row-bands", "one-band"],
    )
    def test_bands_of_a_row_range_start_at_its_first_row(self, rows, width, sizes):
        bands = raster._row_bands(rows, width)
        assert [b.stop - b.start for b in bands] == sizes
        assert bands[0].start == rows.start and bands[-1].stop == rows.stop
        assert all(a.stop == b.start for a, b in zip(bands, bands[1:]))


class TestSolverThreads:
    @pytest.mark.parametrize("size", [(64, 64), (12_300, 16)], ids=["64x64", "12300x16"])
    def test_the_flow_solver_starts_no_thread(self, monkeypatch, size):
        """With 64 CPUs and one-row bands every banded pass would start
        threads; the solver sweeps each level on the calling thread."""
        force_parts(monkeypatch, 64)
        start = threading.Thread.start
        started = []

        def record(thread):
            started.append(thread)
            start(thread)

        target, source = noise_pair(size, 1, seed=5)
        monkeypatch.setattr(threading.Thread, "start", record)
        monkeypatch.setattr(FlowConfig, "iterations_per_level", 2)
        estimate_flow(target, source, FlowConfig())
        assert started == []
