"""Core raster types and the resampling kernels used by both warp stages.

All rasters are immutable after construction and store their payload as
channel-planar numpy arrays (shape (C, H, W) for images and score maps).
Warping is backward everywhere: a GridMap tells each *target* pixel which
*source* coordinate to sample, so warped outputs never have holes.
Validity masks are first class; a valid grid pixel's source coordinate
lies inside the source raster (0..W-1 x 0..H-1, inclusive, pixel-center
convention).

_gather_bilinear is the package's one bilinear blend: it reads a plane's
four corners at a support's flat indices (y * w + x) and blends them by
its fractions.  Its two entries share one support among many planes:
_sample_planes clamps coordinates to the planes (_bilinear_support), for
flow's pyramid, warp and upsampling and the synthetic flow samples, and
_warp_planes warps through a grid with fill (below).  synth.value_noise
blends its wrapping lattice's corners through it, on its own support,
whose fractions broadcast: a row and a column give a whole lattice.

compose_grids is the one grid kernel, h^-1(p + flow[p]) in one pass;
grid_from_homography and grid_from_flow are its zero-flow and
identity-homography cases, and no grid is resampled through another.

The per-pixel passes over a frame, the warps of _warp_planes (both score
warps, the stage-one image warp and warp_labels), compose_grids and
fusion.fuse_forward, hand one entry, _run_box, a mask and a band kernel.
_run_box alone picks the box (the mask's True pixels), its row bands of
about _BAND_PIXELS pixels (_row_bands: one band's temporaries stay in L2)
and the threads that take them (_thread_count, _run_parts); its docstring
states the policy.  A band is the same whatever thread runs it, so no
output depends on the thread count, and every warped or mapped pixel
sees the arithmetic of a whole-raster pass, so no warp or grid depends
on the box or the band size either.  A fused pixel's bits can: a BLAS
kernel can round a product's last columns differently from the others.
The flow solver runs on the calling thread (see flow).  The scene
renderer walks _row_bands on one thread: its many small numpy calls per
band hand the interpreter lock back and forth, and two threads of bands
gained nothing (2-core host, medians of 15 alternating rounds of two
renders: 28.3 -> 28.7 and 32.0 -> 36.0 ms at 384^2, 7.7 -> 7.6 and 8.8
-> 8.7 ms at 192^2).

The module also holds the package's one binomial smoothing, _smooth
(flow's pyramid and the score blur of synth.degrade_scores), and its one
pixel lattice, _lattice.
"""

from __future__ import annotations

import collections
import contextvars
import os
import threading

import numpy as np

from .camera import Homography, apply_homography_arrays, invert_homography
from .errors import DataError, DimensionError

SCORE_FILL = -1e4  # fill for score logits: argmax never picks filled pixels
IMAGE_FILL = 0.0
# pixels per band of a banded pass: small enough for a band's temporaries
# to stay in L2
_BAND_PIXELS = 12_288


def _as_float_array(data, name, copy=True):
    """`data` as a float64 array with finite values; copy=False keeps a
    float64 array as it is (its caller hands it over)."""
    arr = np.array(data, dtype=float) if copy else np.asarray(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


class _Raster:
    """height, width and size (width, height) of a raster whose _extent
    array ends in the (H, W) axes: its data, or a grid's sx plane."""

    __slots__ = ()

    @property
    def _extent(self):
        return self.data

    @property
    def height(self):
        return self._extent.shape[-2]

    @property
    def width(self):
        return self._extent.shape[-1]

    @property
    def size(self):
        return (self.width, self.height)


class Image(_Raster):
    """Intensity raster with 1 or 3 channels and values in [0, 1].

    data has shape (channels, height, width); 2D input is promoted to a
    single channel.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = _as_float_array(data, "image")
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[0] not in (1, 3):
            raise DimensionError(f"image needs shape (1|3, H, W), got {arr.shape}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise DimensionError(f"image has empty extent: {arr.shape}")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DataError("image intensities must lie in [0, 1]")
        arr.flags.writeable = False
        self.data = arr

    @property
    def channels(self):
        return self.data.shape[0]


class ScoreMap(_Raster):
    """Per-pixel class logits, shape (C, H, W) with C >= 2, finite values."""

    __slots__ = ("data",)

    def __init__(self, data):
        self._hold(_as_float_array(data, "score map"))

    @classmethod
    def _adopt(cls, arr):
        """ScoreMap over `arr`, a fresh float64 array the package has just
        built and hands over: the same checks, but no copy."""
        scores = cls.__new__(cls)
        scores._hold(_as_float_array(arr, "score map", copy=False))
        return scores

    def _hold(self, arr):
        if arr.ndim != 3 or arr.shape[0] < 2:
            raise DimensionError(f"score map needs shape (C>=2, H, W), got {arr.shape}")
        arr.flags.writeable = False
        self.data = arr

    @property
    def num_classes(self):
        return self.data.shape[0]

    def argmax_labels(self) -> "LabelMap":
        # np.argmax returns the first maximum: ties break to the lowest class
        return LabelMap(np.argmax(self.data, axis=0), self.num_classes)


class LabelMap(_Raster):
    """Per-pixel class indices in [0, num_classes)."""

    __slots__ = ("data", "num_classes")

    def __init__(self, data, num_classes: int):
        arr = np.array(data)
        if arr.ndim != 2:
            raise DimensionError(f"label map needs shape (H, W), got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise DataError("label map must hold integers")
        if num_classes < 2:
            raise DataError(f"num_classes must be >= 2, got {num_classes}")
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise DataError(f"labels must lie in [0, {num_classes})")
        arr = arr.astype(np.int32)
        arr.flags.writeable = False
        self.data = arr
        self.num_classes = int(num_classes)

    def one_hot(self) -> ScoreMap:
        c = self.num_classes
        return ScoreMap((np.arange(c)[:, None, None] == self.data[None]).astype(float))


class FlowField(_Raster):
    """Per-pixel displacement (dx, dy) in pixels, shape (2, H, W).

    Backward convention: the source for target pixel p sits at p + flow[p].
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = _as_float_array(data, "flow field")
        if arr.ndim != 3 or arr.shape[0] != 2:
            raise DimensionError(f"flow needs shape (2, H, W), got {arr.shape}")
        arr.flags.writeable = False
        self.data = arr

    @property
    def dx(self):
        return self.data[0]

    @property
    def dy(self):
        return self.data[1]

    @staticmethod
    def zero(size) -> "FlowField":
        w, h = size
        return FlowField(np.zeros((2, h, w)))


class GridMap(_Raster):
    """Absolute source coordinates (sx, sy) per target pixel plus validity.

    source_size is the (width, height) of the raster the coordinates index
    into.  Valid pixels carry finite in-bounds coordinates; coordinates at
    invalid pixels are canonicalized to 0 so equal grids compare equal.
    """

    __slots__ = ("sx", "sy", "valid", "source_size")

    def __init__(self, sx, sy, valid, source_size):
        # no copies of sx and sy: np.where makes the owned canonical planes
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        valid = np.array(valid, dtype=bool)
        if not (sx.ndim == 2 and sx.shape == sy.shape == valid.shape):
            raise DimensionError("grid planes must share one 2D shape")
        w, h = int(source_size[0]), int(source_size[1])
        if w < 1 or h < 1:
            raise DimensionError(f"source size must be positive, got {source_size}")
        sx = np.where(valid, sx, 0.0)
        sy = np.where(valid, sy, 0.0)
        # invalid pixels now hold 0, which passes both checks, so the whole
        # planes are checked instead of gathers of the valid pixels
        if not (np.all(np.isfinite(sx)) and np.all(np.isfinite(sy))):
            raise DataError("valid grid pixels must have finite coordinates")
        if sx.min() < 0 or sx.max() > w - 1 or sy.min() < 0 or sy.max() > h - 1:
            raise DataError("valid grid pixels must stay inside the source raster")
        for plane in (sx, sy, valid):
            plane.flags.writeable = False
        self.sx = sx
        self.sy = sy
        self.valid = valid
        self.source_size = (w, h)

    @property
    def _extent(self):
        return self.sx


def _lattice(size, dtype=float):
    """(xs, ys): every pixel's coordinates on a (width, height) raster."""
    w, h = size
    ys, xs = np.mgrid[0:h, 0:w]
    return xs.astype(dtype), ys.astype(dtype)


def _row_bands(rows: slice, width):
    """Consecutive row slices, one band each, that cover `rows` of a pass
    over rows of `width` pixels: _BAND_PIXELS // width rows per band, at
    least 1; only the last band can be shorter."""
    step = max(1, _BAND_PIXELS // width)
    return [slice(r0, min(r0 + step, rows.stop)) for r0 in range(rows.start, rows.stop, step)]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(rows: slice, width):
    """Threads for a pass over `rows` of rows of `width` pixels: one per
    usable CPU, but at most one per row and one per 2 * _BAND_PIXELS
    pixels."""
    n = rows.stop - rows.start
    return max(1, min(_usable_cpus(), n * width // (2 * _BAND_PIXELS), n))


def _run_parts(fn, parts, threads):
    """Run fn(taken) on `threads` threads: the calling thread and one
    worker per other thread, started here, each in a copy of the caller's
    contextvars context (numpy's error state included), and joined before
    the return.  `taken` iterates over the parts that its thread takes:
    each time it asks, a thread takes the next part no thread has taken,
    so a thread that runs late (its CPU busy with other work) takes fewer.
    No part is handed out after a failure; once all workers are joined,
    the first failure is raised unchanged."""
    todo = collections.deque(parts)  # popleft is atomic: no part is taken twice
    failures = []

    def taken():
        while not failures:
            try:
                part = todo.popleft()
            except IndexError:  # every part is taken
                return
            yield part

    def run():
        try:
            fn(taken())
        except BaseException as exc:  # raised in the caller after the join
            failures.append(exc)

    workers = []
    try:
        for _ in range(threads - 1):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(run,))
            worker.start()
            workers.append(worker)
    except BaseException as exc:  # a worker failed to start: the started ones stop taking parts
        failures.append(exc)
    else:
        run()
    finally:
        for worker in workers:
            worker.join()
    if failures:
        raise failures[0]


def _smooth(planes, weights):
    """Separable smoothing of the last two axes by the odd-length kernel
    `weights`, with replicate borders; Python-float weights keep the
    planes' dtype."""
    r = len(weights) // 2
    h, w = planes.shape[-2:]
    lead = [(0, 0)] * (planes.ndim - 2)
    padded = np.pad(planes, lead + [(0, 0), (r, r)], mode="edge")
    out = sum(wk * padded[..., k : k + w] for k, wk in enumerate(weights))
    padded = np.pad(out, lead + [(r, r), (0, 0)], mode="edge")
    return sum(wk * padded[..., k : k + h, :] for k, wk in enumerate(weights))


def identity_grid(size) -> GridMap:
    return grid_from_flow(FlowField.zero(size))


def _in_bounds(sx, sy, source_size):
    w, h = source_size
    return (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)


def compose_grids(flow: FlowField, mask, h: Homography, source_size) -> GridMap:
    """Backward grid p -> h^-1(p + flow[p]) for a source->target homography
    h, evaluated in _run_box bands over the True pixels of `mask` (a
    boolean plane of the flow's shape).  A pixel is valid where the mask
    is set, the projective denominator at p + flow[p] is finite and puts
    the point in front of the source camera, and the source coordinate
    lies inside the source raster; p + flow[p] may leave the target.

    A rig's homography K_target R inv(K_source) has a positive determinant
    (positive focals, proper rotation).  Scaled to a positive determinant,
    the inverse is a positive multiple of K_source R^T inv(K_target), so
    its projective denominator at a point is the source-camera depth of
    the point's ray times a positive factor.  The h[2,2] normalization
    may negate the stored matrix, but that negates its determinant too.
    """
    if mask.shape != flow.dx.shape:
        raise DimensionError(f"mask shape {mask.shape} != flow shape {flow.dx.shape}")
    if min(flow.size) < 1 or min(source_size) < 1:
        raise DimensionError("grid sizes must be positive")
    h_inv = invert_homography(h)
    m = h_inv.h
    sign = np.sign(np.linalg.det(m))
    sx, sy = np.zeros((2,) + mask.shape)
    valid = np.zeros(mask.shape, bool)

    def grid_bands(bands, cols):
        xs = np.arange(cols.start, cols.stop, dtype=float)
        for band in bands:
            ys = np.arange(band.start, band.stop, dtype=float)[:, None]
            px = xs + flow.dx[band, cols]
            py = ys + flow.dy[band, cols]
            bx, by, finite = apply_homography_arrays(h_inv, px, py)
            depth = (m[2, 0] * px + m[2, 1] * py + m[2, 2]) * sign
            sx[band, cols], sy[band, cols] = bx, by
            mapped = finite & (depth > 0.0) & _in_bounds(bx, by, source_size)
            valid[band, cols] = mask[band, cols] & mapped

    _run_box(mask, grid_bands)
    return GridMap(sx, sy, valid, source_size)


def grid_from_homography(h: Homography, target_size, source_size) -> GridMap:
    """Backward grid p -> h^-1(p) for warping by a source->target
    homography: compose_grids with zero flow on the whole target."""
    whole = np.ones((target_size[1], target_size[0]), bool)
    return compose_grids(FlowField.zero(target_size), whole, h, source_size)


def grid_from_flow(flow: FlowField) -> GridMap:
    """Backward grid p -> p + flow[p]; source raster has the flow's size:
    compose_grids with the identity homography on the whole raster."""
    return compose_grids(flow, np.ones(flow.dx.shape, bool), Homography(np.eye(3)), flow.size)


def _bilinear_support(sx, sy, source_size):
    """Bilinear support of the points (sx, sy) in a source raster of
    `source_size`, with the coordinates clamped to it.

    Returns (idx, fx, fy): idx stacks the flat indices y * w + x of the
    top-left, top-right, bottom-left and bottom-right corners on a leading
    axis of 4 (sx and sy broadcast), fx and fy are the fractional parts.
    """
    w, h = source_size
    fx = np.clip(sx, 0.0, w - 1.0)
    fy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(fx)
    y0 = np.floor(fy)
    # in place, so the clamped coordinates need no array of their own; the
    # float floor keeps float32 in float32, and the difference is exact
    fx -= x0
    fy -= y0
    x0 = x0.astype(np.intp)
    y0 = y0.astype(np.intp)
    idx = np.empty((4,) + np.broadcast_shapes(x0.shape, y0.shape), np.intp)
    np.multiply(y0, w, out=idx[0])
    idx[0] += x0
    # the right and lower neighbors, or the corner itself on the last column
    # and row (where its weight is 0)
    np.add(idx[0], x0 < w - 1, out=idx[1])
    np.add(idx[0], (y0 < h - 1) * w, out=idx[2])
    np.add(idx[2], x0 < w - 1, out=idx[3])
    return idx, fx, fy


def _gather_bilinear(plane, support, out=None):
    """Bilinear interpolation of a 2D plane on a support (idx, fx, fy) whose
    idx holds the four corners' flat indices, written into `out` if given."""
    idx, fx, fy = support
    flat = plane.ravel()
    wx = 1.0 - fx
    rows = []
    for left, right, wy in ((idx[0], idx[1], 1.0 - fy), (idx[2], idx[3], fy)):
        row, c = flat.take(left), flat.take(right)
        row *= wx
        c *= fx
        row += c
        row *= wy
        rows.append(row)
    return np.add(*rows, out=out)


def _sample_planes(planes, sx, sy, out=None):
    """Bilinear samples at (sx, sy), clamped to the planes, of every plane
    of `planes`, a sequence of equal-shape 2D planes (a (C, H, W) stack is
    one), from one support, written into `out` when given.  sx and sy
    broadcast: a row of xs and a column of ys sample a whole lattice."""
    h, w = planes[0].shape
    support = _bilinear_support(sx, sy, (w, h))
    if out is None:
        out = np.empty((len(planes),) + support[0].shape[1:], np.result_type(*planes, support[1]))
    for plane, plane_out in zip(planes, out):
        _gather_bilinear(plane, support, out=plane_out)
    return out


def _valid_box(valid, pad=0, min_size=1):
    """(rows, cols) slices of the bounding box of a 2D mask's True pixels,
    or None when it has none.

    With pad > 0 the box is widened by pad on every side and its edges are
    rounded outward to multiples of pad.  The box is then clamped to the
    mask and grown, as far as the mask allows, to at least min_size rows
    and columns (rounded up to a multiple of pad), so every edge stays a
    multiple of pad or an edge of the mask.
    """
    rows = np.flatnonzero(valid.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(valid.any(axis=0))
    step = max(pad, 1)
    size = -(-min_size // step) * step
    box = []
    for hits, n in ((rows, valid.shape[0]), (cols, valid.shape[1])):
        lo = max(0, (int(hits[0]) - pad) // step * step)
        hi = min(n, max(-(-(int(hits[-1]) + 1 + pad) // step) * step, lo + size))
        lo = max(0, min(lo, (hi - size) // step * step))
        box.append(slice(lo, hi))
    return tuple(box)


def _run_box(mask, fn):
    """Run a banded pass over the box of the True pixels of a 2D mask;
    nothing runs when it has none.

    The box is grown to at least 2 rows and columns where the mask
    allows, because a one-pixel product runs as numpy's matrix-vector
    product, whose rounding differs from the matrix product's (a warp's
    added pixels are invalid and keep its fill).  The box is cut into
    _row_bands, and fn(bands, cols) runs on _thread_count threads through
    _run_parts: one per usable CPU, but at most one per row and one per
    2 * _BAND_PIXELS pixels.  `bands` iterates over the row slices its
    thread takes from the queue; cols is the box's column slice.  numpy
    releases the interpreter lock only inside each call, so threads gain
    where a band's calls are large.

    The bands are the serial pass's whatever thread runs them.  Within a
    band, a pixel's bits can still depend on its column in a matrix
    product: a BLAS kernel can round the last columns of a product, past
    its last full column block, differently from the others (with a
    one-thread OpenBLAS, 79 of the 463,188 scores of a residual head on a
    242 x 319 box differed from one whole-box product).
    """
    box = _valid_box(mask, min_size=2)
    if box is not None:
        rows, cols = box
        width = cols.stop - cols.start
        _run_parts(
            lambda bands: fn(bands, cols), _row_bands(rows, width), _thread_count(rows, width)
        )


def _warp_planes(planes, grid: GridMap, fill: float):
    """Sample a sequence of equal-shape 2D planes through the grid, one
    support per band of _run_box over its valid pixels; every pixel
    outside the box, and every invalid one, is fill.  Returns one
    (len(planes), H, W) array."""
    out = np.full((len(planes),) + grid.valid.shape, fill, np.result_type(*planes, grid.sx))

    def warp_bands(bands, cols):
        for band in bands:
            sampled = _sample_planes(
                planes, grid.sx[band, cols], grid.sy[band, cols], out[:, band, cols]
            )
            np.copyto(sampled, fill, where=~grid.valid[band, cols])

    _run_box(grid.valid, warp_bands)
    return out


def warp_raster(src, grid: GridMap):
    """Bilinearly warp an Image or ScoreMap through a grid.

    Returns (warped raster of the same type, validity mask).  Invalid
    pixels hold the fill value exactly (IMAGE_FILL for images, SCORE_FILL,
    a large negative logit, for score maps so a later argmax never selects
    them).
    """
    if not isinstance(src, (Image, ScoreMap)):
        raise DimensionError(f"warp_raster expects Image or ScoreMap, got {type(src).__name__}")
    if grid.source_size != src.size:
        raise DimensionError(f"grid source size {grid.source_size} != raster size {src.size}")
    mask = grid.valid.copy()
    if isinstance(src, Image):
        out = _warp_planes(src.data, grid, IMAGE_FILL)
        # convex bilinear weights keep values in range; clip only guards
        # against last-ulp rounding so the Image invariant holds bit-safely
        return Image(np.clip(out, 0.0, 1.0, out=out)), mask
    return ScoreMap._adopt(_warp_planes(src.data, grid, SCORE_FILL)), mask


def warp_labels(labels: LabelMap, grid: GridMap):
    """Warp labels by one-hot expansion, bilinear resampling and argmax.

    Ties break to the lowest class index.  Invalid pixels get class 0 in
    the label plane and False in the returned mask.
    """
    if grid.source_size != labels.size:
        raise DimensionError(f"grid source size {grid.source_size} != raster size {labels.size}")
    scores = _warp_planes(labels.one_hot().data, grid, 0.0)
    labels_out = np.argmax(scores, axis=0).astype(np.int32)
    return LabelMap(labels_out, labels.num_classes), grid.valid.copy()
