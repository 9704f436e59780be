"""Core raster types and the resampling kernels used by both warp stages.

All rasters are immutable after construction and store their payload as
channel-planar numpy arrays (shape (C, H, W) for images and score maps).
Warping is backward everywhere: a GridMap tells each *target* pixel which
*source* coordinate to sample, so warped outputs never have holes.
Validity masks are first class; a grid pixel is valid exactly when its
source coordinate lands inside the source raster (0..W-1 x 0..H-1,
inclusive, pixel-center convention).

sample_bilinear is the package's single bilinear kernel: grid warps,
grid composition, flow's pyramid resize and solver warp, and the
synthetic flow samples all resample through it.
"""

from __future__ import annotations

import numpy as np

from .camera import Homography, apply_homography_arrays, invert_homography
from .errors import DataError, DimensionError

SCORE_FILL = -1e4  # fill for score logits: argmax never picks filled pixels
IMAGE_FILL = 0.0


def _as_float_array(data, name):
    arr = np.array(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


class Image:
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

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]

    @property
    def size(self):
        return (self.width, self.height)


class ScoreMap:
    """Per-pixel class logits, shape (C, H, W) with C >= 2, finite values."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = _as_float_array(data, "score map")
        if arr.ndim != 3 or arr.shape[0] < 2:
            raise DimensionError(f"score map needs shape (C>=2, H, W), got {arr.shape}")
        arr.flags.writeable = False
        self.data = arr

    @property
    def num_classes(self):
        return self.data.shape[0]

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]

    @property
    def size(self):
        return (self.width, self.height)

    def argmax_labels(self) -> "LabelMap":
        # np.argmax returns the first maximum: ties break to the lowest class
        return LabelMap(np.argmax(self.data, axis=0), self.num_classes)


class LabelMap:
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

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def size(self):
        return (self.width, self.height)

    def one_hot(self) -> ScoreMap:
        c = self.num_classes
        return ScoreMap((np.arange(c)[:, None, None] == self.data[None]).astype(float))


class FlowField:
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

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]

    @property
    def size(self):
        return (self.width, self.height)

    @staticmethod
    def zero(size) -> "FlowField":
        w, h = size
        return FlowField(np.zeros((2, h, w)))


class GridMap:
    """Absolute source coordinates (sx, sy) per target pixel plus validity.

    source_size is the (width, height) of the raster the coordinates index
    into.  Valid pixels carry finite in-bounds coordinates; coordinates at
    invalid pixels are canonicalized to 0 so equal grids compare equal.
    """

    __slots__ = ("sx", "sy", "valid", "source_size")

    def __init__(self, sx, sy, valid, source_size):
        sx = np.array(sx, dtype=float)
        sy = np.array(sy, dtype=float)
        valid = np.array(valid, dtype=bool)
        if not (sx.ndim == 2 and sx.shape == sy.shape == valid.shape):
            raise DimensionError("grid planes must share one 2D shape")
        w, h = int(source_size[0]), int(source_size[1])
        if w < 1 or h < 1:
            raise DimensionError(f"source size must be positive, got {source_size}")
        sx = np.where(valid, sx, 0.0)
        sy = np.where(valid, sy, 0.0)
        if valid.any():
            vx, vy = sx[valid], sy[valid]
            if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))):
                raise DataError("valid grid pixels must have finite coordinates")
            if vx.min() < 0 or vx.max() > w - 1 or vy.min() < 0 or vy.max() > h - 1:
                raise DataError("valid grid pixels must stay inside the source raster")
        for plane in (sx, sy, valid):
            plane.flags.writeable = False
        self.sx = sx
        self.sy = sy
        self.valid = valid
        self.source_size = (w, h)

    @property
    def height(self):
        return self.sx.shape[0]

    @property
    def width(self):
        return self.sx.shape[1]

    @property
    def size(self):
        return (self.width, self.height)


def _lattice(size):
    w, h = size
    ys, xs = np.mgrid[0:h, 0:w]
    return xs.astype(float), ys.astype(float)


def identity_grid(size) -> GridMap:
    xs, ys = _lattice(size)
    return GridMap(xs, ys, np.ones(xs.shape, bool), size)


def _in_bounds(sx, sy, source_size):
    w, h = source_size
    return (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)


def grid_from_homography(h: Homography, target_size, source_size) -> GridMap:
    """Backward grid for warping by a source->target homography.

    Each target pixel looks up h^-1(p); pixels whose source coordinate
    leaves the source raster, hits the plane at infinity or lies behind
    the source camera are invalid.

    A rig's homography K_target R inv(K_source) has a positive determinant
    (positive focals, proper rotation).  Scaled to a positive determinant,
    the inverse is a positive multiple of K_source R^T inv(K_target), so
    its projective denominator at p is the source-camera depth of the
    target pixel's ray times a positive factor.  The h[2,2] normalization
    may negate the stored matrix, but that negates its determinant too.
    """
    if target_size[0] < 1 or target_size[1] < 1 or source_size[0] < 1 or source_size[1] < 1:
        raise DimensionError("grid sizes must be positive")
    h_inv = invert_homography(h)
    xs, ys = _lattice(target_size)
    sx, sy, finite = apply_homography_arrays(h_inv, xs, ys)
    m = h_inv.h
    depth = (m[2, 0] * xs + m[2, 1] * ys + m[2, 2]) * np.sign(np.linalg.det(m))
    valid = finite & (depth > 0.0) & _in_bounds(sx, sy, source_size)
    return GridMap(sx, sy, valid, source_size)


def grid_from_flow(flow: FlowField) -> GridMap:
    """Backward grid p -> p + flow[p]; source raster has the flow's size."""
    xs, ys = _lattice(flow.size)
    sx = xs + flow.dx
    sy = ys + flow.dy
    valid = _in_bounds(sx, sy, flow.size)
    return GridMap(sx, sy, valid, flow.size)


def _bilinear_support(sx, sy, source_size):
    """Corner indices and fractional weights for bilinear sampling, with
    the coordinates clamped to the source raster."""
    w, h = source_size
    fx = np.clip(sx, 0.0, w - 1.0)
    fy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    # in place, so the clamped coordinates need no array of their own
    fx -= x0
    fy -= y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    return x0, x1, y0, y1, fx, fy


def sample_bilinear(plane, sx, sy):
    """Bilinearly sample a 2D plane at (sx, sy).

    Coordinates are clamped to the plane (replicate border), and sx/sy
    broadcast against each other, so a row of xs and a column of ys
    sample a whole lattice.
    """
    h, w = plane.shape
    x0, x1, y0, y1, fx, fy = _bilinear_support(sx, sy, (w, h))
    top = (1.0 - fx) * plane[y0, x0] + fx * plane[y0, x1]
    bot = (1.0 - fx) * plane[y1, x0] + fx * plane[y1, x1]
    return (1.0 - fy) * top + fy * bot


def compose_grids(outer: GridMap, inner: GridMap) -> GridMap:
    """Chain two backward grids: result[p] = inner evaluated at outer[p].

    inner's coordinate planes are sampled bilinearly at outer's coordinates;
    a pixel stays valid only if outer[p] is valid and every inner support
    pixel that carries nonzero bilinear weight is valid (corners with zero
    weight cannot veto, so composing with an identity grid is neutral).
    """
    if outer.source_size != inner.size:
        raise DimensionError(
            f"outer source size {outer.source_size} != inner target size {inner.size}"
        )
    sx = sample_bilinear(inner.sx, outer.sx, outer.sy)
    sy = sample_bilinear(inner.sy, outer.sx, outer.sy)
    x0, x1, y0, y1, fx, fy = _bilinear_support(outer.sx, outer.sy, inner.size)
    zx = fx == 0.0  # fractional parts live in [0, 1): only the x1/y1
    zy = fy == 0.0  # corners can carry zero weight
    support_ok = (
        inner.valid[y0, x0]
        & (zx | inner.valid[y0, x1])
        & (zy | inner.valid[y1, x0])
        & (zx | zy | inner.valid[y1, x1])
    )
    valid = outer.valid & support_ok
    w, h = inner.source_size
    sx = np.clip(sx, 0.0, float(w - 1))
    sy = np.clip(sy, 0.0, float(h - 1))
    return GridMap(sx, sy, valid, inner.source_size)


def _warp_planes(planes, grid: GridMap, fill: float):
    sampled = np.empty((planes.shape[0], grid.height, grid.width))
    for c in range(planes.shape[0]):
        sampled[c] = sample_bilinear(planes[c], grid.sx, grid.sy)
    return np.where(grid.valid[None], sampled, fill)


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
        return Image(np.clip(out, 0.0, 1.0)), mask
    return ScoreMap(_warp_planes(src.data, grid, SCORE_FILL)), mask


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
