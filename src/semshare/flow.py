"""Stage-II image-based warping: classical coarse-to-fine optical flow.

The estimator returns backward flow: warping the source image through
grid_from_flow(flow) approximates the target.  Per pyramid level (coarse
to fine) the current flow is upsampled and rescaled, the source level is
warped by it once, and the linearized brightness-constancy data term

    sum (I_t + I_x du + I_y dv)^2  +  alpha^2 (|grad du|^2 + |grad dv|^2)

is minimized for the increment (du, dv) by simultaneous per-pixel (block
Jacobi) solves.  The neighbor averages use the 4-neighborhood with exact
per-pixel neighbor counts, which makes each sweep an exact block-Jacobi
step for that objective; the objective is therefore non-increasing across
sweeps up to the rounding of the float32 iterates.

The solve runs in float32 (_SOLVE_DTYPE): the gray planes are cast once,
after the joint minimum is subtracted in float64, and the pyramid, the
per-level warp, the sweeps and the flow upsampling take their dtype from
those planes.  The objective is evaluated in float64 on the float32
iterates, so the recorded energies are float64, and the returned
FlowField is float64 (with float32-representable values).

The increment (du, dv) has a zero border, so every pixel's neighbor sum
is the same four adds (left, right, up, down); an edge pixel adds +0.0
for a missing neighbor.  x + 0.0 is x for every x but -0.0, and the
increment holds no -0.0 (it starts at +0.0; only an underflow to zero
could make one), so each sum has the bits of a sum over the existing
neighbors.  A sweep walks the row bands of raster._row_bands: neighbor
sums, the division by the neighbor counts, the per-pixel solve and the
update for one band stay in cache, and each full-size plane is streamed
once per sweep.  The sweep writes the next increment into a second
bordered buffer, and the two swap after every sweep; buffers and band
scratch are allocated once per level.  Each pixel sees the same
operations in the same order as a whole-plane sweep, so the result does
not depend on the band size.

The data term operates on a 0..255 intensity scale (inputs are [0, 1]
rasters), so the default smoothness weight of 15 matches the classical
tuning for 8-bit imagery.  The joint minimum of both images is subtracted
up front: the data term only ever sees intensity differences, making the
estimate invariant to a global intensity offset.

All resampling here (the pyramid resize, the per-level warp and the flow
upsampling) goes through raster's single bilinear kernel; u and v are
upsampled from one support.  The pyramid smooths each level with
raster's binomial smoothing (5 taps, _BINOMIAL5) before halving it.

two_stage_map solves the residual flow only on the box of the stage-one
footprint, padded by one coarsest-level pixel; the flow is zero outside
it.  On the synthetic rigs the forward box is the whole narrow raster.
Backward (the swapped rig) the stage-one image is fill outside the narrow
camera's view, about three quarters of the wide raster, and the box skips
most of it: about a third of the wide raster is solved, and the flow grid
is composed with the stage-one grid on the footprint's box only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .camera import CameraRig, homography_from_rig
from .errors import ConfigError, DimensionError
from .raster import (
    FlowField,
    GridMap,
    Image,
    _lattice,
    _row_bands,
    _sample_planes,
    _smooth,
    _valid_box,
    compose_grids,
    grid_from_flow,
    grid_from_homography,
    sample_bilinear,
    warp_raster,
)

GRAY_WEIGHTS = (0.299, 0.587, 0.114)
INTENSITY_SCALE = 255.0
# Python floats, so the smoothing keeps the planes' dtype
_BINOMIAL5 = (1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0)
# dtype of the whole solve: the pyramid, the per-level warp and the sweeps
_SOLVE_DTYPE = np.float32


@dataclass(frozen=True)
class FlowConfig:
    num_levels: int = 4
    iterations_per_level: int = 50
    smoothness_weight: float = 15.0
    # the pyramid stops before a level would drop below this many pixels
    min_level_size: ClassVar[int] = 16

    def __post_init__(self):
        if self.num_levels < 1:
            raise ConfigError(f"num_levels must be >= 1, got {self.num_levels}")
        if self.iterations_per_level < 1:
            raise ConfigError(f"iterations_per_level must be >= 1, got {self.iterations_per_level}")
        if not self.smoothness_weight > 0.0:
            raise ConfigError(f"smoothness_weight must be positive, got {self.smoothness_weight}")


@dataclass
class FlowDiagnostics:
    """The objective value after every sweep at the coarsest level (index 0
    is the objective before the first sweep)."""

    coarsest_energies: list


def to_gray(img: Image) -> np.ndarray:
    """Luma conversion (single-channel images pass through)."""
    if img.channels == 1:
        return img.data[0].copy()
    r, g, b = img.data
    return GRAY_WEIGHTS[0] * r + GRAY_WEIGHTS[1] * g + GRAY_WEIGHTS[2] * b


def _resize_bilinear(planes: np.ndarray, new_hw: tuple[int, int]) -> np.ndarray:
    """Pixel-center-aligned bilinear resize (the align_corners=False map)
    of a (C, H, W) stack of planes."""
    h, w = planes.shape[1:]
    nh, nw = new_hw
    ys = ((np.arange(nh) + 0.5) * (h / nh) - 0.5).astype(planes.dtype, copy=False)
    xs = ((np.arange(nw) + 0.5) * (w / nw) - 0.5).astype(planes.dtype, copy=False)
    return _sample_planes(planes, xs[None, :], ys[:, None])


def _downsample(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return _resize_bilinear(_smooth(plane, _BINOMIAL5)[None], ((h + 1) // 2, (w + 1) // 2))[0]


def _plane_pyramid(plane: np.ndarray, num_levels: int, min_size: int) -> list[np.ndarray]:
    """Finest-to-coarsest pyramid of raw planes, halving each level; level 0
    is `plane` itself."""
    levels = [plane]
    while len(levels) < num_levels:
        h, w = levels[-1].shape
        nh, nw = (h + 1) // 2, (w + 1) // 2
        if nh < min_size or nw < min_size:
            break
        levels.append(_downsample(levels[-1]))
    return levels


def _central_diff(plane: np.ndarray):
    padded_x = np.pad(plane, ((0, 0), (1, 1)), mode="edge")
    padded_y = np.pad(plane, ((1, 1), (0, 0)), mode="edge")
    gx = (padded_x[:, 2:] - padded_x[:, :-2]) * 0.5
    gy = (padded_y[2:, :] - padded_y[:-2, :]) * 0.5
    return gx, gy


def _neighbor_counts(shape, dtype) -> np.ndarray:
    counts = np.full(shape, 4.0, dtype)
    counts[0, :] -= 1.0
    counts[-1, :] -= 1.0
    counts[:, 0] -= 1.0
    counts[:, -1] -= 1.0
    return counts


def _objective(ix, iy, it, du, dv, alpha2) -> float:
    """The level's objective, evaluated in float64 whatever the solve's
    dtype."""
    ix, iy, it, du, dv = (a.astype(np.float64, copy=False) for a in (ix, iy, it, du, dv))
    data = it + ix * du + iy * dv
    smooth = 0.0
    for p in (du, dv):
        smooth += np.sum((p[:, 1:] - p[:, :-1]) ** 2) + np.sum((p[1:, :] - p[:-1, :]) ** 2)
    return float(np.sum(data * data) + alpha2 * smooth)


def _jacobi_sweep(grad, it, counts, denom, d, d_next, scratch):
    """One block-Jacobi sweep from the increment d = (du, dv) into d_next,
    both (2, H + 2, W + 2) with a zero border, band by band over the row
    bands of raster._row_bands so a band's temporaries stay in cache."""
    h, w = it.shape
    bars, prods, frac = scratch[:2], scratch[2:4], scratch[4]
    for band in _row_bands(slice(0, h), w):
        r0, r1 = band.start + 1, band.stop + 1  # the band's rows in d
        n = r1 - r0
        bar, prod, f, g = bars[:, :n], prods[:, :n], frac[:n], grad[:, band]
        # left, right, up, down: the order of a whole-plane sum
        np.add(d[:, r0:r1, :-2], d[:, r0:r1, 2:], out=bar)
        bar += d[:, r0 - 1 : r1 - 1, 1:-1]
        bar += d[:, r0 + 1 : r1 + 1, 1:-1]
        np.divide(bar, counts[band], out=bar)  # (du_bar, dv_bar)
        np.multiply(g, bar, out=prod)
        np.add(prod[0], prod[1], out=f)
        f += it[band]
        f /= denom[band]
        np.multiply(g, f, out=prod)
        np.subtract(bar, prod, out=d_next[:, r0:r1, 1:-1])


def _solve_level(target, source, u, v, cfg: FlowConfig, record_energy=False):
    """One coarse-to-fine stage: warp by (u, v), then Jacobi sweeps on the
    increment."""
    h, w = target.shape
    dtype = target.dtype
    xs, ys = _lattice((w, h), dtype)
    warped = sample_bilinear(source, xs + u, ys + v)
    grad = np.stack(_central_diff(warped))
    ix, iy = grad
    it = warped - target
    alpha2 = cfg.smoothness_weight**2
    counts = _neighbor_counts((h, w), dtype)
    denom = alpha2 * counts + ix * ix + iy * iy
    d = np.zeros((2, h + 2, w + 2), dtype)
    d_next = np.zeros((2, h + 2, w + 2), dtype)
    inner = np.s_[:, 1:-1, 1:-1]
    # the first band is the longest
    scratch = np.empty((5, _row_bands(slice(0, h), w)[0].stop, w), dtype)
    energies = [_objective(ix, iy, it, *d[inner], alpha2)] if record_energy else None
    for _ in range(cfg.iterations_per_level):
        _jacobi_sweep(grad, it, counts, denom, d, d_next, scratch)
        d, d_next = d_next, d
        if record_energy:
            energies.append(_objective(ix, iy, it, *d[inner], alpha2))
    du, dv = d[inner]
    return u + du, v + dv, energies


def _estimate_flow(target: Image, source: Image, cfg: FlowConfig, record: bool):
    """(flow, coarsest-level objective after every sweep), the objective
    evaluated only when `record` is set (None otherwise)."""
    if target.size != source.size:
        raise DimensionError(f"target size {target.size} != source size {source.size}")
    if min(target.width, target.height) < cfg.min_level_size:
        raise ConfigError(
            f"image {target.size} is smaller than min_level_size {cfg.min_level_size}"
        )
    work_t = to_gray(target) * INTENSITY_SCALE
    work_s = to_gray(source) * INTENSITY_SCALE
    offset = min(float(work_t.min()), float(work_s.min()))
    # the offset is taken in float64; the solve runs in _SOLVE_DTYPE
    work_t = (work_t - offset).astype(_SOLVE_DTYPE, copy=False)
    work_s = (work_s - offset).astype(_SOLVE_DTYPE, copy=False)

    pyr_t = _plane_pyramid(work_t, cfg.num_levels, cfg.min_level_size)
    pyr_s = _plane_pyramid(work_s, cfg.num_levels, cfg.min_level_size)

    coarsest = len(pyr_t) - 1
    u = np.zeros_like(pyr_t[coarsest])
    v = np.zeros_like(pyr_t[coarsest])
    coarsest_energies = None
    for level in range(coarsest, -1, -1):
        t_plane, s_plane = pyr_t[level], pyr_s[level]
        if level != coarsest:
            prev_h, prev_w = u.shape
            h, w = t_plane.shape
            u, v = _resize_bilinear(np.stack([u, v]), (h, w))
            u *= w / prev_w
            v *= h / prev_h
        at_coarsest = record and level == coarsest
        u, v, energies = _solve_level(t_plane, s_plane, u, v, cfg, record_energy=at_coarsest)
        if at_coarsest:
            coarsest_energies = energies
    return FlowField(np.stack([u, v])), coarsest_energies


def estimate_flow_detailed(target: Image, source: Image, cfg: FlowConfig):
    """estimate_flow plus solver diagnostics (coarsest-level objective)."""
    flow, coarsest_energies = _estimate_flow(target, source, cfg, record=True)
    return flow, FlowDiagnostics(coarsest_energies)


def estimate_flow(target: Image, source: Image, cfg: FlowConfig | None = None) -> FlowField:
    """Backward flow such that source sampled at p + flow(p) matches the
    target.  Evaluates no diagnostics."""
    flow, _ = _estimate_flow(target, source, cfg or FlowConfig(), record=False)
    return flow


def two_stage_map_detailed(
    rig: CameraRig, wide_img: Image, narrow_img: Image, cfg: FlowConfig | None = None
):
    """Calibrated homography warp followed by estimated-flow refinement.

    Returns (composed grid, stage-one grid, stage-one warped wide image,
    residual flow).  The composed grid pulls wide-camera pixels straight
    into the narrow frame.

    The flow is solved only on the box of the stage-one footprint (the
    valid pixels of the stage-one grid), padded by one pixel of the
    coarsest pyramid level, s = 2**(num_levels - 1), with its edges rounded
    outward to multiples of s so the crop's pyramid samples the full
    raster's pixel centres; it is clamped to the raster and grown to at
    least min_level_size.  The residual flow is zero outside the box.  An
    empty footprint is solved on the whole raster.

    The flow grid is restricted to the stage-one footprint before it is
    composed with the stage-one grid (the flow at a pixel is only
    meaningful where stage one put real content there; elsewhere it was
    estimated against fill), so the composition evaluates only the
    footprint's box.
    """
    cfg = cfg or FlowConfig()
    if wide_img.size != rig.image_size_wide:
        raise DimensionError(
            f"wide image size {wide_img.size} != rig wide size {rig.image_size_wide}"
        )
    if narrow_img.size != rig.image_size_narrow:
        raise DimensionError(
            f"narrow image size {narrow_img.size} != rig narrow size {rig.image_size_narrow}"
        )
    homography = homography_from_rig(rig)
    grid_stage1 = grid_from_homography(homography, rig.image_size_narrow, rig.image_size_wide)
    warped_wide, _ = warp_raster(wide_img, grid_stage1)
    rows, cols = _valid_box(
        grid_stage1.valid, 2 ** (cfg.num_levels - 1), cfg.min_level_size
    ) or np.s_[:, :]
    box_flow = estimate_flow(
        Image(narrow_img.data[:, rows, cols]), Image(warped_wide.data[:, rows, cols]), cfg
    )
    flow = np.zeros((2, narrow_img.height, narrow_img.width))
    flow[:, rows, cols] = box_flow.data
    residual_flow = FlowField(flow)
    flow_grid = grid_from_flow(residual_flow)
    flow_grid = GridMap(
        flow_grid.sx, flow_grid.sy, flow_grid.valid & grid_stage1.valid, flow_grid.source_size
    )
    composed = compose_grids(flow_grid, grid_stage1)
    return composed, grid_stage1, warped_wide, residual_flow


def two_stage_map(
    rig: CameraRig, wide_img: Image, narrow_img: Image, cfg: FlowConfig | None = None
) -> GridMap:
    composed, _, _, _ = two_stage_map_detailed(rig, wide_img, narrow_img, cfg)
    return composed


# ---------------------------------------------------------------------------
# Flow visualization: the standard optical-flow color wheel.


# (length, channel held at 1, channel ramped) per segment, red -> yellow ->
# green -> cyan -> blue -> magenta -> red; ramps alternately rise and fall
_WHEEL_SEGMENTS = ((15, 0, 1), (6, 1, 0), (4, 1, 2), (11, 2, 1), (13, 2, 0), (6, 0, 2))


def _color_wheel() -> np.ndarray:
    segments = []
    for i, (n, full, ramp) in enumerate(_WHEEL_SEGMENTS):
        seg = np.zeros((n, 3))
        seg[:, full] = 1.0
        seg[:, ramp] = np.arange(n) / n if i % 2 == 0 else 1.0 - np.arange(n) / n
        segments.append(seg)
    return np.concatenate(segments)


def flow_to_color(flow: FlowField) -> Image:
    """Color-code a flow field with the standard wheel (hue = direction,
    saturation = magnitude relative to the field's largest)."""
    u, v = flow.dx, flow.dy
    scale = max(float(np.sqrt(u * u + v * v).max()), 1e-9)
    un, vn = u / scale, v / scale
    mag_n = np.minimum(np.sqrt(un * un + vn * vn), 1.0)
    wheel = _color_wheel()
    ncols = wheel.shape[0]
    angle = np.arctan2(-vn, -un) / np.pi  # in (-1, 1]
    fk = (angle + 1.0) / 2.0 * (ncols - 1)
    k0 = np.floor(fk).astype(np.int64) % ncols
    k1 = (k0 + 1) % ncols
    f = fk - np.floor(fk)
    rgb = np.zeros((3, flow.height, flow.width))
    for c in range(3):
        base = (1.0 - f) * wheel[k0, c] + f * wheel[k1, c]
        rgb[c] = 1.0 - mag_n * (1.0 - base)
    return Image(np.clip(rgb, 0.0, 1.0))
