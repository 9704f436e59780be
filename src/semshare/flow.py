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
sweeps up to float rounding.

The data term operates on a 0..255 intensity scale (inputs are [0, 1]
rasters), so the default smoothness weight of 15 matches the classical
tuning for 8-bit imagery.  The joint minimum of both images is subtracted
up front: the data term only ever sees intensity differences, making the
estimate invariant to a global intensity offset.

All resampling here (the pyramid resize, the per-level warp and the flow
upsampling) goes through raster.sample_bilinear, the package's single
bilinear kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraRig, homography_from_rig
from .errors import ConfigError, DimensionError
from .raster import (
    FlowField,
    GridMap,
    Image,
    compose_grids,
    grid_from_flow,
    grid_from_homography,
    sample_bilinear,
    warp_raster,
)

GRAY_WEIGHTS = (0.299, 0.587, 0.114)
INTENSITY_SCALE = 255.0
_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@dataclass(frozen=True)
class FlowConfig:
    num_levels: int = 4
    iterations_per_level: int = 50
    smoothness_weight: float = 15.0
    min_level_size: int = 16

    def __post_init__(self):
        if self.num_levels < 1:
            raise ConfigError(f"num_levels must be >= 1, got {self.num_levels}")
        if self.iterations_per_level < 1:
            raise ConfigError(f"iterations_per_level must be >= 1, got {self.iterations_per_level}")
        if not self.smoothness_weight > 0.0:
            raise ConfigError(f"smoothness_weight must be positive, got {self.smoothness_weight}")
        if self.min_level_size < 2:
            raise ConfigError(f"min_level_size must be >= 2, got {self.min_level_size}")


@dataclass
class FlowDiagnostics:
    """Per-level sizes plus the objective value after every sweep at the
    coarsest level (index 0 is the objective before the first sweep)."""

    level_sizes: list
    coarsest_energies: list


def to_gray(img: Image) -> np.ndarray:
    """Luma conversion (single-channel images pass through)."""
    if img.channels == 1:
        return img.data[0].copy()
    r, g, b = img.data
    return GRAY_WEIGHTS[0] * r + GRAY_WEIGHTS[1] * g + GRAY_WEIGHTS[2] * b


def _smooth5(plane: np.ndarray) -> np.ndarray:
    """Separable 5-tap binomial smoothing with replicate borders."""
    padded = np.pad(plane, ((0, 0), (2, 2)), mode="edge")
    out = sum(_BINOMIAL5[k] * padded[:, k : k + plane.shape[1]] for k in range(5))
    padded = np.pad(out, ((2, 2), (0, 0)), mode="edge")
    return sum(_BINOMIAL5[k] * padded[k : k + plane.shape[0], :] for k in range(5))


def _resize_bilinear(plane: np.ndarray, new_hw: tuple[int, int]) -> np.ndarray:
    """Pixel-center-aligned bilinear resize (the align_corners=False map)."""
    h, w = plane.shape
    nh, nw = new_hw
    if (nh, nw) == (h, w):
        return plane.copy()
    ys = (np.arange(nh) + 0.5) * (h / nh) - 0.5
    xs = (np.arange(nw) + 0.5) * (w / nw) - 0.5
    return sample_bilinear(plane, xs[None, :], ys[:, None])


def _downsample(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return _resize_bilinear(_smooth5(plane), ((h + 1) // 2, (w + 1) // 2))


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


def _neighbor_sum(plane: np.ndarray) -> np.ndarray:
    out = np.zeros_like(plane)
    out[:, 1:] += plane[:, :-1]
    out[:, :-1] += plane[:, 1:]
    out[1:, :] += plane[:-1, :]
    out[:-1, :] += plane[1:, :]
    return out


def _neighbor_counts(shape) -> np.ndarray:
    counts = np.full(shape, 4.0)
    counts[0, :] -= 1.0
    counts[-1, :] -= 1.0
    counts[:, 0] -= 1.0
    counts[:, -1] -= 1.0
    return counts


def _objective(ix, iy, it, du, dv, alpha2) -> float:
    data = it + ix * du + iy * dv
    smooth = 0.0
    for p in (du, dv):
        smooth += np.sum((p[:, 1:] - p[:, :-1]) ** 2) + np.sum((p[1:, :] - p[:-1, :]) ** 2)
    return float(np.sum(data * data) + alpha2 * smooth)


def _solve_level(target, source, u, v, cfg: FlowConfig, record_energy=False):
    """One coarse-to-fine stage: warp by (u, v), then Jacobi sweeps on the
    increment."""
    h, w = target.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    warped = sample_bilinear(source, xs + u, ys + v)
    ix, iy = _central_diff(warped)
    it = warped - target
    alpha2 = cfg.smoothness_weight**2
    counts = _neighbor_counts((h, w))
    denom = alpha2 * counts + ix * ix + iy * iy
    du = np.zeros((h, w))
    dv = np.zeros((h, w))
    energies = [_objective(ix, iy, it, du, dv, alpha2)] if record_energy else None
    for _ in range(cfg.iterations_per_level):
        du_bar = _neighbor_sum(du) / counts
        dv_bar = _neighbor_sum(dv) / counts
        frac = (ix * du_bar + iy * dv_bar + it) / denom
        du = du_bar - ix * frac
        dv = dv_bar - iy * frac
        if record_energy:
            energies.append(_objective(ix, iy, it, du, dv, alpha2))
    return u + du, v + dv, energies


def estimate_flow_detailed(target: Image, source: Image, cfg: FlowConfig):
    """estimate_flow plus solver diagnostics (coarsest-level objective)."""
    if target.size != source.size:
        raise DimensionError(f"target size {target.size} != source size {source.size}")
    if min(target.width, target.height) < cfg.min_level_size:
        raise ConfigError(
            f"image {target.size} is smaller than min_level_size {cfg.min_level_size}"
        )
    work_t = to_gray(target) * INTENSITY_SCALE
    work_s = to_gray(source) * INTENSITY_SCALE
    offset = min(float(work_t.min()), float(work_s.min()))
    work_t = work_t - offset
    work_s = work_s - offset

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
            u = _resize_bilinear(u, (h, w)) * (w / prev_w)
            v = _resize_bilinear(v, (h, w)) * (h / prev_h)
        record = level == coarsest
        u, v, energies = _solve_level(t_plane, s_plane, u, v, cfg, record_energy=record)
        if record:
            coarsest_energies = energies
    diagnostics = FlowDiagnostics(
        level_sizes=[(p.shape[1], p.shape[0]) for p in pyr_t],
        coarsest_energies=coarsest_energies,
    )
    return FlowField(np.stack([u, v])), diagnostics


def estimate_flow(target: Image, source: Image, cfg: FlowConfig | None = None) -> FlowField:
    """Backward flow such that source sampled at p + flow(p) matches the
    target."""
    flow, _ = estimate_flow_detailed(target, source, cfg or FlowConfig())
    return flow


def two_stage_map_detailed(
    rig: CameraRig, wide_img: Image, narrow_img: Image, cfg: FlowConfig | None = None
):
    """Calibrated homography warp followed by estimated-flow refinement.

    Returns (composed grid, stage-one grid, stage-one warped wide image,
    residual flow).  The composed grid pulls wide-camera pixels straight
    into the narrow frame.
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
    residual_flow = estimate_flow(narrow_img, warped_wide, cfg)
    composed = compose_grids(grid_from_flow(residual_flow), grid_stage1)
    # the flow at a target pixel is only meaningful where the stage-one
    # warp put real content there; elsewhere it was estimated against fill
    # and must not manufacture correspondences
    valid = composed.valid & grid_stage1.valid
    composed = GridMap(composed.sx, composed.sy, valid, composed.source_size)
    return composed, grid_stage1, warped_wide, residual_flow


def two_stage_map(
    rig: CameraRig, wide_img: Image, narrow_img: Image, cfg: FlowConfig | None = None
) -> GridMap:
    composed, _, _, _ = two_stage_map_detailed(rig, wide_img, narrow_img, cfg)
    return composed


# ---------------------------------------------------------------------------
# Flow visualization: the standard optical-flow color wheel.


_COLOR_WHEEL = None


def _color_wheel() -> np.ndarray:
    global _COLOR_WHEEL
    if _COLOR_WHEEL is None:
        ry, yg, gc, cb, bm, mr = 15, 6, 4, 11, 13, 6
        ncols = ry + yg + gc + cb + bm + mr
        wheel = np.zeros((ncols, 3))
        col = 0
        wheel[col : col + ry, 0] = 1.0
        wheel[col : col + ry, 1] = np.arange(ry) / ry
        col += ry
        wheel[col : col + yg, 0] = 1.0 - np.arange(yg) / yg
        wheel[col : col + yg, 1] = 1.0
        col += yg
        wheel[col : col + gc, 1] = 1.0
        wheel[col : col + gc, 2] = np.arange(gc) / gc
        col += gc
        wheel[col : col + cb, 1] = 1.0 - np.arange(cb) / cb
        wheel[col : col + cb, 2] = 1.0
        col += cb
        wheel[col : col + bm, 2] = 1.0
        wheel[col : col + bm, 0] = np.arange(bm) / bm
        col += bm
        wheel[col : col + mr, 2] = 1.0 - np.arange(mr) / mr
        wheel[col : col + mr, 0] = 1.0
        _COLOR_WHEEL = wheel
    return _COLOR_WHEEL


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
