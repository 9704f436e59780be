"""Ground-truth generators: random-perspective flow samples, a dual-camera
scene simulator with exact correspondences, and score degradation.

The scene world frame coincides with the wide camera frame: origin at the
wide camera's center, x right, y down, z forward (meters).  The narrow
camera sits at `baseline` meters from the wide one and is rotated by the
rig's wide-to-narrow rotation.  The rig itself stays rotation-only: the
baseline is deliberately invisible to the calibrated warp stage, which is
what creates the depth-dependent residual the flow stage has to absorb.

Scene content is desk-scale: a checkerboard-textured ground plane (class
"road"), fronto-parallel textured billboards standing on the ground
(classes person/car/barrier/cycle) and a textured background at infinity
(class "background").  Everything is a pure function of (inputs, seed).

The renderer makes one pass per view over row bands of about
raster._BAND_PIXELS pixels.  Each band casts its rays, depth-tests and
shades them, and projects its hit points into the other camera for that
view's correspondence grid, so no whole-raster ray, point or offset
array is built.  A box is tested only inside its footprint: the
rectangle of its projected corners, padded by _FOOTPRINT_PAD pixels (a
whole band when a corner lies behind the camera).  The depth test runs
on the band's pixels inside it, the visibility test on the pixels whose
projection into the other camera falls inside the box's footprint there;
at 384^2 that is about 3% of the rays a whole-raster test takes.  Each
surface is shaded only on the pixels where it is placed, and the
background only where nothing was hit, so a pixel costs about one
texture sample instead of one per surface.  value_noise, the depth test
and the projections are elementwise, so every pixel gets the bits that
a whole-raster render would give it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import (
    CameraRig, Homography, Intrinsics, Rotation3, TextFields, apply_homography_arrays, read_ascii,
    rig_from_fields, rig_to_text,
)
from .errors import ConfigError, DataError
from .raster import (
    FlowField, GridMap, Image, LabelMap, ScoreMap, _gather_bilinear, _in_bounds, _lattice, _row_bands,
    _sample_planes, _smooth,
)

CLASS_NAMES = ("background", "road", "person", "car", "barrier", "cycle")
NUM_CLASSES = len(CLASS_NAMES)

_EPS = 1e-9
# pixels by which a box's projected footprint is widened on every side
_FOOTPRINT_PAD = 2.0

_TEXTURE_OCTAVES = ((32.0, 0.5), (16.0, 0.3), (8.0, 0.2))  # (lattice scale px, amplitude)

# Sampling ranges of the random-perspective flow samples.
_FOCAL_RANGE = (0.95, 1.05)  # zoom factor
_MAX_TRANSLATION = 10.0  # pixels per axis
_MAX_ROTATION_DEG = 5.0


# ---------------------------------------------------------------------------
# Procedural texture


def value_noise(xs, ys, seed: int, scale: float) -> np.ndarray:
    """Smoothstep-interpolated lattice noise in [0, 1] at arbitrary float
    coordinates (lattice wraps, so any coordinate range is fine).

    Every output element depends only on its own coordinate pair, so the
    renderer can shade a surface on just the pixels where it is placed.
    xs and ys broadcast: a row of xs and a column of ys give a whole
    lattice, with the per-axis work done once per row and column.  The
    support's four lattice corners are the flat indices y * 64 + x, and
    raster's one bilinear blend reads and blends them."""
    rng = np.random.default_rng(seed)
    lattice = rng.random((64, 64))
    # fx and fy first hold the lattice coordinates, then their fractions
    fx = np.asarray(xs, dtype=float) / scale
    fy = np.asarray(ys, dtype=float) / scale
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    fx -= x0
    fy -= y0
    fx = fx * fx * (3.0 - 2.0 * fx)
    fy = fy * fy * (3.0 - 2.0 * fy)
    # & 63 is % 64 on int64, negative coordinates included
    x0 &= 63
    y0 &= 63
    x1 = (x0 + 1) & 63
    y1 = (y0 + 1) & 63
    y1 *= 64
    y0 *= 64
    return _gather_bilinear(lattice, ((y0 + x0, y0 + x1, y1 + x0, y1 + x1), fx, fy))


def texture_image(size, seed: int) -> Image:
    """Multi-octave value-noise image, normalized to span [0, 1].

    Each octave samples a row of xs against a column of ys, in row bands
    of about _BAND_PIXELS pixels whose temporaries stay in cache."""
    w, h = size
    xs = np.arange(w, dtype=float)
    ys = np.arange(h, dtype=float)[:, None]
    out = np.zeros((h, w))
    for band in _row_bands(slice(0, h), w):
        for k, (scale, amp) in enumerate(_TEXTURE_OCTAVES):
            out[band] += amp * value_noise(xs, ys[band], seed * 7919 + k, scale)
    lo, hi = out.min(), out.max()
    if hi > lo:
        out -= lo
        out /= hi - lo
    return Image(out[None])


# ---------------------------------------------------------------------------
# Random-perspective flow samples


@dataclass(frozen=True)
class RandomTransformSpec:
    """Seed of one synthetic warp; its parameters are drawn uniformly from
    the module's focal, translation and rotation ranges."""

    seed: int = 0


def _backward_matrix(size, focal_factor, tx, ty, theta_deg) -> np.ndarray:
    """Backward pixel map: zoom about the image center, rotate about the
    center, then translate.  source(p) = B @ p."""
    w, h = size
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    th = math.radians(theta_deg)
    c, s = math.cos(th), math.sin(th)

    def trans(x, y):
        return np.array([[1.0, 0.0, x], [0.0, 1.0, y], [0.0, 0.0, 1.0]])

    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    zoom = np.diag([focal_factor, focal_factor, 1.0])
    return trans(tx, ty) @ trans(cx, cy) @ rot @ zoom @ trans(-cx, -cy)


def flow_sample_from_params(img: Image, focal_factor, tx, ty, theta_deg):
    """Deterministic core of gen_flow_sample for explicit parameters.

    Returns (warped image, ground-truth backward flow, validity mask).
    The warped image is sampled with replicate-clamped coordinates so the
    out-of-view band carries extended edge texture rather than a fake hard
    edge; the mask marks the in-bounds pixels where the flow is meaningful.
    """
    b = _backward_matrix(img.size, focal_factor, tx, ty, theta_deg)
    xs, ys = _lattice(img.size)
    sx, sy, _ = apply_homography_arrays(Homography(b), xs, ys)
    flow = FlowField(np.stack([sx - xs, sy - ys]))
    mask = _in_bounds(sx, sy, img.size)
    warped = _sample_planes(img.data, sx, sy)
    return Image(np.clip(warped, 0.0, 1.0, out=warped)), flow, mask


def gen_flow_sample(img: Image, spec: RandomTransformSpec):
    """Sample (focal factor, translation, rotation) with the spec's seed
    and warp the image; the flow generated along the way is the ground
    truth."""
    rng = np.random.default_rng(spec.seed)
    focal = rng.uniform(_FOCAL_RANGE[0], _FOCAL_RANGE[1])
    tx = rng.uniform(-_MAX_TRANSLATION, _MAX_TRANSLATION)
    ty = rng.uniform(-_MAX_TRANSLATION, _MAX_TRANSLATION)
    theta = rng.uniform(-_MAX_ROTATION_DEG, _MAX_ROTATION_DEG)
    return flow_sample_from_params(img, focal, tx, ty, theta)


# ---------------------------------------------------------------------------
# Dual-camera scenes


@dataclass(frozen=True)
class Box:
    """Fronto-parallel billboard standing on the ground plane."""

    depth: float  # meters along +z
    x_center: float  # meters
    width: float
    height: float
    class_id: int
    texture_seed: int

    def __post_init__(self):
        if self.depth <= 0.0:
            raise ConfigError(f"box depth must be positive, got {self.depth}")
        if self.width <= 0.0 or self.height <= 0.0:
            raise ConfigError("box extent must be positive")
        if not 2 <= self.class_id < NUM_CLASSES:
            raise ConfigError(f"box class must be an obstacle class, got {self.class_id}")
        if self.texture_seed < 0:
            raise ConfigError(f"box texture seed must be >= 0, got {self.texture_seed}")


@dataclass(frozen=True)
class SynthScene:
    rig: CameraRig
    baseline: tuple[float, float, float]  # narrow camera center, meters
    ground_height: float  # camera height above the road, meters
    ground_cell: float  # checker cell size, meters
    boxes: tuple[Box, ...]
    texture_seed: int
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        if self.num_classes != NUM_CLASSES:
            raise ConfigError(f"scenes use the fixed {NUM_CLASSES}-class label set")
        if self.ground_height <= 0.0 or self.ground_cell <= 0.0:
            raise ConfigError("ground parameters must be positive")
        if self.texture_seed < 0:
            raise ConfigError(f"scene texture seed must be >= 0, got {self.texture_seed}")
        for box in self.boxes:
            self._check_box_visible(box)

    def _check_box_visible(self, box: Box) -> None:
        k = self.rig.cam_wide
        w, h = self.rig.image_size_wide
        y_top = self.ground_height - box.height
        for bx in (box.x_center - box.width / 2.0, box.x_center + box.width / 2.0):
            for by in (y_top, self.ground_height):
                u, v = k.project(bx, by, box.depth)
                if not (0.0 <= u <= w - 1 and 0.0 <= v <= h - 1):
                    raise ConfigError(
                        f"box at depth {box.depth} leaves the wide view "
                        f"(corner projects to ({u:.1f}, {v:.1f}))"
                    )


@dataclass(frozen=True)
class ScenePair:
    """Rendered dual view plus the exact analytic correspondences.

    grid_to_narrow pulls wide pixels into the narrow frame (its validity
    is the narrow-frame overlap mask); grid_to_wide is the reverse map.
    Grid validity excludes pixels whose true surface point is occluded in
    the other view, since no correspondence exists there.
    """

    wide_image: Image
    wide_labels: LabelMap
    narrow_image: Image
    narrow_labels: LabelMap
    grid_to_narrow: GridMap
    grid_to_wide: GridMap


def _view_rays(cam: Intrinsics, width, rows: slice, rotation: np.ndarray):
    """World-frame ray directions of the pixels in `rows` of a camera
    `width` pixels wide."""
    xs = np.arange(width, dtype=float)
    ys = np.arange(rows.start, rows.stop, dtype=float)[:, None]
    dir_cam = np.empty((3, ys.size, width))
    dir_cam[0] = (xs - cam.cx - cam.skew * (ys - cam.cy) / cam.fy) / cam.fx
    dir_cam[1] = (ys - cam.cy) / cam.fy
    dir_cam[2] = 1.0
    return np.einsum("ij,jhw->ihw", rotation.T, dir_cam)


def _box_hit(scene: SynthScene, box: Box, origin, rel):
    """Where the rays origin + t * rel meet the box's plane z = depth:
    returns (t, x, y, on_box), on_box flagging hits at t > 0 inside the
    box's rectangle."""
    ox, oy, oz = origin
    rx, ry, rz = rel
    g = scene.ground_height
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (box.depth - oz) / rz
        x = ox + t * rx
        y = oy + t * ry
        on_box = (
            (t > 0.0)
            & (np.abs(x - box.x_center) <= box.width / 2.0)
            & (y <= g)
            & (y >= g - box.height)
        )
    return t, x, y, on_box


def _footprint(scene: SynthScene, box: Box, view):
    """(u_lo, u_hi, v_lo, v_hi): the bounding rectangle of a box's four
    corners projected into the camera of `view`, padded by _FOOTPRINT_PAD
    pixels for round-off, or None when a corner lies behind the camera.

    The box is a flat convex quad, so with every corner in front of the
    camera every point of it projects inside its corners' rectangle: a
    ray meets the box only at a pixel inside it."""
    cam, _, rotation, center = view
    half = box.width / 2.0
    top = scene.ground_height - box.height
    corners = np.array([
        [box.x_center - half, box.x_center + half, box.x_center - half, box.x_center + half],
        [top, top, scene.ground_height, scene.ground_height],
        [box.depth] * 4,
    ])
    x, y, z = rotation @ (corners - np.reshape(center, (3, 1)))
    if z.min() <= _EPS:
        return None
    u, v = cam.project(x, y, z)
    pad = _FOOTPRINT_PAD
    return u.min() - pad, u.max() + pad, v.min() - pad, v.max() + pad


def _window(footprint, width, rows: slice):
    """(rows, cols) slices, relative to the band `rows` of a raster `width`
    pixels wide, of the band's pixels inside a footprint (the whole band
    for None), or None when it holds none of them."""
    if footprint is None:
        return slice(None), slice(None)
    u_lo, u_hi, v_lo, v_hi = footprint
    c0 = max(0, math.ceil(u_lo))
    c1 = min(width, math.floor(u_hi) + 1)
    r0 = max(rows.start, math.ceil(v_lo))
    r1 = min(rows.stop, math.floor(v_hi) + 1)
    if c0 >= c1 or r0 >= r1:
        return None
    return slice(r0 - rows.start, r1 - rows.start), slice(c0, c1)


def _ground_hit(scene: SynthScene, origin, rel):
    """Where the rays origin + t * rel meet the ground plane y =
    ground_height: returns (t, x, z, hit), hit flagging downward rays that
    meet it at t > 0 in front of the wide camera (z > 0).  Rays that cannot
    reach it (a level row exists when the height is odd) divide by 1
    instead of 0, so t, x and z stay finite placeholders there."""
    ox, oy, oz = origin
    rx, ry, rz = rel
    down = ry > _EPS
    t = (scene.ground_height - oy) / np.where(down, ry, 1.0)
    z = oz + t * rz
    return t, ox + t * rx, z, down & (t > 0.0) & (z > 0.0)


def _shade(scene: SynthScene, center, dirs, t_hit, labels, intensity, windows):
    """Depth-test and shade the pixels of one band of rays `dirs`, writing
    into the band's views t_hit, labels and intensity; each box is tested
    only in its window of the band (see _window)."""
    dx, dy, dz = dirs
    # the ground comes first, so it is placed wherever it is hit
    t_ground, gx, gz, place = _ground_hit(scene, center, dirs)
    gx, gz = gx[place], gz[place]
    checker = ((np.floor(gx / scene.ground_cell) + np.floor(gz / scene.ground_cell)) % 2.0) * 2.0 - 1.0
    fade = 1.0 / (1.0 + np.maximum(gz, 0.0) / 25.0)
    g_noise = value_noise(gx * 4.0, gz * 4.0, scene.texture_seed + 29, 3.0)
    t_hit[place] = t_ground[place]
    labels[place] = 1
    intensity[place] = 0.5 + 0.17 * checker * fade + 0.12 * (g_noise - 0.5)

    for box, window in zip(scene.boxes, windows):
        if window is None:
            continue
        t_win, labels_win, intensity_win = t_hit[window], labels[window], intensity[window]
        box_dirs = dirs[(slice(None),) + window]
        t_box, bx, by, on_box = _box_hit(scene, box, center, box_dirs)
        place = (box_dirs[2] > _EPS) & on_box & (t_box < t_win)
        rng = np.random.default_rng(box.texture_seed)
        base = 0.35 + 0.4 * rng.random()
        b_noise = value_noise(bx[place] * 24.0, by[place] * 24.0, box.texture_seed + 41, 5.0)
        t_win[place] = t_box[place]
        labels_win[place] = box.class_id
        intensity_win[place] = base + 0.24 * (b_noise - 0.5)

    # background at infinity: texture over ray direction
    sky = ~np.isfinite(t_hit)
    rx, ry, rz = dx[sky], dy[sky], dz[sky]
    norm = np.sqrt(rx * rx + ry * ry + rz * rz)
    bg_noise = value_noise(rx / norm * 64.0, ry / norm * 64.0, scene.texture_seed + 17, 9.0)
    intensity[sky] = 0.55 + 0.3 * (bg_noise - 0.5)


def _hidden_from(scene: SynthScene, center, rel, finite, u, v, in_bounds, footprints):
    """Pixels whose line of sight to the camera at `center` crosses a box:
    the open segment center + s * rel, 0 < s < 1, for hit points (rel =
    point - center), and the ray s > 0 for background directions.

    (u, v) is each pixel's projection into that camera, and in_bounds
    flags those inside its raster, the only pixels that can lose
    validity.  A point that a box hides projects where the box does, so
    each box is tested only on the in-bounds pixels inside its footprint
    there (all of them for None).  A hit point lies on or above the
    ground, and so does the camera, so the ground can hide only a
    background direction."""
    hidden = np.zeros(finite.shape, dtype=bool)
    for box, footprint in zip(scene.boxes, footprints):
        near = in_bounds
        if footprint is not None:
            u_lo, u_hi, v_lo, v_hi = footprint
            near = near & (u >= u_lo) & (u <= u_hi) & (v >= v_lo) & (v <= v_hi)
        # a hit point on a box's own plane sits at s = 1 up to round-off
        s_max = np.where(finite[near], 1.0 - 1e-9, np.inf)
        s, _, _, on_box = _box_hit(scene, box, center, rel[:, near])
        hidden[near] |= on_box & (s < s_max)
    return hidden | (~finite & _ground_hit(scene, center, rel)[3])


def _render_pass(scene: SynthScene, view, other):
    """Ray-cast the camera of `view` and build its exact correspondence
    grid into the camera of `other`, in one pass over row bands of about
    _BAND_PIXELS pixels; a view is (camera, size, world-to-camera rotation,
    centre).  Returns (image, labels, grid).

    The depth test places the ground, then the boxes in scene order, each
    where it is hit nearer (strictly) than everything placed before.  A
    surface is shaded only on the pixels where it is placed, and a later,
    nearer box overwrites them; the background is shaded last, on the
    pixels nothing hit.  Each band then projects its hit points (for the
    background, its ray directions) into the other camera and keeps those
    in front of it, inside its raster and not hidden from it by the scene.
    The arrays of a surface's placed pixels change size with every
    surface, and kept this small the allocator reuses their memory (on
    whole rasters they made the peak RSS of repeated renders creep up)."""
    cam, (w, h), rotation, center = view
    other_cam, (other_w, other_h), other_rotation, other_center = other
    here = [_footprint(scene, box, view) for box in scene.boxes]
    there = [_footprint(scene, box, other) for box in scene.boxes]
    t_hit = np.full((h, w), np.inf)
    labels = np.zeros((h, w), dtype=np.int32)
    intensity = np.empty((h, w))
    sx = np.empty((h, w))
    sy = np.empty((h, w))
    valid = np.empty((h, w), dtype=bool)
    for band in _row_bands(slice(0, h), w):
        dirs = _view_rays(cam, w, band, rotation)
        windows = [_window(footprint, w, band) for footprint in here]
        _shade(scene, center, dirs, t_hit[band], labels[band], intensity[band], windows)
        finite = np.isfinite(t_hit[band])
        points = np.reshape(center, (3, 1, 1)) + np.where(finite, t_hit[band], 0.0) * dirs
        rel = np.where(finite, points - np.reshape(other_center, (3, 1, 1)), dirs)
        cam_pt = np.einsum("ij,jhw->ihw", other_rotation, rel)
        in_front = cam_pt[2] > _EPS
        z = np.where(in_front, cam_pt[2], 1.0)
        u, v = other_cam.project(cam_pt[0], cam_pt[1], z)
        # border tolerance absorbs reprojection round-off at the exact edge
        tol = 1e-6
        in_bounds = (
            in_front & (u >= -tol) & (u <= other_w - 1 + tol) & (v >= -tol) & (v <= other_h - 1 + tol)
        )
        hidden = _hidden_from(scene, other_center, rel, finite, u, v, in_bounds, there)
        np.logical_and(in_bounds, ~hidden, out=valid[band])
        np.clip(u, 0.0, other_w - 1.0, out=sx[band])
        np.clip(v, 0.0, other_h - 1.0, out=sy[band])
    image = Image(np.clip(intensity, 0.0, 1.0, out=intensity)[None])
    return image, LabelMap(labels, scene.num_classes), GridMap(sx, sy, valid, (other_w, other_h))


def render_scene(scene: SynthScene) -> ScenePair:
    """Rasterize both cameras and compute exact per-pixel correspondences
    from the true scene geometry (not the planar homography)."""
    rig = scene.rig
    wide = (rig.cam_wide, rig.image_size_wide, np.eye(3), np.zeros(3))
    narrow = (
        rig.cam_narrow,
        rig.image_size_narrow,
        rig.rotation_wide_to_narrow.r,
        np.asarray(scene.baseline, dtype=float),
    )
    wide_image, wide_labels, grid_to_wide = _render_pass(scene, wide, narrow)
    narrow_image, narrow_labels, grid_to_narrow = _render_pass(scene, narrow, wide)
    return ScenePair(
        wide_image=wide_image,
        wide_labels=wide_labels,
        narrow_image=narrow_image,
        narrow_labels=narrow_labels,
        grid_to_narrow=grid_to_narrow,
        grid_to_wide=grid_to_wide,
    )


# ---------------------------------------------------------------------------
# Score degradation: synthetic "segmentation network" outputs


def degrade_scores(gt: LabelMap, sigma: float = 0.0, blur: int = 0, seed: int = 0) -> ScoreMap:
    """One-hot scores, boundary-softened by `blur` passes of a 3-tap
    binomial kernel per axis, plus seeded Gaussian noise."""
    if sigma < 0.0 or blur < 0:
        raise ConfigError("sigma and blur must be non-negative")
    scores = gt.one_hot().data.copy()
    for _ in range(blur):
        scores = _smooth(scores, (0.25, 0.5, 0.25))
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        scores = scores + sigma * rng.standard_normal(scores.shape)
    return ScoreMap(scores)


# ---------------------------------------------------------------------------
# Scene description files and procedural scene construction


def scene_to_text(scene: SynthScene) -> str:
    lines = ["# semshare scene"]
    lines.append(rig_to_text(scene.rig).strip())
    lines.append("baseline " + " ".join(repr(float(v)) for v in scene.baseline))
    lines.append(f"ground.height {float(scene.ground_height)!r}")
    lines.append(f"ground.cell {float(scene.ground_cell)!r}")
    lines.append(f"texture_seed {scene.texture_seed}")
    lines.append(f"num_classes {scene.num_classes}")
    for b in scene.boxes:
        lines.append(
            f"box {float(b.depth)!r} {float(b.x_center)!r} {float(b.width)!r} "
            f"{float(b.height)!r} {b.class_id} {b.texture_seed}"
        )
    return "\n".join(lines) + "\n"


def scene_from_text(text: str) -> SynthScene:
    fields = TextFields(text, "scene file")
    rig = rig_from_fields(fields)
    try:
        # depth, x_center, width, height, class_id, texture_seed
        boxes = [
            (*(float(v) for v in values[:4]), *(int(v) for v in values[4:]))
            for values in fields.take_all("box", 6)
        ]
        baseline = tuple(float(v) for v in fields.take("baseline", 3))
        height = float(fields.take("ground.height", 1)[0])
        cell = float(fields.take("ground.cell", 1)[0])
        tex_seed = int(fields.take("texture_seed", 1)[0])
        num_classes = int(fields.take("num_classes", 1)[0])
    except ValueError as exc:
        raise DataError(f"scene file has a malformed number: {exc}") from exc
    fields.done()
    try:  # a scene no code could build is malformed data here
        return SynthScene(
            rig=rig,
            baseline=baseline,
            ground_height=height,
            ground_cell=cell,
            boxes=tuple(Box(*values) for values in boxes),
            texture_seed=tex_seed,
            num_classes=num_classes,
        )
    except ConfigError as exc:
        raise DataError(str(exc)) from exc


def write_scene(scene: SynthScene, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(scene_to_text(scene))


def read_scene(path) -> SynthScene:
    return scene_from_text(read_ascii(path))


def default_rig(size=(192, 192), yaw_deg: float = 1.5) -> CameraRig:
    """Wide camera with ~90 degree HFoV, narrow with twice the focal, both
    sharing the image center; narrow yawed slightly off the wide axis."""
    w, h = size
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    wide = Intrinsics(fx=w / 2.0, fy=w / 2.0, cx=cx, cy=cy)
    narrow = Intrinsics(fx=float(w), fy=float(w), cx=cx, cy=cy)
    rot = Rotation3.axis_angle((0.0, 1.0, 0.0), math.radians(yaw_deg))
    return CameraRig(
        cam_narrow=narrow,
        cam_wide=wide,
        rotation_wide_to_narrow=rot,
        image_size_narrow=size,
        image_size_wide=size,
    )


def make_scene(seed: int, size=(192, 192), planar: bool = False) -> SynthScene:
    """Procedural benchmark scene, deterministic in the seed.

    Non-planar scenes stand 4 boxes (one per obstacle class) at distinct
    depths; planar scenes keep only the ground plane and background.
    """
    rng = np.random.default_rng(seed)
    yaw = rng.uniform(-2.0, 2.0)
    rig = default_rig(size, yaw_deg=yaw)
    baseline = (float(rng.uniform(0.10, 0.16)), 0.0, 0.0)
    ground_height = float(rng.uniform(1.4, 1.7))
    ground_cell = float(rng.uniform(0.6, 0.9))
    boxes = []
    if not planar:
        classes = rng.permutation([2, 3, 4, 5])
        depths = np.sort(rng.uniform(4.0, 12.0, size=4))
        # each box is centred on its own viewing direction (x / z = lane),
        # which spreads the boxes across the view; a near box can still
        # cover part of a farther one, since widths grow with depth
        lanes = rng.permutation([-0.3, -0.11, 0.08, 0.27])
        for class_id, depth, lane in zip(classes, depths, lanes):
            depth = float(depth)
            x_center = float((lane + rng.uniform(-0.015, 0.015)) * depth)
            width = float(rng.uniform(0.7, 1.0) + depth / 12.0)
            height = float(rng.uniform(1.2, 1.9))
            boxes.append(
                Box(
                    depth=depth,
                    x_center=x_center,
                    width=width,
                    height=min(height, ground_height - 0.05),
                    class_id=int(class_id),
                    texture_seed=int(rng.integers(1 << 31)),
                )
            )
    return SynthScene(
        rig=rig,
        baseline=baseline,
        ground_height=ground_height,
        ground_cell=ground_cell,
        boxes=tuple(boxes),
        texture_seed=int(rng.integers(1 << 31)),
    )
