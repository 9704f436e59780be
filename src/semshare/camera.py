"""Camera models and the calibrated mapping between two overlapping views.

Coordinate conventions (shared by every module that touches pixels):
  - image origin at the top-left corner, x grows rightward, y downward;
  - pixel centers sit at integer coordinates, so a W x H image covers
    x in [0, W-1] and y in [0, H-1];
  - the 3x3 intrinsic matrix K maps camera-frame rays to pixels.

A rig pairs a narrow-FoV camera with a wide-FoV camera that share (to a
good approximation) one projection center and differ by a pure rotation.
The induced pixel map from the wide image to the narrow image is the
rotation-only homography K_narrow @ R @ inv(K_wide).  It is exact for
content at infinity; the depth-dependent residual of near objects is left
to the optical-flow stage (see flow.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DataError, PointAtInfinityError

_ORTHO_TOL = 1e-9
_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics: focal lengths, principal point and skew, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "skew"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise CalibrationError(f"intrinsic parameter {name} must be finite, got {value!r}")
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise CalibrationError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, self.skew, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def inverse_matrix(self) -> np.ndarray:
        # Closed-form inverse of the upper-triangular K; exact for K = I.
        det = self.fx * self.fy
        if abs(det) < _SINGULAR_TOL:
            raise CalibrationError(f"intrinsic matrix is numerically singular (det={det})")
        inv = np.array(
            [
                [1.0 / self.fx, -self.skew / det, (self.skew * self.cy - self.cx * self.fy) / det],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )
        return inv + 0.0  # normalize any -0.0 entries


class Rotation3:
    """A proper 3D rotation matrix, validated to 1e-9 orthonormality."""

    __slots__ = ("r",)

    def __init__(self, r):
        r = np.array(r, dtype=float)
        if r.shape != (3, 3):
            raise CalibrationError(f"rotation must be 3x3, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise CalibrationError("rotation contains non-finite entries")
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL:
            raise CalibrationError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise CalibrationError("rotation determinant differs from 1 by more than 1e-9")
        r.flags.writeable = False
        self.r = r

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(np.eye(3))

    @staticmethod
    def axis_angle(axis, radians: float) -> "Rotation3":
        """Rodrigues' formula for a rotation of `radians` about `axis`."""
        a = np.asarray(axis, dtype=float)
        n = np.linalg.norm(a)
        if not (n > 0.0) or not math.isfinite(n):
            raise CalibrationError("rotation axis must be a nonzero finite vector")
        x, y, z = a / n
        k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        r = np.eye(3) + math.sin(radians) * k + (1.0 - math.cos(radians)) * (k @ k)
        return Rotation3(r)

    def transposed(self) -> "Rotation3":
        return Rotation3(self.r.T.copy())

    def __eq__(self, other):
        return isinstance(other, Rotation3) and np.array_equal(self.r, other.r)

    def __repr__(self):
        return f"Rotation3({self.r.tolist()})"


class Homography:
    """3x3 invertible projective pixel map, stored with h[2,2] scaled to 1
    whenever that entry is nonzero (normalization is idempotent)."""

    __slots__ = ("h",)

    def __init__(self, h):
        h = np.array(h, dtype=float)
        if h.shape != (3, 3):
            raise CalibrationError(f"homography must be 3x3, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise CalibrationError("homography contains non-finite entries")
        det = np.linalg.det(h)
        if abs(det) <= _SINGULAR_TOL:
            raise CalibrationError(f"homography is singular (|det|={abs(det):.3e})")
        if h[2, 2] != 0.0:
            h = h / h[2, 2]
        h = h + 0.0
        h.flags.writeable = False
        self.h = h

    def __repr__(self):
        return f"Homography({self.h.tolist()})"


@dataclass(frozen=True)
class CameraRig:
    """A narrow/wide camera pair related by the rotation wide -> narrow.

    Image sizes are (width, height) in pixels.  Extrinsics are restricted
    to pure rotation; any real baseline between the cameras shows up as a
    depth-dependent warp residual downstream.
    """

    cam_narrow: Intrinsics
    cam_wide: Intrinsics
    rotation_wide_to_narrow: Rotation3
    image_size_narrow: tuple[int, int]
    image_size_wide: tuple[int, int]

    def __post_init__(self):
        for name in ("image_size_narrow", "image_size_wide"):
            size = getattr(self, name)
            if len(size) != 2 or not all(isinstance(v, int) and v > 0 for v in size):
                raise CalibrationError(f"{name} must be a pair of positive ints, got {size!r}")

    def swapped(self) -> "CameraRig":
        """The same physical pair with the camera roles exchanged."""
        return CameraRig(
            cam_narrow=self.cam_wide,
            cam_wide=self.cam_narrow,
            rotation_wide_to_narrow=self.rotation_wide_to_narrow.transposed(),
            image_size_narrow=self.image_size_wide,
            image_size_wide=self.image_size_narrow,
        )


def homography_from_rig(rig: CameraRig) -> Homography:
    """Pixel map from the wide camera to the narrow camera:
    K_narrow @ R @ inv(K_wide), normalized."""
    k_narrow = rig.cam_narrow.matrix()
    k_wide_inv = rig.cam_wide.inverse_matrix()
    h = k_narrow @ rig.rotation_wide_to_narrow.r @ k_wide_inv
    return Homography(h)


def apply_homography(h: Homography, point) -> tuple[float, float]:
    """Map one pixel point (x, y) through the homography."""
    x, y = float(point[0]), float(point[1])
    m = h.h
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) <= _SINGULAR_TOL:
        raise PointAtInfinityError(f"point ({x}, {y}) maps to infinity (w={w})")
    return (
        (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w,
        (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w,
    )


def apply_homography_arrays(h: Homography, xs: np.ndarray, ys: np.ndarray):
    """Vectorized apply_homography.

    Returns (mapped_x, mapped_y, finite) where `finite` flags points whose
    projective denominator stayed away from zero; mapped coordinates at
    non-finite points are set to 0.
    """
    m = h.h
    w = m[2, 0] * xs + m[2, 1] * ys + m[2, 2]
    finite = np.abs(w) > _SINGULAR_TOL
    safe_w = np.where(finite, w, 1.0)
    sx = np.where(finite, (m[0, 0] * xs + m[0, 1] * ys + m[0, 2]) / safe_w, 0.0)
    sy = np.where(finite, (m[1, 0] * xs + m[1, 1] * ys + m[1, 2]) / safe_w, 0.0)
    return sx, sy, finite


def invert_homography(h: Homography) -> Homography:
    """Normalized inverse; apply(h_inv, apply(h, p)) recovers p to ~1e-6."""
    return Homography(np.linalg.inv(h.h))


# ---------------------------------------------------------------------------
# Calibration file format: one "key value..." entry per line, '#' comments.
# Floats are written with repr() so parsing round-trips exactly.


def read_ascii(path) -> str:
    """Contents of a text file, which every semshare text format keeps to
    ASCII; any other byte is a DataError."""
    try:
        with open(path, "r", encoding="ascii") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not an ASCII text file: {exc}") from exc


_CAM_KEYS = ("fx", "fy", "cx", "cy", "skew")


def rig_to_text(rig: CameraRig) -> str:
    lines = ["# semshare camera rig"]
    for prefix, cam, size in (
        ("narrow", rig.cam_narrow, rig.image_size_narrow),
        ("wide", rig.cam_wide, rig.image_size_wide),
    ):
        for key in _CAM_KEYS:
            lines.append(f"{prefix}.{key} {float(getattr(cam, key))!r}")
        lines.append(f"{prefix}.size {size[0]} {size[1]}")
    flat = " ".join(repr(float(v)) for v in rig.rotation_wide_to_narrow.r.reshape(-1))
    lines.append(f"rotation {flat}")
    return "\n".join(lines) + "\n"


def rig_from_text(text: str) -> CameraRig:
    values: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        values[parts[0]] = parts[1:]

    def take(key: str, count: int) -> list[str]:
        if key not in values:
            raise DataError(f"calibration file is missing key '{key}'")
        if len(values[key]) != count:
            raise DataError(f"calibration key '{key}' expects {count} values")
        return values.pop(key)

    def parse_cam(prefix: str) -> tuple[Intrinsics, tuple[int, int]]:
        params = {key: float(take(f"{prefix}.{key}", 1)[0]) for key in _CAM_KEYS}
        w, h = (int(v) for v in take(f"{prefix}.size", 2))
        return Intrinsics(**params), (w, h)

    try:
        cam_narrow, size_narrow = parse_cam("narrow")
        cam_wide, size_wide = parse_cam("wide")
        rot = np.array([float(v) for v in take("rotation", 9)]).reshape(3, 3)
    except ValueError as exc:
        raise DataError(f"calibration file has a malformed number: {exc}") from exc
    if values:
        raise DataError(f"calibration file has unknown keys: {sorted(values)}")
    return CameraRig(
        cam_narrow=cam_narrow,
        cam_wide=cam_wide,
        rotation_wide_to_narrow=Rotation3(rot),
        image_size_narrow=size_narrow,
        image_size_wide=size_wide,
    )


def write_rig(rig: CameraRig, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(rig_to_text(rig))


def read_rig(path) -> CameraRig:
    return rig_from_text(read_ascii(path))
