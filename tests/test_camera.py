import math

import numpy as np
import pytest

from semshare.camera import (
    CameraRig,
    Homography,
    Intrinsics,
    Rotation3,
    apply_homography,
    apply_homography_arrays,
    homography_from_rig,
    invert_homography,
    read_rig,
    rig_from_text,
    rig_to_text,
    write_rig,
)
from semshare.errors import CalibrationError, DataError, PointAtInfinityError


def make_rig(k_narrow, k_wide, rotation, size=(64, 48)):
    return CameraRig(
        cam_narrow=k_narrow,
        cam_wide=k_wide,
        rotation_wide_to_narrow=rotation,
        image_size_narrow=size,
        image_size_wide=size,
    )


IDENTITY_K = Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)


def mat3_product(*mats):
    """Hand 3x3 matrix product oracle: explicit triple loop, no numpy matmul."""
    out = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    for m in mats:
        nxt = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                nxt[i][j] = sum(out[i][k] * float(m[k][j]) for k in range(3))
        out = nxt
    return np.array(out)


class TestHomographyFromRig:
    def test_identity_rig_is_exact_identity(self):
        h = homography_from_rig(make_rig(IDENTITY_K, IDENTITY_K, Rotation3.identity()))
        assert np.array_equal(h.h, np.eye(3))

    def test_scaling_narrow_camera(self):
        # K_narrow = diag(2,2,1), K_wide = I, R = I -> H = diag(2,2,1)
        k2 = Intrinsics(fx=2.0, fy=2.0, cx=0.0, cy=0.0)
        h = homography_from_rig(make_rig(k2, IDENTITY_K, Rotation3.identity()))
        expected = mat3_product(k2.matrix(), np.eye(3), np.eye(3))
        assert np.allclose(h.h, expected, atol=0.0)
        assert np.array_equal(h.h, np.diag([2.0, 2.0, 1.0]))

    def test_z_rotation_commutes_with_square_pixels(self):
        k = Intrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
        rot = Rotation3.axis_angle((0.0, 0.0, 1.0), math.radians(5.0))
        h = homography_from_rig(make_rig(k, k, rot))
        c, s = math.cos(math.radians(5.0)), math.sin(math.radians(5.0))
        embedded = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(h.h - embedded)) < 1e-12
        # independent direct matrix-product oracle
        oracle = mat3_product(k.matrix(), rot.r, k.inverse_matrix())
        assert np.max(np.abs(h.h - oracle)) < 1e-15

    def test_near_singular_intrinsics_rejected(self):
        tiny = Intrinsics(fx=1e-13, fy=1e-13, cx=0.0, cy=0.0)
        with pytest.raises(CalibrationError):
            homography_from_rig(make_rig(IDENTITY_K, tiny, Rotation3.identity()))

    def test_forward_backward_rigs_compose_to_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            k_n = Intrinsics(fx=200 + 50 * rng.random(), fy=180 + 50 * rng.random(),
                             cx=10 * rng.random(), cy=10 * rng.random(), skew=rng.random())
            k_w = Intrinsics(fx=90 + 30 * rng.random(), fy=100 + 30 * rng.random(),
                             cx=5 * rng.random(), cy=5 * rng.random())
            axis = rng.standard_normal(3)
            rot = Rotation3.axis_angle(axis, 0.1 * rng.random())
            rig = make_rig(k_n, k_w, rot)
            h_fwd = homography_from_rig(rig)
            h_bwd = homography_from_rig(rig.swapped())
            composed = Homography(h_fwd.h @ h_bwd.h)
            assert np.max(np.abs(composed.h - np.eye(3))) < 1e-9


class TestApplyHomography:
    def test_identity_passthrough(self):
        assert apply_homography(Homography(np.eye(3)), (3.5, 4.5)) == (3.5, 4.5)

    def test_diagonal_scaling(self):
        # hand evaluation of the projective formula: w = 1, x' = 2*3, y' = 2*4
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        assert apply_homography(h, (3.0, 4.0)) == (6.0, 8.0)

    def test_translation(self):
        m = np.eye(3)
        m[0, 2] = 10.0
        m[1, 2] = -5.0
        assert apply_homography(Homography(m), (0.0, 0.0)) == (10.0, -5.0)

    def test_point_at_infinity(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        h = Homography(m)
        with pytest.raises(PointAtInfinityError):
            apply_homography(h, (-1.0, 0.0))

    def test_projective_scale_invariance(self):
        rng = np.random.default_rng(3)
        base = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        for scale in (2.0, -0.5, 1e3):
            h1 = Homography(base)
            h2 = Homography(scale * base)
            for _ in range(20):
                p = tuple(10 * rng.standard_normal(2))
                a = apply_homography(h1, p)
                b = apply_homography(h2, p)
                assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9

    def test_array_variant_matches_scalar(self):
        rng = np.random.default_rng(11)
        h = Homography(np.eye(3) + 0.05 * rng.standard_normal((3, 3)))
        xs = 10 * rng.standard_normal(50)
        ys = 10 * rng.standard_normal(50)
        sx, sy, ok = apply_homography_arrays(h, xs, ys)
        assert ok.all()
        for i in range(50):
            ex, ey = apply_homography(h, (xs[i], ys[i]))
            assert sx[i] == ex and sy[i] == ey


class TestInvertHomography:
    def test_identity(self):
        assert np.array_equal(invert_homography(Homography(np.eye(3))).h, np.eye(3))

    def test_diagonal_analytic_inverse(self):
        h_inv = invert_homography(Homography(np.diag([2.0, 2.0, 1.0])))
        assert np.allclose(h_inv.h, np.diag([0.5, 0.5, 1.0]), atol=1e-15)

    def test_roundtrip_on_sample_points(self):
        rng = np.random.default_rng(42)
        h = Homography(np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
        h_inv = invert_homography(h)
        worst = 0.0
        for _ in range(100):
            p = tuple(20 * rng.standard_normal(2))
            q = apply_homography(h, p)
            back = apply_homography(h_inv, q)
            worst = max(worst, abs(back[0] - p[0]), abs(back[1] - p[1]))
        assert worst < 1e-6

    def test_singular_matrix_rejected(self):
        with pytest.raises(CalibrationError):
            Homography(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


class TestValidation:
    def test_normalization_idempotent(self):
        m = 3.0 * (np.eye(3) + 0.1 * np.arange(9).reshape(3, 3))
        once = Homography(m)
        twice = Homography(once.h)
        assert np.array_equal(once.h, twice.h)
        assert once.h[2, 2] == 1.0

    def test_intrinsics_require_positive_focals(self):
        with pytest.raises(CalibrationError):
            Intrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(CalibrationError):
            Intrinsics(fx=1.0, fy=-2.0, cx=0.0, cy=0.0)
        with pytest.raises(CalibrationError):
            Intrinsics(fx=float("nan"), fy=1.0, cx=0.0, cy=0.0)

    def test_rotation_rejects_non_orthonormal(self):
        with pytest.raises(CalibrationError):
            Rotation3(np.eye(3) * 1.001)
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(CalibrationError):
            Rotation3(reflect)

    def test_rig_rejects_bad_sizes(self):
        with pytest.raises(CalibrationError):
            make_rig(IDENTITY_K, IDENTITY_K, Rotation3.identity(), size=(0, 10))


class TestCalibrationFile:
    def test_roundtrip_exact(self, tmp_path):
        rig = CameraRig(
            cam_narrow=Intrinsics(fx=384.123456789, fy=383.9, cx=95.5, cy=96.25, skew=0.125),
            cam_wide=Intrinsics(fx=96.0, fy=96.0, cx=95.5, cy=95.5),
            rotation_wide_to_narrow=Rotation3.axis_angle((0.0, 1.0, 0.0), 0.031),
            image_size_narrow=(192, 192),
            image_size_wide=(192, 192),
        )
        path = tmp_path / "rig.txt"
        write_rig(rig, path)
        back = read_rig(path)
        assert back.cam_narrow == rig.cam_narrow
        assert back.cam_wide == rig.cam_wide
        assert np.array_equal(back.rotation_wide_to_narrow.r, rig.rotation_wide_to_narrow.r)
        assert back.image_size_narrow == rig.image_size_narrow
        # text round-trip is stable too
        assert rig_to_text(back) == rig_to_text(rig)

    def test_missing_key_rejected(self):
        rig = make_rig(IDENTITY_K, IDENTITY_K, Rotation3.identity())
        text = "\n".join(
            line for line in rig_to_text(rig).splitlines() if not line.startswith("wide.fx")
        )
        with pytest.raises(DataError):
            rig_from_text(text)

    def test_unknown_key_rejected(self):
        rig = make_rig(IDENTITY_K, IDENTITY_K, Rotation3.identity())
        with pytest.raises(DataError):
            rig_from_text(rig_to_text(rig) + "bogus 1\n")

    def test_malformed_number_rejected(self):
        rig = make_rig(IDENTITY_K, IDENTITY_K, Rotation3.identity())
        with pytest.raises(DataError):
            rig_from_text(rig_to_text(rig).replace("1.0", "one", 1))
