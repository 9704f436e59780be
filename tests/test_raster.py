import numpy as np
import pytest

from semshare.camera import Homography
from semshare.errors import DataError, DimensionError
from semshare.raster import (
    FlowField,
    GridMap,
    Image,
    LabelMap,
    ScoreMap,
    compose_grids,
    grid_from_flow,
    grid_from_homography,
    identity_grid,
    sample_bilinear,
    warp_labels,
    warp_raster,
)


def bilinear_oracle(plane, sx, sy):
    """Scalar-by-scalar bilinear reference with explicit corner weights."""
    h, w = plane.shape
    x0, y0 = int(np.floor(sx)), int(np.floor(sy))
    fx, fy = sx - x0, sy - y0

    def at(y, x):
        return plane[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]

    return (
        (1 - fy) * ((1 - fx) * at(y0, x0) + fx * at(y0, x0 + 1))
        + fy * ((1 - fx) * at(y0 + 1, x0) + fx * at(y0 + 1, x0 + 1))
    )


def translation_grid(size, dx, dy, source_size=None):
    flow = FlowField(np.stack([
        np.full((size[1], size[0]), float(dx)),
        np.full((size[1], size[0]), float(dy)),
    ]))
    return grid_from_flow(flow)


class TestTypes:
    def test_image_validation(self):
        Image(np.zeros((1, 4, 4)))
        Image(np.zeros((4, 4)))  # promoted to one channel
        with pytest.raises(DataError):
            Image(np.full((1, 4, 4), 1.5))
        with pytest.raises(DataError):
            Image(np.full((1, 4, 4), np.nan))
        with pytest.raises(DimensionError):
            Image(np.zeros((2, 4, 4)))

    def test_scoremap_validation(self):
        ScoreMap(np.zeros((2, 3, 3)))
        with pytest.raises(DimensionError):
            ScoreMap(np.zeros((1, 3, 3)))
        with pytest.raises(DataError):
            ScoreMap(np.full((2, 3, 3), np.inf))

    def test_labelmap_validation(self):
        LabelMap(np.zeros((3, 3), dtype=int), 4)
        with pytest.raises(DataError):
            LabelMap(np.full((3, 3), 4, dtype=int), 4)
        with pytest.raises(DataError):
            LabelMap(np.zeros((3, 3)), 4)  # floats rejected

    def test_flow_rejects_non_finite(self):
        with pytest.raises(DataError):
            FlowField(np.full((2, 3, 3), np.nan))

    def test_grid_rejects_out_of_bounds_valid_pixels(self):
        sx = np.array([[5.0]])
        sy = np.array([[0.0]])
        with pytest.raises(DataError):
            GridMap(sx, sy, np.array([[True]]), (4, 4))
        # same coordinate is fine when flagged invalid
        g = GridMap(sx, sy, np.array([[False]]), (4, 4))
        assert g.sx[0, 0] == 0.0  # canonicalized


class TestGridFromHomography:
    def test_identity_equal_sizes(self):
        g = grid_from_homography(Homography(np.eye(3)), (5, 4), (5, 4))
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(4.0))
        assert np.array_equal(g.sx, xs)
        assert np.array_equal(g.sy, ys)
        assert g.valid.all()

    def test_scaling_inverse_lookup(self):
        # H = diag(2,2,1) source->target: target (6,8) samples source (3,4)
        g = grid_from_homography(Homography(np.diag([2.0, 2.0, 1.0])), (10, 10), (10, 10))
        assert g.sx[8, 6] == pytest.approx(3.0, abs=1e-12)
        assert g.sy[8, 6] == pytest.approx(4.0, abs=1e-12)

    def test_full_width_translation_all_invalid(self):
        w = 8
        m = np.eye(3)
        m[0, 2] = float(w)  # source->target shift by a full width
        g = grid_from_homography(Homography(m), (w, 6), (w, 6))
        assert not g.valid.any()

    @staticmethod
    def yawed_rig(yaw_deg):
        import dataclasses
        import math

        from semshare.camera import Rotation3
        from semshare.synth import make_scene

        rig = make_scene(3, size=(96, 96)).rig
        rotation = Rotation3.axis_angle((0.0, 1.0, 0.0), math.radians(yaw_deg))
        return dataclasses.replace(rig, rotation_wide_to_narrow=rotation)

    @staticmethod
    def rig_grid(rig):
        from semshare.camera import homography_from_rig

        return grid_from_homography(
            homography_from_rig(rig), rig.image_size_narrow, rig.image_size_wide
        )

    @pytest.mark.parametrize("yaw_deg", [120.0, 150.0, 180.0])
    def test_rays_behind_the_source_camera_are_invalid(self, yaw_deg):
        # at these yaws every narrow ray points away from the wide camera
        assert not self.rig_grid(self.yawed_rig(yaw_deg)).valid.any()

    @pytest.mark.parametrize("yaw_deg", [0.0, 40.0, 80.0, 100.0, 120.0, 150.0, -135.0])
    @pytest.mark.parametrize("swap", [False, True])
    def test_validity_is_in_front_and_in_bounds(self, yaw_deg, swap):
        rig = self.yawed_rig(yaw_deg)
        rig = rig.swapped() if swap else rig
        g = self.rig_grid(rig)
        w, h = rig.image_size_narrow
        ys, xs = np.mgrid[0:h, 0:w]
        rays = np.stack([xs, ys, np.ones_like(xs)]).reshape(3, -1).astype(float)
        in_source = (
            rig.rotation_wide_to_narrow.r.T @ rig.cam_narrow.inverse_matrix() @ rays
        )
        px = rig.cam_wide.matrix() @ in_source
        with np.errstate(divide="ignore", invalid="ignore"):
            sx, sy = px[0] / px[2], px[1] / px[2]
        sw, sh = rig.image_size_wide
        expected = (in_source[2] > 0) & (sx >= 0) & (sx <= sw - 1) & (sy >= 0) & (sy <= sh - 1)
        assert np.array_equal(g.valid.reshape(-1), expected)


class TestGridFromFlow:
    def test_zero_flow_identity(self):
        g = grid_from_flow(FlowField.zero((6, 5)))
        ident = identity_grid((6, 5))
        assert np.array_equal(g.sx, ident.sx)
        assert np.array_equal(g.sy, ident.sy)
        assert g.valid.all()

    def test_uniform_shift_bounds(self):
        g = translation_grid((10, 10), 3.0, 0.0)
        assert g.sx[0, 0] == 3.0 and g.sy[0, 0] == 0.0
        # sources at x >= 10 fall outside: columns 7..9 invalid
        assert not g.valid[:, 7:].any()
        assert g.valid[:, :7].all()


class TestComposeGrids:
    def test_identity_composition(self):
        ident = identity_grid((7, 5))
        out = compose_grids(ident, identity_grid((7, 5)))
        assert np.array_equal(out.sx, ident.sx)
        assert np.array_equal(out.sy, ident.sy)
        assert out.valid.all()

    def test_identity_is_neutral_for_flow_grids(self):
        g = translation_grid((9, 9), 3.0, 4.0)
        out = compose_grids(identity_grid((9, 9)), g)
        assert np.array_equal(out.sx, g.sx)
        assert np.array_equal(out.sy, g.sy)
        assert np.array_equal(out.valid, g.valid)

    def test_two_translations_add(self):
        a = translation_grid((12, 12), 2.0, 0.0)
        b = translation_grid((12, 12), 0.0, 3.0)
        out = compose_grids(a, b)
        interior = out.valid
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
        assert np.allclose(out.sx[interior], (xs + 2.0)[interior], atol=1e-12)
        assert np.allclose(out.sy[interior], (ys + 3.0)[interior], atol=1e-12)

    def test_associative_on_translations(self):
        a = translation_grid((16, 16), 1.0, 2.0)
        b = translation_grid((16, 16), 3.0, 0.0)
        c = translation_grid((16, 16), 0.0, 1.0)
        left = compose_grids(compose_grids(a, b), c)
        right = compose_grids(a, compose_grids(b, c))
        both = left.valid & right.valid
        assert both.any()
        assert np.max(np.abs(left.sx[both] - right.sx[both])) < 1e-6
        assert np.max(np.abs(left.sy[both] - right.sy[both])) < 1e-6

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compose_grids(identity_grid((4, 4)), identity_grid((5, 5)))


class TestWarpRaster:
    def test_identity_bit_exact(self):
        rng = np.random.default_rng(0)
        img = Image(rng.random((3, 8, 9)))
        out, mask = warp_raster(img, identity_grid(img.size))
        assert np.array_equal(out.data, img.data)
        assert mask.all()

    def test_ramp_translation(self):
        w, h = 16, 4
        ramp = np.tile(np.arange(w) / w, (h, 1))
        img = Image(ramp[None])
        out, mask = warp_raster(img, translation_grid((w, h), 1.0, 0.0))
        # valid target pixels read (x+1)/W
        xs = np.arange(w - 1)
        expected = (xs + 1) / w
        assert np.allclose(out.data[0][:, : w - 1], expected, atol=1e-12)
        assert mask[:, : w - 1].all() and not mask[:, w - 1].any()

    def test_midpoint_sample_exact(self):
        img = Image(np.array([[[0.0, 1.0]]]))
        grid = GridMap(np.array([[0.5]]), np.array([[0.0]]), np.array([[True]]), (2, 1))
        out, _ = warp_raster(img, grid)
        assert out.data[0, 0, 0] == 0.5

    def test_matches_bilinear_oracle(self):
        rng = np.random.default_rng(5)
        plane = rng.random((6, 7))
        img = Image(plane[None])
        sx = rng.uniform(0, 6, size=(4, 4))
        sy = rng.uniform(0, 5, size=(4, 4))
        grid = GridMap(sx, sy, np.ones((4, 4), bool), (7, 6))
        out, _ = warp_raster(img, grid)
        for y in range(4):
            for x in range(4):
                assert out.data[0, y, x] == pytest.approx(
                    bilinear_oracle(plane, sx[y, x], sy[y, x]), abs=1e-12
                )
        # out-of-range coordinates clamp to the border, like the oracle's
        # replicated corners
        far_x = rng.uniform(-3, 10, size=(4, 4))
        far_y = rng.uniform(-3, 9, size=(4, 4))
        out = sample_bilinear(plane, far_x, far_y)
        for y in range(4):
            for x in range(4):
                assert out[y, x] == pytest.approx(
                    bilinear_oracle(plane, far_x[y, x], far_y[y, x]), abs=1e-12
                )
        # a row of xs against a column of ys samples the whole lattice
        xs = np.array([-0.5, 0.0, 2.25, 6.0, 7.5])
        ys = np.array([-1.0, 1.5, 5.0])
        out = sample_bilinear(plane, xs[None, :], ys[:, None])
        assert out.shape == (3, 5)
        for y in range(3):
            for x in range(5):
                assert out[y, x] == pytest.approx(bilinear_oracle(plane, xs[x], ys[y]), abs=1e-12)

    def test_invalid_pixels_hold_fill_exactly(self):
        rng = np.random.default_rng(1)
        scores = ScoreMap(rng.standard_normal((3, 5, 5)))
        grid = translation_grid((5, 5), 2.0, 0.0)
        out, mask = warp_raster(scores, grid)
        assert np.all(out.data[:, ~mask] == -1e4)
        for channels in (1, 3):
            img = Image(rng.random((channels, 5, 5)))
            out_img, mask_img = warp_raster(img, grid)
            assert np.array_equal(mask_img, mask) and (~mask).any()
            assert np.all(out_img.data[:, ~mask_img] == 0.0)

    def test_commutes_with_channel_slicing(self):
        rng = np.random.default_rng(2)
        scores = ScoreMap(rng.standard_normal((4, 6, 6)))
        grid = translation_grid((6, 6), 0.5, 1.25)
        whole, _ = warp_raster(scores, grid)
        for c in range(4):
            single = ScoreMap(np.stack([scores.data[c], scores.data[c]]))
            alone, _ = warp_raster(single, grid)
            assert np.array_equal(alone.data[0], whole.data[c])

    def test_dimension_mismatch_rejected(self):
        img = Image(np.zeros((1, 4, 4)))
        with pytest.raises(DimensionError):
            warp_raster(img, identity_grid((5, 5)))


class TestWarpLabels:
    def test_identity(self):
        labels = LabelMap(np.arange(12).reshape(3, 4) % 3, 3)
        out, mask = warp_labels(labels, identity_grid(labels.size))
        assert np.array_equal(out.data, labels.data)
        assert mask.all()

    def test_integer_translation_equals_nearest_shift(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 4, size=(8, 8)).astype(np.int32)
        labels = LabelMap(data, 4)
        out, mask = warp_labels(labels, translation_grid((8, 8), 2.0, 1.0))
        shifted = data[1:, 2:]  # nearest-neighbor oracle for integer shifts
        assert np.array_equal(out.data[: 8 - 1, : 8 - 2], shifted)
        assert mask[: 8 - 1, : 8 - 2].all()

    def test_midway_tie_breaks_to_lowest_class(self):
        labels = LabelMap(np.array([[0, 1]], dtype=np.int32), 2)
        grid = GridMap(np.array([[0.5]]), np.array([[0.0]]), np.array([[True]]), (2, 1))
        out, _ = warp_labels(labels, grid)
        assert out.data[0, 0] == 0

    def test_outputs_are_legal_classes(self):
        rng = np.random.default_rng(4)
        labels = LabelMap(rng.integers(0, 5, size=(10, 10)).astype(np.int32), 5)
        sx = rng.uniform(-3, 12, size=(10, 10))
        sy = rng.uniform(-3, 12, size=(10, 10))
        inb = (sx >= 0) & (sx <= 9) & (sy >= 0) & (sy <= 9)
        grid = GridMap(sx, sy, inb, (10, 10))
        out, mask = warp_labels(labels, grid)
        assert out.data.min() >= 0 and out.data.max() < 5
        assert np.array_equal(mask, inb)
