import numpy as np
import pytest

from semshare import raster
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


def reference_bilinear_support(sx, sy, source_size):
    """raster._bilinear_support with the corners built as explicit clamped
    2-D coordinates (x1 = min(x0 + 1, w - 1)) before they are flattened."""
    w, h = source_size
    fx = np.clip(sx, 0.0, w - 1.0)
    fy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(fx)
    y0 = np.floor(fy)
    fx = fx - x0
    fy = fy - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x0, x1, y0, y1 = np.broadcast_arrays(x0, x1, y0, y1)
    return np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1]), fx, fy


def reference_gather_bilinear(plane, support, out=None):
    """raster._gather_bilinear by 2-D fancy indexing and the textbook
    weighted sum, with fresh temporaries."""
    idx, fx, fy = support
    y, x = np.divmod(idx, plane.shape[1])
    top = (1.0 - fx) * plane[y[0], x[0]] + fx * plane[y[1], x[1]]
    bot = (1.0 - fx) * plane[y[2], x[2]] + fx * plane[y[3], x[3]]
    result = (1.0 - fy) * top + fy * bot
    if out is None:
        return result
    out[...] = result
    return out


def reference_sample(plane, sx, sy):
    h, w = plane.shape
    return reference_gather_bilinear(plane, reference_bilinear_support(sx, sy, (w, h)))


def reference_warp(planes, grid, fill):
    sampled = np.stack([reference_sample(p, grid.sx, grid.sy) for p in planes])
    return np.where(grid.valid[None], sampled, fill)


def reference_compose(outer, inner):
    """compose_grids with the inner validity read by 2-D indexing."""
    w, h = inner.size
    idx, fx, fy = reference_bilinear_support(outer.sx, outer.sy, inner.size)
    y, x = np.divmod(idx, w)
    sx = reference_sample(inner.sx, outer.sx, outer.sy)
    sy = reference_sample(inner.sy, outer.sx, outer.sy)
    zx, zy = fx == 0.0, fy == 0.0
    ok = (
        inner.valid[y[0], x[0]]
        & (zx | inner.valid[y[1], x[1]])
        & (zy | inner.valid[y[2], x[2]])
        & (zx | zy | inner.valid[y[3], x[3]])
    )
    sw, sh = inner.source_size
    return GridMap(
        np.clip(sx, 0.0, sw - 1.0), np.clip(sy, 0.0, sh - 1.0), outer.valid & ok, inner.source_size
    )


def edge_heavy_grid(rng, size, source_size, invalid_frac=0.2):
    """Random grid whose coordinates include integers, half-integers and the
    last row and column, where corners carry zero weight or clamp."""
    w, h = size
    sw, sh = source_size
    sx = rng.uniform(0.0, sw - 1.0, size=(h, w))
    sy = rng.uniform(0.0, sh - 1.0, size=(h, w))
    pick = rng.random((h, w))
    sx[pick < 0.3] = np.round(sx[pick < 0.3])
    sy[pick > 0.7] = np.round(sy[pick > 0.7])
    sx[(pick > 0.4) & (pick < 0.5)] = sw - 1.0
    sy[(pick > 0.45) & (pick < 0.55)] = sh - 1.0
    sx[(pick > 0.55) & (pick < 0.6)] = np.floor(sx[(pick > 0.55) & (pick < 0.6)]) + 0.5
    sx[(pick > 0.6) & (pick < 0.62)] = 0.0
    valid = rng.random((h, w)) >= invalid_frac
    return GridMap(sx, sy, valid, source_size)


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

    def test_adopted_scoremap_keeps_the_checks_without_a_copy(self):
        arr = np.zeros((2, 3, 3))
        scores = ScoreMap._adopt(arr)
        assert scores.data is arr and not arr.flags.writeable
        bad = np.zeros((2, 3, 3))
        bad[1, 2, 0] = np.nan
        with pytest.raises(DataError):
            ScoreMap._adopt(bad)
        with pytest.raises(DimensionError):
            ScoreMap._adopt(np.zeros((1, 3, 3)))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 3.5])
    def test_grid_stores_any_invalid_coordinate_as_zero(self, bad):
        """Non-finite or out-of-range coordinates pass at invalid pixels,
        stored as 0, and raise DataError at a valid one, in either plane."""
        valid = np.array([[True, False], [False, True]])
        for plane in (0, 1):
            planes = np.full((2, 2, 2), 1.0)
            planes[plane, 0, 1] = bad
            planes[plane, 1, 0] = bad
            g = GridMap(planes[0], planes[1], valid, (4, 4))
            assert np.array_equal(g.sx, np.where(valid, 1.0, 0.0))
            assert np.array_equal(g.sy, np.where(valid, 1.0, 0.0))
            # the caller's planes are neither changed nor frozen
            assert planes.flags.writeable
            assert np.array_equal(planes[plane], [[1.0, bad], [bad, 1.0]], equal_nan=True)
            planes[plane, 1, 1] = bad
            with pytest.raises(DataError):
                GridMap(planes[0], planes[1], valid, (4, 4))


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
    def test_warped_scores_are_read_only_and_share_no_memory(self):
        rng = np.random.default_rng(3)
        src = ScoreMap(rng.standard_normal((4, 9, 11)))
        grid = translation_grid(src.size, 1.5, -0.25)
        out, mask = warp_raster(src, grid)
        assert not out.data.flags.writeable
        for other in (src.data, grid.sx, grid.sy, grid.valid, mask):
            assert not np.shares_memory(out.data, other)

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


# raster._BAND_PIXELS values for the banded passes: one row per band (1,
# and 7 on rows of 7 pixels or more), a few rows with a shorter last band
# (100), the default
BAND_SIZES = (1, 7, 100, raster._BAND_PIXELS)


class TestFlatIndexKernels:
    """The flat-index support and gather against the 2-D-index oracle,
    compared as bytes."""

    def test_sample_bilinear_out_of_range_and_lattices(self):
        rng = np.random.default_rng(21)
        plane = rng.standard_normal((9, 13))
        sx = rng.uniform(-4, 17, size=(7, 11))
        sy = rng.uniform(-4, 12, size=(7, 11))
        sx[0, :3] = [-1.0, 12.0, 12.5]
        sy[1, :3] = [8.0, 9.0, -0.5]
        got = sample_bilinear(plane, sx, sy)
        assert got.tobytes() == reference_sample(plane, sx, sy).tobytes()
        xs = np.array([-2.0, 0.0, 0.5, 6.25, 12.0, 14.0])
        ys = np.array([-1.0, 0.0, 3.75, 8.0, 8.5])
        for lx, ly in ((xs[None, :], ys[:, None]), (xs[:, None], ys[None, :])):
            got = sample_bilinear(plane, lx, ly)
            assert got.shape == np.broadcast_shapes(lx.shape, ly.shape)
            assert got.tobytes() == reference_sample(plane, lx, ly).tobytes()

    @pytest.mark.parametrize(
        "size, source_size, layout",
        [
            # the first two cases keep the IDs they had before `layout`
            pytest.param((17, 11), (13, 9), "scattered", id="size0-source_size0"),
            pytest.param((40, 31), (40, 31), "scattered", id="size1-source_size1"),
            pytest.param((40, 31), (40, 31), "off_centre_block", id="off_centre_block"),
            pytest.param((17, 11), (13, 9), "all_invalid", id="all_invalid"),
        ],
    )
    def test_warps_match_oracle(self, monkeypatch, size, source_size, layout):
        """Warps sample only the box of the valid pixels, in row bands; the
        oracle samples every pixel.  No band size changes a bit."""
        for band_pixels in BAND_SIZES:
            with monkeypatch.context() as m:
                m.setattr(raster, "_BAND_PIXELS", band_pixels)
                self.check_warps(size, source_size, layout)

    @staticmethod
    def check_warps(size, source_size, layout):
        rng = np.random.default_rng(size[0])
        sw, sh = source_size
        grid = edge_heavy_grid(rng, size, source_size)
        if layout != "scattered":
            valid = np.zeros(grid.valid.shape, bool)
            if layout == "off_centre_block":
                valid[4:13, 22:35] = grid.valid[4:13, 22:35]
            grid = GridMap(grid.sx, grid.sy, valid, source_size)
        scores = ScoreMap(rng.standard_normal((6, sh, sw)))
        out, mask = warp_raster(scores, grid)
        assert out.data.tobytes() == reference_warp(scores.data, grid, -1e4).tobytes()
        assert np.array_equal(mask, grid.valid)
        if layout == "all_invalid":
            assert np.all(out.data == raster.SCORE_FILL)
        for channels in (1, 3):
            img = Image(rng.random((channels, sh, sw)))
            out, _ = warp_raster(img, grid)
            want = np.clip(reference_warp(img.data, grid, 0.0), 0.0, 1.0)
            assert out.data.tobytes() == want.tobytes()
        labels = LabelMap(rng.integers(0, 5, size=(sh, sw)), 5)
        out, mask = warp_labels(labels, grid)
        want = np.argmax(reference_warp(labels.one_hot().data, grid, 0.0), axis=0)
        assert out.data.tobytes() == want.astype(np.int32).tobytes()
        assert np.array_equal(mask, grid.valid)

    def test_compose_matches_oracle(self, monkeypatch):
        """Composition evaluates only the box of outer's valid pixels, in row
        bands; the oracle evaluates every pixel.  No band size changes a
        bit."""
        rng = np.random.default_rng(22)
        inner = edge_heavy_grid(rng, (23, 19), (29, 17), invalid_frac=0.1)
        outer = edge_heavy_grid(rng, (31, 21), inner.size, invalid_frac=0.05)
        block = np.zeros(outer.valid.shape, bool)
        block[3:11, 17:29] = outer.valid[3:11, 17:29]
        outers = [
            outer,
            GridMap(outer.sx, outer.sy, block, outer.source_size),
            GridMap(outer.sx, outer.sy, np.zeros_like(block), outer.source_size),
        ]
        for band_pixels in BAND_SIZES:
            with monkeypatch.context() as m:
                m.setattr(raster, "_BAND_PIXELS", band_pixels)
                for grid in outers:
                    got = compose_grids(grid, inner)
                    want = reference_compose(grid, inner)
                    for name in ("sx", "sy", "valid"):
                        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # the zero-weight rule decides some pixels: a neighbor-blind check
        # that all four corners be valid would reject more
        got = compose_grids(outer, inner)
        idx, _, _ = reference_bilinear_support(outer.sx, outer.sy, inner.size)
        all_corners = outer.valid & inner.valid.reshape(-1)[idx].all(axis=0)
        assert (got.valid & ~all_corners).sum() > 10


class TestValidBox:
    @pytest.mark.parametrize(
        "rows, cols, pad, min_size, want",
        [
            ((3, 5), (7, 8), 0, 1, ((3, 5), (7, 8))),
            # padded by 8, edges rounded outward to multiples of 8, clamped
            ((3, 5), (17, 30), 8, 1, ((0, 16), (8, 40))),
            ((40, 45), (50, 60), 8, 1, ((32, 45), (40, 60))),
            # grown to min_size (rounded up to a multiple of pad): to the
            # right, or to the left where the raster ends
            ((20, 21), (30, 31), 1, 16, ((19, 35), (29, 45))),
            ((44, 45), (59, 60), 1, 16, ((29, 45), (44, 60))),
            ((20, 21), (30, 31), 8, 20, ((8, 32), (16, 40))),
            ((44, 45), (59, 60), 8, 20, ((16, 45), (32, 60))),
            # a raster smaller than min_size bounds the box
            ((20, 21), (30, 31), 8, 64, ((0, 45), (0, 60))),
        ],
    )
    def test_box(self, rows, cols, pad, min_size, want):
        valid = np.zeros((45, 60), bool)
        valid[rows[0] : rows[1], cols[0] : cols[1]] = True
        got = raster._valid_box(valid, pad, min_size)
        assert got == (slice(*want[0]), slice(*want[1]))

    def test_empty_mask_has_no_box(self):
        assert raster._valid_box(np.zeros((5, 7), bool), 8, 16) is None


class TestKernelDtypes:
    """The support and the gathers keep float32 in float32; in float64 the
    float-floor fractions equal the integer-floor differences bit for bit."""

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(23)
        planes = rng.standard_normal((3, 9, 13)).astype(np.float32)
        sx = rng.uniform(-4, 17, size=(7, 11)).astype(np.float32)
        sy = rng.uniform(-4, 12, size=(7, 11)).astype(np.float32)
        _, fx, fy = raster._bilinear_support(sx, sy, (13, 9))
        assert fx.dtype == fy.dtype == np.float32
        stacked = raster._sample_planes(planes, sx, sy)
        assert stacked.dtype == np.float32
        for k in range(3):
            single = sample_bilinear(planes[k], sx, sy)
            assert single.dtype == np.float32
            assert single.tobytes() == stacked[k].tobytes()
            assert single.tobytes() == reference_sample(planes[k], sx, sy).tobytes()

    def test_float64_fractions_match_integer_floor(self):
        rng = np.random.default_rng(24)
        w, h = 20_001, 7
        sx = rng.uniform(-3.0, w + 2.0, size=4000)
        sy = rng.uniform(-3.0, h + 2.0, size=4000)
        sx[:3] = [w - 1.0, w - 1.5, np.nextafter(w - 1.0, 0.0)]
        idx, fx, fy = raster._bilinear_support(sx, sy, (w, h))
        for got, coords, limit in ((fx, sx, w - 1.0), (fy, sy, h - 1.0)):
            clamped = np.clip(coords, 0.0, limit)
            want = clamped - np.floor(clamped).astype(np.intp)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert idx.tobytes() == reference_bilinear_support(sx, sy, (w, h))[0].tobytes()
        plane = rng.standard_normal((h, w))
        got = raster._sample_planes(plane[None], sx, sy)
        assert got.dtype == np.float64
        assert got[0].tobytes() == reference_sample(plane, sx, sy).tobytes()


BINOMIAL5 = (1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0)


def smooth5_oracle(plane):
    """The pyramid's former flow._smooth5: separable 5-tap binomial
    smoothing of one 2D plane with replicate borders."""
    padded = np.pad(plane, ((0, 0), (2, 2)), mode="edge")
    out = sum(BINOMIAL5[k] * padded[:, k : k + plane.shape[1]] for k in range(5))
    padded = np.pad(out, ((2, 2), (0, 0)), mode="edge")
    return sum(BINOMIAL5[k] * padded[k : k + plane.shape[0], :] for k in range(5))


def blur3_oracle(scores):
    """One pass of the former synth.degrade_scores blur: a 3-tap binomial
    kernel along W, then along H, of a (C, H, W) stack, replicate borders."""
    padded = np.pad(scores, ((0, 0), (0, 0), (1, 1)), mode="edge")
    scores = 0.25 * padded[:, :, :-2] + 0.5 * padded[:, :, 1:-1] + 0.25 * padded[:, :, 2:]
    padded = np.pad(scores, ((0, 0), (1, 1), (0, 0)), mode="edge")
    return 0.25 * padded[:, :-2, :] + 0.5 * padded[:, 1:-1, :] + 0.25 * padded[:, 2:, :]


class TestSmooth:
    """raster._smooth reproduces both smoothings it replaced bit for bit."""

    @pytest.mark.parametrize("shape", [(37, 53), (1, 9), (9, 1), (1, 1), (2, 3)])
    def test_matches_smooth5_on_float32_planes(self, shape):
        plane = (np.random.default_rng(sum(shape)).random(shape) * 255.0).astype(np.float32)
        got = raster._smooth(plane, BINOMIAL5)
        assert got.dtype == np.float32
        assert got.tobytes() == smooth5_oracle(plane).tobytes()

    @pytest.mark.parametrize("shape", [(6, 31, 17), (2, 1, 5), (3, 4, 1)])
    def test_matches_degrade_blur_on_float64_stacks(self, shape):
        scores = np.random.default_rng(len(shape) + sum(shape)).standard_normal(shape)
        got, want = scores, scores
        for _ in range(3):
            got = raster._smooth(got, (0.25, 0.5, 0.25))
            want = blur3_oracle(want)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


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
