import numpy as np
import pytest

from semshare import flow, raster
from semshare.camera import CameraRig, Intrinsics, Rotation3
from semshare.errors import ConfigError, DimensionError
from semshare.flow import (
    FlowConfig,
    _plane_pyramid,
    estimate_flow,
    estimate_flow_detailed,
    flow_to_color,
    to_gray,
    two_stage_map,
    two_stage_map_detailed,
)
from semshare.metrics import aepe
from semshare.raster import (
    FlowField,
    GridMap,
    Image,
    compose_grids,
    grid_from_flow,
    sample_bilinear,
)


def value_noise(size, seed, octaves=((32, 0.5), (16, 0.3), (8, 0.2))):
    """Seeded multi-octave value noise in [0, 1]; smooth enough for flow."""
    w, h = size
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    out = np.zeros((h, w))
    for scale, amp in octaves:
        grid = rng.random((h // scale + 3, w // scale + 3))
        gx, gy = xs / scale, ys / scale
        x0 = np.floor(gx).astype(int)
        y0 = np.floor(gy).astype(int)
        fx, fy = gx - x0, gy - y0
        fx = fx * fx * (3 - 2 * fx)
        fy = fy * fy * (3 - 2 * fy)
        top = (1 - fx) * grid[y0, x0] + fx * grid[y0, x0 + 1]
        bot = (1 - fx) * grid[y0 + 1, x0] + fx * grid[y0 + 1, x0 + 1]
        out += amp * ((1 - fy) * top + fy * bot)
    out = (out - out.min()) / (out.max() - out.min())
    return out


def reference_neighbor_sum(plane):
    out = np.zeros_like(plane)
    out[:, 1:] += plane[:, :-1]
    out[:, :-1] += plane[:, 1:]
    out[1:, :] += plane[:-1, :]
    out[:-1, :] += plane[1:, :]
    return out


def reference_solve_level(target, source, u, v, cfg, record_energy=False):
    """flow._solve_level as a plain Jacobi loop: whole-plane neighbor sums
    and fresh full-size temporaries every sweep, no bands, no buffers, in
    the dtype of the planes it is given."""
    h, w = target.shape
    dtype = target.dtype
    ys, xs = np.mgrid[0:h, 0:w].astype(dtype)
    warped = sample_bilinear(source, xs + u, ys + v)
    ix, iy = flow._central_diff(warped)
    it = warped - target
    alpha2 = cfg.smoothness_weight**2
    counts = flow._neighbor_counts((h, w), dtype)
    denom = alpha2 * counts + ix * ix + iy * iy
    du = np.zeros((h, w), dtype)
    dv = np.zeros((h, w), dtype)
    energies = [flow._objective(ix, iy, it, du, dv, alpha2)] if record_energy else None
    for _ in range(cfg.iterations_per_level):
        du_bar = reference_neighbor_sum(du) / counts
        dv_bar = reference_neighbor_sum(dv) / counts
        frac = (ix * du_bar + iy * dv_bar + it) / denom
        du = du_bar - ix * frac
        dv = dv_bar - iy * frac
        if record_energy:
            energies.append(flow._objective(ix, iy, it, du, dv, alpha2))
    return u + du, v + dv, energies


class TestConfig:
    def test_defaults(self):
        cfg = FlowConfig()
        assert cfg.num_levels == 4
        assert cfg.iterations_per_level == 50
        assert cfg.smoothness_weight == 15.0
        assert cfg.min_level_size == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            FlowConfig(num_levels=0)
        with pytest.raises(ConfigError):
            FlowConfig(iterations_per_level=0)
        with pytest.raises(ConfigError):
            FlowConfig(smoothness_weight=0.0)


def level_sizes(img, cfg):
    """Pyramid level sizes, finest first, as the flow estimator builds them."""
    levels = _plane_pyramid(img.data[0], cfg.num_levels, cfg.min_level_size)
    return [(p.shape[1], p.shape[0]) for p in levels]


class TestPyramid:
    def test_level_zero_is_source(self):
        img = Image(value_noise((64, 48), 0)[None])
        assert level_sizes(img, FlowConfig(iterations_per_level=1))[0] == img.size

    def test_sizes_halve_with_rounding(self):
        img = Image(value_noise((100, 70), 1)[None])
        sizes = level_sizes(img, FlowConfig(num_levels=3, iterations_per_level=1))
        assert sizes == [(100, 70), (50, 35), (25, 18)]

    def test_respects_min_level_size(self):
        img = Image(value_noise((64, 64), 2)[None])
        sizes = level_sizes(img, FlowConfig(num_levels=8, iterations_per_level=1))
        assert len(sizes) == 3  # 64, 32, 16: next would drop below 16
        assert min(sizes[-1]) >= 16

    def test_small_input_rejected(self):
        img = Image(np.zeros((1, 8, 8)))
        with pytest.raises(ConfigError):
            estimate_flow_detailed(img, img, FlowConfig())

    def test_constant_image_stays_constant(self):
        levels = _plane_pyramid(np.full((64, 64), 0.5), 4, 16)
        assert len(levels) == 3
        for lvl in levels:
            assert np.allclose(lvl, 0.5, atol=1e-12)


class TestEstimateFlow:
    def test_zero_motion(self):
        img = Image(value_noise((96, 96), 3)[None])
        flow = estimate_flow(img, img)
        gt = FlowField.zero(img.size)
        assert aepe(gt, flow, np.ones((96, 96), bool)) < 0.05

    def test_integer_shift_recovered(self):
        w = h = 128
        big = value_noise((w + 16, h + 16), 4)
        source = big[8 : 8 + h, 8 : 8 + w]
        target = big[8 : 8 + h, 13 : 13 + w]  # source sampled at p + (5, 0)
        flow = estimate_flow(Image(target[None]), Image(source[None]))
        gt = FlowField(np.stack([np.full((h, w), 5.0), np.zeros((h, w))]))
        interior = np.zeros((h, w), bool)
        interior[10:-10, 10:-10] = True
        assert aepe(gt, flow, interior) < 0.5

    def test_paper_style_transform(self):
        from semshare.synth import flow_sample_from_params

        img = Image(value_noise((256, 256), 5)[None])
        warped, gt, mask = flow_sample_from_params(img, 1.03, 4.0, -6.0, 2.0)
        flow = estimate_flow(warped, img)
        crop = np.zeros((256, 256), bool)
        crop[25:-25, 25:-25] = True
        assert aepe(gt, flow, crop & mask) < 1.0

    def test_global_offset_invariance_bitwise(self):
        rng = np.random.default_rng(6)
        # dyadic values keep the +0.25 offset exact in float64
        quantized = np.floor(value_noise((64, 64), 6) * 256.0) / 1024.0
        shift = np.zeros_like(quantized)
        shift[:, :-3] = quantized[:, 3:]
        shift[:, -3:] = quantized[:, -3:]
        a, b = Image(quantized[None]), Image(shift[None])
        base = estimate_flow(b, a)
        offset = estimate_flow(Image(shift[None] + 0.25), Image(quantized[None] + 0.25))
        assert np.array_equal(base.data, offset.data)

    def test_halving_halves_flow(self):
        from semshare.flow import _downsample

        w = h = 128
        big = value_noise((w + 16, h + 16), 7, octaves=((32, 0.6), (16, 0.4)))
        source = big[8 : 8 + h, 8 : 8 + w]
        target = big[8 : 8 + h, 14 : 14 + w]  # 6 px shift
        full_flow = estimate_flow(Image(target[None]), Image(source[None]))
        half_flow = estimate_flow(
            Image(np.clip(_downsample(target), 0, 1)[None]),
            Image(np.clip(_downsample(source), 0, 1)[None]),
        )
        interior = np.zeros((h, w), bool)
        interior[12:-12, 12:-12] = True
        interior_half = np.zeros((h // 2, w // 2), bool)
        interior_half[6:-6, 6:-6] = True
        full_mag = np.hypot(full_flow.dx, full_flow.dy)[interior].mean()
        half_mag = np.hypot(half_flow.dx, half_flow.dy)[interior_half].mean()
        assert abs(half_mag - full_mag / 2.0) / (full_mag / 2.0) < 0.2

    def test_energy_monotone_at_coarsest_level(self):
        for seed in range(5):
            base = value_noise((96, 96), 100 + seed)
            shifted = np.zeros_like(base)
            shifted[:, :-2] = base[:, 2:]
            shifted[:, -2:] = base[:, -2:]
            _, diag = estimate_flow_detailed(
                Image(shifted[None]), Image(base[None]), FlowConfig()
            )
            energies = diag.coarsest_energies
            assert len(energies) == FlowConfig().iterations_per_level + 1
            for before, after in zip(energies, energies[1:]):
                assert after <= before * (1.0 + 1e-9)

    def test_plain_estimate_evaluates_no_objective(self, monkeypatch):
        """estimate_flow records no diagnostics, and its flow is the
        detailed estimate's, byte for byte."""
        base = value_noise((80, 64), 17)
        target, source = Image(base[1:-2, 2:][None]), Image(base[:-3, :-2][None])
        want, diag = estimate_flow_detailed(target, source, FlowConfig())
        assert len(diag.coarsest_energies) == FlowConfig().iterations_per_level + 1

        def forbidden(*args):
            raise AssertionError("estimate_flow evaluated the objective")

        monkeypatch.setattr(flow, "_objective", forbidden)
        got = estimate_flow(target, source)
        assert np.abs(got.data).max() > 0.1
        assert got.data.tobytes() == want.data.tobytes()

    def test_size_mismatch_rejected(self):
        a = Image(np.zeros((1, 32, 32)))
        b = Image(np.zeros((1, 32, 33)))
        with pytest.raises(DimensionError):
            estimate_flow(a, b)

    def test_too_small_rejected(self):
        img = Image(np.zeros((1, 8, 8)))
        with pytest.raises(ConfigError):
            estimate_flow(img, img)

    def test_rgb_converted_by_luma(self):
        rng = np.random.default_rng(8)
        rgb = Image(rng.random((3, 48, 48)))
        luma = to_gray(rgb)
        flow_rgb = estimate_flow(rgb, rgb)
        flow_gray = estimate_flow(Image(luma[None]), Image(luma[None]))
        assert np.array_equal(flow_rgb.data, flow_gray.data)


def noise_pair(size, channels, seed):
    """(target, source): the source shifted by (2, 1) px, plus a slight
    channel-dependent tint for RGB."""
    w, h = size
    big = value_noise((w + 4, h + 4), seed)
    planes_s = [big[2 : 2 + h, 2 : 2 + w]]
    planes_t = [big[3 : 3 + h, 4 : 4 + w]]
    for k in range(1, channels):
        planes_s.append(planes_s[0] * (1.0 - 0.2 * k))
        planes_t.append(planes_t[0] * (1.0 - 0.2 * k))
    return Image(np.stack(planes_t)), Image(np.stack(planes_s))


BAND_CASES = pytest.mark.parametrize(
    "size, channels, levels, band_pixels",
    [
        # 32-row bands: 100 = 3 * 32 + 4 rows, then a 50-row level
        # shorter than its 64-row band
        ((384, 100), 1, 4, None),
        # odd height, every level shorter than one band
        ((96, 97), 3, 5, None),
        # a row wider than the band constant: 1-row bands
        ((12_300, 16), 1, 4, None),
        ((40, 45), 3, 4, 30),
        # 7-row bands, 45 = 6 * 7 + 3, then 23 = 3 * 7 + 2
        ((40, 45), 1, 4, 280),
    ],
    ids=["32-row-bands", "odd-height-rgb", "wider-than-band", "1-row-bands-rgb", "7-row-bands"],
)


class TestBandedSweep:
    """The banded, double-buffered sweep gives the plain Jacobi loop's
    flows and energies byte for byte, in the float32 of the solve and with
    the solve dtype set to float64."""

    @BAND_CASES
    def test_matches_reference_loop_bytewise(
        self, monkeypatch, size, channels, levels, band_pixels
    ):
        assert flow._SOLVE_DTYPE is np.float32
        self.check_bytewise(monkeypatch, size, channels, levels, band_pixels)

    @BAND_CASES
    def test_float64_matches_reference_loop_bytewise(
        self, monkeypatch, size, channels, levels, band_pixels
    ):
        monkeypatch.setattr(flow, "_SOLVE_DTYPE", np.float64)
        self.check_bytewise(monkeypatch, size, channels, levels, band_pixels)

    @staticmethod
    def check_bytewise(monkeypatch, size, channels, levels, band_pixels):
        if band_pixels is not None:
            monkeypatch.setattr(raster, "_BAND_PIXELS", band_pixels)
        target, source = noise_pair(size, channels, seed=sum(size) + channels)
        cfg = FlowConfig(num_levels=levels)
        got, got_diag = estimate_flow_detailed(target, source, cfg)
        monkeypatch.setattr(flow, "_solve_level", reference_solve_level)
        want, want_diag = estimate_flow_detailed(target, source, cfg)
        assert np.abs(got.data).max() > 0.1
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array(got_diag.coarsest_energies).tobytes() == (
            np.array(want_diag.coarsest_energies).tobytes()
        )


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_increment_keeps_a_zero_border_and_no_negative_zero(self, monkeypatch, dtype):
        """The neighbor sums add the border's +0.0 for a missing neighbor,
        which keeps their bits only while the border stays zero and the
        increment holds no -0.0.  Flat patches (zero gradient, so a
        product that can be -0.0) keep exact zeros inside the raster."""
        monkeypatch.setattr(flow, "_SOLVE_DTYPE", dtype)
        monkeypatch.setattr(raster, "_BAND_PIXELS", 280)
        target, source = noise_pair((40, 45), 1, seed=17)
        t, s = target.data.copy(), source.data.copy()
        t[:, 8:30, 6:24], s[:, 8:30, 6:24] = 0.3, 0.7
        t[:, 30:42, 25:38], s[:, 30:42, 25:38] = 0.8, 0.2
        zeros = []
        sweep = flow._jacobi_sweep

        def probe(grad, it, counts, denom, d, d_next, scratch):
            sweep(grad, it, counts, denom, d, d_next, scratch)
            ring = np.ones(d_next.shape[1:], bool)
            ring[1:-1, 1:-1] = False
            assert not d_next[:, ring].any()
            assert not np.signbit(d_next[d_next == 0.0]).any()
            zeros.append(np.count_nonzero(d_next[:, 1:-1, 1:-1] == 0.0))

        monkeypatch.setattr(flow, "_jacobi_sweep", probe)
        cfg = FlowConfig(num_levels=2, iterations_per_level=10)
        estimate_flow(Image(t), Image(s), cfg)
        assert len(zeros) == 2 * 10
        assert zeros[0] > 0 and zeros[10] > 0


class TestFloat32Solve:
    """The solve runs in float32; the field it returns is float64 and stays
    within 1e-3 px of the same solve in float64."""

    def test_sweeps_see_float32_and_the_result_is_float64(self, monkeypatch):
        seen = []
        sweep = flow._jacobi_sweep

        def probe(*args):
            seen.append({a.dtype for a in args})
            return sweep(*args)

        monkeypatch.setattr(flow, "_jacobi_sweep", probe)
        target, source = noise_pair((64, 64), 3, seed=13)
        cfg = FlowConfig(num_levels=3, iterations_per_level=4)
        result, diag = estimate_flow_detailed(target, source, cfg)
        assert len(seen) == 3 * 4
        assert all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
        assert result.data.dtype == np.float64
        assert all(type(e) is float for e in diag.coarsest_energies)
        assert estimate_flow(target, source, cfg).data.dtype == np.float64

    @staticmethod
    def max_gap_to_float64(monkeypatch, solve):
        single = solve()
        monkeypatch.setattr(flow, "_SOLVE_DTYPE", np.float64)
        double = solve()
        assert np.abs(double.data).max() > 1.0
        return np.abs(single.data - double.data).max()

    @pytest.mark.parametrize("seed", [701, 702, 703])
    def test_scene_flow_near_float64(self, monkeypatch, seed):
        from semshare.synth import make_scene, render_scene

        scene = make_scene(seed, size=(384, 384), planar=False)
        pair = render_scene(scene)

        def solve():
            return two_stage_map_detailed(scene.rig, pair.wide_image, pair.narrow_image)[3]

        assert self.max_gap_to_float64(monkeypatch, solve) < 1e-3

    @pytest.mark.parametrize("seed", [711, 712])
    def test_flow_sample_near_float64(self, monkeypatch, seed):
        from semshare.synth import RandomTransformSpec, gen_flow_sample, texture_image

        img = texture_image((256, 256), seed)
        warped, _, _ = gen_flow_sample(img, RandomTransformSpec(seed=seed))

        def solve():
            return estimate_flow(warped, img, FlowConfig(num_levels=5))

        assert self.max_gap_to_float64(monkeypatch, solve) < 1e-3


def identity_rig(size=(96, 96)):
    k = Intrinsics(fx=96.0, fy=96.0, cx=(size[0] - 1) / 2, cy=(size[1] - 1) / 2)
    return CameraRig(
        cam_narrow=k,
        cam_wide=k,
        rotation_wide_to_narrow=Rotation3.identity(),
        image_size_narrow=size,
        image_size_wide=size,
    )


class TestTwoStageMap:
    def test_degenerate_rig_is_near_identity(self):
        rig = identity_rig()
        img = Image(value_noise((96, 96), 9)[None])
        grid = two_stage_map(rig, img, img)
        xs, ys = np.meshgrid(np.arange(96.0), np.arange(96.0))
        dev = np.hypot(grid.sx - xs, grid.sy - ys)[grid.valid]
        assert dev.mean() < 0.1

    def test_size_checked_against_rig(self):
        rig = identity_rig()
        img = Image(value_noise((64, 64), 10)[None])
        with pytest.raises(DimensionError):
            two_stage_map(rig, img, img)

    def test_full_footprint_solves_the_whole_raster(self):
        from semshare.synth import make_scene, render_scene

        scene = make_scene(6000, size=(128, 128), planar=False)
        pair = render_scene(scene)
        _, grid1, stage1, residual = two_stage_map_detailed(
            scene.rig, pair.wide_image, pair.narrow_image
        )
        assert grid1.valid.all()
        want = estimate_flow(pair.narrow_image, stage1)
        assert residual.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("num_levels", [4, 5])
    def test_backward_flow_is_solved_on_the_footprint_box(self, num_levels):
        from semshare.synth import make_scene, render_scene

        scene = make_scene(6001, size=(192, 192), planar=False)
        pair = render_scene(scene)
        cfg = FlowConfig(num_levels=num_levels)
        _, grid1, stage1, residual = two_stage_map_detailed(
            scene.rig.swapped(), pair.narrow_image, pair.wide_image, cfg
        )
        s = 2 ** (num_levels - 1)
        rows, cols = raster._valid_box(grid1.valid, s, cfg.min_level_size)
        h, w = grid1.valid.shape
        rows_hit, cols_hit = grid1.valid.any(axis=1), grid1.valid.any(axis=0)
        for box, n, hits in ((rows, h, rows_hit), (cols, w, cols_hit)):
            assert box.start % s == 0
            assert box.stop % s == 0 or box.stop == n
            first, last = np.flatnonzero(hits)[[0, -1]]
            assert box.start <= max(first - s, 0) and box.stop >= min(last + 1 + s, n)
        assert rows.stop - rows.start < h and cols.stop - cols.start < w
        outside = np.ones((h, w), bool)
        outside[rows, cols] = False
        assert not residual.data[:, outside].any()
        crop = estimate_flow(
            Image(pair.wide_image.data[:, rows, cols]), Image(stage1.data[:, rows, cols]), cfg
        )
        assert residual.data[:, rows, cols].tobytes() == crop.data.tobytes()
        assert np.abs(crop.data).max() > 0.1

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_composition_matches_the_whole_raster_formula(self, direction):
        """The flow grid is restricted to the stage-one footprint before it
        is composed, so only the footprint's box is evaluated; the oracle
        composes the whole raster and then ANDs the stage-one validity."""
        from semshare.synth import make_scene, render_scene

        scene = make_scene(6000)
        pair = render_scene(scene)
        if direction == "forward":
            args = (scene.rig, pair.wide_image, pair.narrow_image)
        else:
            args = (scene.rig.swapped(), pair.narrow_image, pair.wide_image)
        composed, grid1, _, residual = two_stage_map_detailed(*args)
        whole = compose_grids(grid_from_flow(residual), grid1)
        want = GridMap(whole.sx, whole.sy, whole.valid & grid1.valid, whole.source_size)
        for name in ("sx", "sy", "valid"):
            assert getattr(composed, name).tobytes() == getattr(want, name).tobytes()
        assert composed.valid.mean() > 0.2
        # backward, the footprint's box leaves most of the wide raster out
        assert grid1.valid.all() == (direction == "forward")

    @pytest.mark.parametrize(
        "cols, box_cols",
        [(slice(40, 42), (39, 55)), (slice(94, 96), (80, 96)), (slice(0, 1), (0, 16))],
    )
    def test_sliver_footprint_grows_to_min_level_size(self, monkeypatch, cols, box_cols):
        """With one level the pad is 1 px, so a 1-2 px wide footprint's box
        grows to min_level_size columns, inside the raster."""
        real_grid, real_estimate = flow.grid_from_homography, flow.estimate_flow
        solved = []

        def sliver_grid(*args):
            grid = real_grid(*args)
            valid = np.zeros(grid.valid.shape, bool)
            valid[10:60, cols] = True
            return GridMap(grid.sx, grid.sy, valid, grid.source_size)

        def spy(target, source, cfg=None):
            flow_field = real_estimate(target, source, cfg)
            solved.append(flow_field)
            return flow_field

        monkeypatch.setattr(flow, "grid_from_homography", sliver_grid)
        monkeypatch.setattr(flow, "estimate_flow", spy)
        img = Image(value_noise((96, 96), 9)[None])
        cfg = FlowConfig(num_levels=1, iterations_per_level=5)
        _, _, _, residual = two_stage_map_detailed(identity_rig(), img, img, cfg)
        assert [f.size for f in solved] == [(cfg.min_level_size, 52)]
        x0, x1 = box_cols
        assert residual.data[:, 9:61, x0:x1].tobytes() == solved[0].data.tobytes()
        assert not residual.data[:, :9].any() and not residual.data[:, 61:].any()
        assert not residual.data[:, :, :x0].any() and not residual.data[:, :, x1:].any()


class TestFlowColor:
    def test_output_shape_and_range(self):
        rng = np.random.default_rng(11)
        flow = FlowField(rng.standard_normal((2, 20, 30)))
        img = flow_to_color(flow)
        assert img.channels == 3 and img.size == (30, 20)

    def test_zero_flow_is_white(self):
        img = flow_to_color(FlowField.zero((8, 8)))
        assert np.allclose(img.data, 1.0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        flow = FlowField(rng.standard_normal((2, 10, 10)))
        a = flow_to_color(flow)
        b = flow_to_color(flow)
        assert np.array_equal(a.data, b.data)
