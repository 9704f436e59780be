import numpy as np
import pytest

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
)
from semshare.metrics import aepe
from semshare.raster import FlowField, Image


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
    """Pyramid level sizes, finest first, as the flow estimator reports them."""
    return estimate_flow_detailed(img, img, cfg)[1].level_sizes


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


class TestTwoStageMap:
    def test_degenerate_rig_is_near_identity(self):
        k = Intrinsics(fx=96.0, fy=96.0, cx=47.5, cy=47.5)
        rig = CameraRig(
            cam_narrow=k,
            cam_wide=k,
            rotation_wide_to_narrow=Rotation3.identity(),
            image_size_narrow=(96, 96),
            image_size_wide=(96, 96),
        )
        img = Image(value_noise((96, 96), 9)[None])
        grid = two_stage_map(rig, img, img)
        xs, ys = np.meshgrid(np.arange(96.0), np.arange(96.0))
        dev = np.hypot(grid.sx - xs, grid.sy - ys)[grid.valid]
        assert dev.mean() < 0.1

    def test_size_checked_against_rig(self):
        k = Intrinsics(fx=96.0, fy=96.0, cx=47.5, cy=47.5)
        rig = CameraRig(
            cam_narrow=k,
            cam_wide=k,
            rotation_wide_to_narrow=Rotation3.identity(),
            image_size_narrow=(96, 96),
            image_size_wide=(96, 96),
        )
        img = Image(value_noise((64, 64), 10)[None])
        with pytest.raises(DimensionError):
            two_stage_map(rig, img, img)


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
