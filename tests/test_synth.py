import numpy as np
import pytest

from semshare import raster, synth
from semshare.camera import homography_from_rig
from semshare.errors import ConfigError, DataError
from semshare.metrics import miou
from semshare.raster import Image, LabelMap, grid_from_flow, grid_from_homography, warp_labels, warp_raster
from semshare.synth import (
    Box,
    RandomTransformSpec,
    SynthScene,
    default_rig,
    degrade_scores,
    flow_sample_from_params,
    gen_flow_sample,
    make_scene,
    read_scene,
    render_scene,
    scene_from_text,
    scene_to_text,
    texture_image,
    write_scene,
)


class TestFlowSamples:
    def test_default_ranges(self):
        assert synth._FOCAL_RANGE == (0.95, 1.05)
        assert synth._MAX_TRANSLATION == 10.0
        assert synth._MAX_ROTATION_DEG == 5.0

    def test_degenerate_transform_is_identity(self):
        img = texture_image((64, 64), 1)
        warped, flow, mask = flow_sample_from_params(img, 1.0, 0.0, 0.0, 0.0)
        assert np.array_equal(warped.data, img.data)
        assert np.all(flow.data == 0.0)
        assert mask.all()

    def test_translation_backward_convention(self):
        # translation (10, 0): source = p + (10, 0), so dx = +10 everywhere
        img = texture_image((64, 64), 2)
        _, flow, mask = flow_sample_from_params(img, 1.0, 10.0, 0.0, 0.0)
        assert np.allclose(flow.dx, 10.0, atol=1e-12)
        assert np.allclose(flow.dy, 0.0, atol=1e-12)
        assert mask[:, : 64 - 10].all() and not mask[:, 64 - 10 :].any()

    def test_seeded_sampling_reproducible(self):
        img = texture_image((48, 48), 3)
        spec = RandomTransformSpec(seed=77)
        a = gen_flow_sample(img, spec)
        b = gen_flow_sample(img, spec)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)
        assert np.array_equal(a[2], b[2])

    def test_sampled_parameters_respect_ranges(self):
        img = texture_image((48, 48), 4)
        for seed in range(5):
            _, flow, _ = gen_flow_sample(img, RandomTransformSpec(seed=seed))
            # center pixel moves by at most the translation budget
            cy, cx = 24, 24
            assert abs(flow.dx[cy, cx]) <= 10.0 + 1.5
            assert abs(flow.dy[cy, cx]) <= 10.0 + 1.5

    def test_gt_flow_reproduces_warped_image(self):
        img = texture_image((64, 64), 5)
        warped, flow, mask = flow_sample_from_params(img, 1.03, 4.0, -6.0, 2.0)
        rewarped, _ = warp_raster(img, grid_from_flow(flow))
        diff = np.abs(rewarped.data - warped.data)[:, mask]
        assert diff.mean() < 1e-3


class TestSceneRendering:
    @pytest.mark.parametrize("size", [(95, 95), (96, 97), (97, 97)])
    def test_odd_heights_render_without_invalid_values(self, size):
        # an odd height puts one pixel row level with the horizon; the
        # ground hit of its rays must not reach the texture as inf or NaN
        # (the suite fails on the warnings that would raise)
        for seed in range(3):
            pair = render_scene(make_scene(seed, size=size))
            assert pair.narrow_image.size == size
            assert (pair.wide_labels.data == 1).any()

    def test_ground_only_identical_cameras_identity_grid(self):
        from semshare.camera import CameraRig, Rotation3

        wide_cam = default_rig((96, 96)).cam_wide
        rig_same = CameraRig(
            cam_narrow=wide_cam,
            cam_wide=wide_cam,
            rotation_wide_to_narrow=Rotation3.identity(),
            image_size_narrow=(96, 96),
            image_size_wide=(96, 96),
        )
        scene = SynthScene(
            rig=rig_same,
            baseline=(0.0, 0.0, 0.0),
            ground_height=1.5,
            ground_cell=0.7,
            boxes=(),
            texture_seed=9,
        )
        pair = render_scene(scene)
        assert pair.grid_to_narrow.valid.all()
        xs, ys = np.meshgrid(np.arange(96.0), np.arange(96.0))
        assert np.allclose(pair.grid_to_narrow.sx, xs, atol=1e-9)
        assert np.allclose(pair.grid_to_narrow.sy, ys, atol=1e-9)
        assert np.array_equal(pair.narrow_image.data, pair.wide_image.data)

    def test_box_rectangle_matches_hand_projection(self):
        rig = default_rig((128, 128), yaw_deg=0.0)
        box = Box(depth=6.0, x_center=0.0, width=1.2, height=1.5, class_id=3, texture_seed=1)
        scene = SynthScene(
            rig=rig,
            baseline=(0.0, 0.0, 0.0),
            ground_height=1.6,
            ground_cell=0.7,
            boxes=(box,),
            texture_seed=10,
        )
        pair = render_scene(scene)
        k = rig.cam_wide
        # hand pinhole projection of the box rectangle at depth 6
        u_min = k.fx * (-0.6) / 6.0 + k.cx
        u_max = k.fx * (0.6) / 6.0 + k.cx
        v_min = k.fy * (1.6 - 1.5) / 6.0 + k.cy
        v_max = k.fy * 1.6 / 6.0 + k.cy
        ys, xs = np.nonzero(pair.wide_labels.data == 3)
        assert abs(xs.min() - u_min) <= 1.0 and abs(xs.max() - u_max) <= 1.0
        assert abs(ys.min() - v_min) <= 1.0 and abs(ys.max() - v_max) <= 1.0

    def test_parallax_residual_on_box_pixels(self):
        scene = make_scene(123, planar=False)
        pair = render_scene(scene)
        h = homography_from_rig(scene.rig)
        grid_pt = grid_from_homography(h, scene.rig.image_size_narrow, scene.rig.image_size_wide)
        both = pair.grid_to_narrow.valid & grid_pt.valid
        residual = np.hypot(
            pair.grid_to_narrow.sx - grid_pt.sx, pair.grid_to_narrow.sy - grid_pt.sy
        )
        baseline = scene.baseline[0]
        # residuals live in wide-image pixels, so the wide focal applies
        fx = scene.rig.cam_wide.fx
        for box in scene.boxes:
            pixels = (pair.narrow_labels.data == box.class_id) & both
            if pixels.sum() < 50:
                continue
            # analytic lateral parallax of a fronto-parallel plane at depth d
            expected = fx * baseline / box.depth
            measured = residual[pixels].mean()
            assert measured == pytest.approx(expected, rel=0.35)
            assert measured > 0.5
        background = (pair.narrow_labels.data == 0) & both
        assert residual[background].mean() < 1e-6

    def test_gt_grid_transports_labels_exactly(self):
        scene = make_scene(124, planar=False)
        pair = render_scene(scene)
        warped, mask = warp_labels(pair.wide_labels, pair.grid_to_narrow)

        def interior_uniform(label_map):
            d = label_map.data
            ok = np.zeros_like(d, dtype=bool)
            core = np.ones((d.shape[0] - 2, d.shape[1] - 2), dtype=bool)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    core &= (
                        d[1 + dy : d.shape[0] - 1 + dy, 1 + dx : d.shape[1] - 1 + dx]
                        == d[1:-1, 1:-1]
                    )
            ok[1:-1, 1:-1] = core
            return ok

        region = mask & interior_uniform(pair.narrow_labels) & interior_uniform(warped)
        assert region.sum() > 1000
        assert np.array_equal(warped.data[region], pair.narrow_labels.data[region])

    def test_every_class_present_in_both_views(self):
        for seed in (200, 201, 202):
            pair = render_scene(make_scene(seed, planar=False))
            for labels in (pair.narrow_labels, pair.wide_labels):
                counts = np.bincount(labels.data.ravel(), minlength=6)
                assert (counts > 0).all()

    def test_planar_scene_has_no_boxes(self):
        scene = make_scene(300, planar=True)
        assert scene.boxes == ()
        pair = render_scene(scene)
        assert set(np.unique(pair.narrow_labels.data)) <= {0, 1}

    def test_invisible_box_rejected(self):
        rig = default_rig((64, 64))
        with pytest.raises(ConfigError):
            SynthScene(
                rig=rig,
                baseline=(0.1, 0.0, 0.0),
                ground_height=1.5,
                ground_cell=0.7,
                boxes=(Box(depth=2.0, x_center=5.0, width=1.0, height=1.0, class_id=2, texture_seed=0),),
                texture_seed=0,
            )

    def test_negative_texture_seeds_rejected(self):
        scene = make_scene(301)
        with pytest.raises(ConfigError):
            Box(depth=6.0, x_center=0.0, width=1.2, height=1.5, class_id=3, texture_seed=-1)
        with pytest.raises(ConfigError):
            SynthScene(
                rig=scene.rig,
                baseline=scene.baseline,
                ground_height=scene.ground_height,
                ground_cell=scene.ground_cell,
                boxes=scene.boxes,
                texture_seed=-1,
            )


def views(scene):
    """(camera, size, world-to-camera rotation, centre) of the wide and the
    narrow camera of a scene."""
    rig = scene.rig
    return {
        "wide": (rig.cam_wide, rig.image_size_wide, np.eye(3), np.zeros(3)),
        "narrow": (
            rig.cam_narrow,
            rig.image_size_narrow,
            rig.rotation_wide_to_narrow.r,
            np.asarray(scene.baseline, dtype=float),
        ),
    }


def project_into(scene, view, other):
    """Hand pinhole projection of `view`'s ray-cast hit points (background:
    ray directions) into camera `other`: (u, v, in front and in bounds,
    distance of each hit point from `other`'s centre, inf for background)."""
    cams = views(scene)
    points, dirs = synth._render_view(scene, *cams[view])[2:]
    cam, (w, h), rotation, center = cams[other]
    finite = np.isfinite(points[2])
    rel = np.where(finite, points - center[:, None, None], dirs)
    x, y, z = np.einsum("ij,jhw->ihw", rotation, rel)
    front = z > 1e-9
    z = np.where(front, z, 1.0)
    u = (cam.fx * x + cam.skew * y) / z + cam.cx
    v = cam.fy * y / z + cam.cy
    tol = 1e-6
    in_bounds = front & (u >= -tol) & (u <= w - 1 + tol) & (v >= -tol) & (v <= h - 1 + tol)
    distance = np.where(finite, np.sqrt((rel * rel).sum(axis=0)), np.inf)
    return np.clip(u, 0, w - 1), np.clip(v, 0, h - 1), in_bounds, distance


GRIDS = (("grid_to_narrow", "narrow", "wide"), ("grid_to_wide", "wide", "narrow"))


class TestCorrespondenceVisibility:
    """A grid's validity marks exactly the pixels whose surface point the
    other camera sees: in front of it, inside its raster, not occluded."""

    @pytest.mark.parametrize("seed", [6000, 6001, 6002])
    def test_planar_validity_equals_in_bounds(self, seed):
        # nothing can occlude in a scene of ground and background alone
        scene = make_scene(seed, planar=True)
        pair = render_scene(scene)
        for name, view, other in GRIDS:
            u, v, in_bounds, _ = project_into(scene, view, other)
            grid = getattr(pair, name)
            assert np.array_equal(grid.valid, in_bounds), name
            assert np.allclose(grid.sx[in_bounds], u[in_bounds], rtol=0.0, atol=1e-9)
            assert np.allclose(grid.sy[in_bounds], v[in_bounds], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", [6000, 6001])
    def test_only_box_hidden_pixels_are_invalid(self, seed):
        # a nearer box hides ground, background and parts of farther boxes
        # (seed 6000: the barrier hides an edge of the car from the wide
        # camera); in-bounds pixels nothing hides stay valid
        scene = make_scene(seed, planar=False)
        pair = render_scene(scene)
        cams = views(scene)
        for name, view, other in GRIDS:
            u, v, in_bounds, distance = project_into(scene, view, other)
            _, (w, h), _, center = cams[other]
            other_points = synth._render_view(scene, *cams[other])[2]
            other_labels = getattr(pair, f"{other}_labels").data
            other_distance = np.sqrt(((other_points - center[:, None, None]) ** 2).sum(axis=0))
            # the other camera's 2x2 pixel neighbourhood around each projection
            x0, y0 = np.floor(u).astype(int), np.floor(v).astype(int)
            corners = [
                (yy, xx)
                for yy in (y0, np.minimum(y0 + 1, h - 1))
                for xx in (x0, np.minimum(x0 + 1, w - 1))
            ]
            # each box has its own class, and a flat box cannot hide itself
            own_labels = getattr(pair, f"{view}_labels").data
            nearer_box = [
                (other_labels[yy, xx] >= 2)
                & (other_labels[yy, xx] != own_labels)
                & (other_distance[yy, xx] < distance)
                for yy, xx in corners
            ]
            same_box = np.logical_and.reduce(
                [other_labels[yy, xx] == other_labels[corners[0]] for yy, xx in corners]
            )
            hidden = in_bounds & ~getattr(pair, name).valid
            assert (own_labels[hidden] == 1).sum() > 20, name
            assert np.logical_or.reduce(nearer_box)[hidden].all(), name
            # a point whose whole neighbourhood is one nearer box is hidden
            covered = in_bounds & same_box & np.logical_and.reduce(nearer_box)
            assert covered.any() and hidden[covered].all(), name

    def test_ground_hides_background_from_a_camera_in_front(self):
        # the narrow camera stands 2 m behind the wide one, where the ground
        # (z > 0 only) has not begun: below the horizon it sees background
        # that the wide camera sees as ground
        from semshare.camera import CameraRig, Rotation3

        cam = default_rig((96, 96)).cam_wide
        rig = CameraRig(
            cam_narrow=cam,
            cam_wide=cam,
            rotation_wide_to_narrow=Rotation3.identity(),
            image_size_narrow=(96, 96),
            image_size_wide=(96, 96),
        )
        scene = SynthScene(
            rig=rig,
            baseline=(0.0, 0.0, -2.0),
            ground_height=1.5,
            ground_cell=0.7,
            boxes=(),
            texture_seed=9,
        )
        pair = render_scene(scene)
        _, _, in_bounds, _ = project_into(scene, "narrow", "wide")
        below = (np.arange(96) > cam.cy)[:, None]
        hidden = below & (pair.narrow_labels.data == 0)
        assert hidden.sum() > 96 and in_bounds[hidden].all()
        assert np.array_equal(pair.grid_to_narrow.valid, in_bounds & ~hidden)

    def test_identical_cameras_with_boxes_stay_fully_valid(self):
        from semshare.camera import CameraRig, Rotation3

        wide_cam = default_rig((96, 96)).cam_wide
        rig_same = CameraRig(
            cam_narrow=wide_cam,
            cam_wide=wide_cam,
            rotation_wide_to_narrow=Rotation3.identity(),
            image_size_narrow=(96, 96),
            image_size_wide=(96, 96),
        )
        scene = SynthScene(
            rig=rig_same,
            baseline=(0.0, 0.0, 0.0),
            ground_height=1.5,
            ground_cell=0.7,
            boxes=make_scene(6000, size=(96, 96)).boxes,
            texture_seed=9,
        )
        pair = render_scene(scene)
        assert (pair.wide_labels.data >= 2).any()
        xs, ys = np.meshgrid(np.arange(96.0), np.arange(96.0))
        for grid in (pair.grid_to_narrow, pair.grid_to_wide):
            assert grid.valid.all()
            assert np.allclose(grid.sx, xs, atol=1e-9)
            assert np.allclose(grid.sy, ys, atol=1e-9)


class TestDegradeScores:
    def test_clean_settings_recover_labels(self):
        rng = np.random.default_rng(20)
        gt = LabelMap(rng.integers(0, 6, (32, 32)).astype(np.int32), 6)
        scores = degrade_scores(gt, sigma=0.0, blur=0, seed=0)
        assert np.array_equal(scores.argmax_labels().data, gt.data)
        report = miou(scores.argmax_labels(), gt, np.ones((32, 32), bool), 6)
        assert report.mean_iou == 1.0

    def test_heavy_noise_approaches_chance_level(self):
        # balanced ground truth: six vertical stripes
        w = h = 132
        gt_data = (np.arange(w)[None, :] * 6 // w).astype(np.int32)
        gt = LabelMap(np.tile(gt_data, (h, 1)), 6)
        scores = degrade_scores(gt, sigma=6.0, blur=0, seed=21)
        measured = miou(scores.argmax_labels(), gt, np.ones((h, w), bool), 6).mean_iou

        # Monte-Carlo oracle over the same noise model, different seed
        rng = np.random.default_rng(9999)
        sim_scores = gt.one_hot().data + 6.0 * rng.standard_normal((6, h, w))
        sim_pred = LabelMap(np.argmax(sim_scores, axis=0).astype(np.int32), 6)
        oracle = miou(sim_pred, gt, np.ones((h, w), bool), 6).mean_iou

        assert measured == pytest.approx(oracle, abs=0.03)
        assert abs(measured - 1.0 / 6.0) <= 0.1

    def test_blur_softens_boundaries(self):
        gt = LabelMap(np.repeat(np.array([[0, 0, 1, 1]], dtype=np.int32), 4, axis=0), 2)
        scores = degrade_scores(gt, sigma=0.0, blur=1, seed=0)
        # scores at the boundary mix both classes but interiors stay crisp
        assert 0.0 < scores.data[0, 0, 2] < 1.0
        assert scores.data[0, 0, 0] == 1.0

    def test_seeded_reproducibility(self):
        gt = LabelMap(np.zeros((8, 8), dtype=np.int32), 3)
        a = degrade_scores(gt, sigma=0.5, seed=5)
        b = degrade_scores(gt, sigma=0.5, seed=5)
        assert np.array_equal(a.data, b.data)

    def test_parameter_validation(self):
        gt = LabelMap(np.zeros((4, 4), dtype=np.int32), 3)
        with pytest.raises(ConfigError):
            degrade_scores(gt, sigma=-1.0)
        with pytest.raises(ConfigError):
            degrade_scores(gt, blur=-1)


class TestSceneFiles:
    def test_roundtrip(self, tmp_path):
        scene = make_scene(42, planar=False)
        path = tmp_path / "scene.txt"
        write_scene(scene, path)
        back = read_scene(path)
        assert back == scene
        # deterministic re-render
        a = render_scene(scene)
        b = render_scene(back)
        assert np.array_equal(a.narrow_image.data, b.narrow_image.data)
        assert np.array_equal(a.grid_to_narrow.sx, b.grid_to_narrow.sx)

    def test_text_is_stable(self):
        scene = make_scene(43, planar=True)
        assert scene_to_text(scene) == scene_to_text(scene_from_text(scene_to_text(scene)))

    def test_malformed_box_rejected(self):
        scene = make_scene(44, planar=True)
        with pytest.raises(DataError):
            scene_from_text(scene_to_text(scene) + "box 1.0 2.0\n")

    @pytest.mark.parametrize("line", ["baseline 0.1 0.0 0.0", "wide.size 96 96"])
    def test_repeated_key_rejected(self, line):
        scene = make_scene(45, planar=True)
        with pytest.raises(DataError, match="repeats key"):
            scene_from_text(scene_to_text(scene) + line + "\n")

    def test_unknown_key_rejected(self):
        scene = make_scene(45, planar=True)
        with pytest.raises(DataError):
            scene_from_text(scene_to_text(scene) + "wibble 3\n")


class TestTexture:
    def test_deterministic(self):
        a = texture_image((32, 32), 7)
        b = texture_image((32, 32), 7)
        assert np.array_equal(a.data, b.data)

    def test_spans_unit_range(self):
        img = texture_image((64, 64), 8)
        assert img.data.min() == 0.0 and img.data.max() == 1.0


def value_noise_oracle(xs, ys, seed, scale):
    """value_noise with the lattice corners read by 2-D indexing."""
    lattice = np.random.default_rng(seed).random((64, 64))
    gx = np.asarray(xs, dtype=float) / scale
    gy = np.asarray(ys, dtype=float) / scale
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    fx = gx - x0
    fy = gy - y0
    fx = fx * fx * (3.0 - 2.0 * fx)
    fy = fy * fy * (3.0 - 2.0 * fy)
    x0 %= 64
    y0 %= 64
    x1 = (x0 + 1) % 64
    y1 = (y0 + 1) % 64
    top = (1.0 - fx) * lattice[y0, x0] + fx * lattice[y0, x1]
    bot = (1.0 - fx) * lattice[y1, x0] + fx * lattice[y1, x1]
    return (1.0 - fy) * top + fy * bot


def render_view_oracle(scene, cam, size, rotation, center):
    """synth._render_view with whole-raster shading: every surface and the
    background are shaded on every pixel, and np.where keeps the nearest."""
    w, h = size
    dirs = synth._view_rays(cam, size, rotation)
    dx, dy, dz = dirs

    t_hit = np.full((h, w), np.inf)
    labels = np.zeros((h, w), dtype=np.int32)
    intensity = np.empty((h, w))

    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    bg_noise = value_noise_oracle(dx / norm * 64.0, dy / norm * 64.0, scene.texture_seed + 17, 9.0)
    intensity[:] = 0.55 + 0.3 * (bg_noise - 0.5)

    t_ground, gx, gz, ground_ok = synth._ground_hit(scene, center, dirs)
    checker = ((np.floor(gx / scene.ground_cell) + np.floor(gz / scene.ground_cell)) % 2.0) * 2.0 - 1.0
    fade = 1.0 / (1.0 + np.maximum(gz, 0.0) / 25.0)
    g_noise = value_noise_oracle(gx * 4.0, gz * 4.0, scene.texture_seed + 29, 3.0)
    ground_val = 0.5 + 0.17 * checker * fade + 0.12 * (g_noise - 0.5)
    place = ground_ok & (t_ground < t_hit)
    t_hit = np.where(place, t_ground, t_hit)
    labels = np.where(place, 1, labels)
    intensity = np.where(place, ground_val, intensity)

    for box in scene.boxes:
        t_box, bx, by, on_box = synth._box_hit(scene, box, center, dirs)
        inside = (dz > synth._EPS) & on_box
        base = 0.35 + 0.4 * np.random.default_rng(box.texture_seed).random()
        b_noise = value_noise_oracle(bx * 24.0, by * 24.0, box.texture_seed + 41, 5.0)
        box_val = base + 0.24 * (b_noise - 0.5)
        place = inside & (t_box < t_hit)
        t_hit = np.where(place, t_box, t_hit)
        labels = np.where(place, box.class_id, labels)
        intensity = np.where(place, box_val, intensity)

    finite = np.isfinite(t_hit)
    t_safe = np.where(finite, t_hit, 0.0)
    points = np.where(finite, np.reshape(center, (3, 1, 1)) + t_safe * dirs, np.inf)
    image = Image(np.clip(intensity, 0.0, 1.0)[None])
    return image, LabelMap(labels, scene.num_classes), points, dirs


def overlap_scene():
    """Boxes that overdraw one another in the wide view, out of depth
    order; two of them stand at the same depth, where the first one drawn
    keeps the pixels."""
    boxes = (
        Box(depth=8.0, x_center=0.3, width=2.0, height=1.4, class_id=3, texture_seed=11),
        Box(depth=5.0, x_center=0.0, width=1.5, height=1.2, class_id=2, texture_seed=12),
        Box(depth=5.0, x_center=0.4, width=1.2, height=1.0, class_id=4, texture_seed=13),
        Box(depth=6.5, x_center=-0.5, width=1.6, height=1.3, class_id=5, texture_seed=14),
    )
    return SynthScene(
        rig=default_rig((160, 120), yaw_deg=1.0),
        baseline=(0.12, 0.0, 0.0),
        ground_height=1.5,
        ground_cell=0.7,
        boxes=boxes,
        texture_seed=3,
    )


class TestPlacedShading:
    """The renderer shades each surface only where it is placed; its
    output is byte for byte that of whole-raster shading."""

    def assert_matches_oracle(self, monkeypatch, scene):
        got = render_scene(scene)
        with monkeypatch.context() as m:
            m.setattr(synth, "_render_view", render_view_oracle)
            want = render_scene(scene)
        for name in ("wide_image", "narrow_image", "wide_labels", "narrow_labels"):
            a, b = getattr(got, name).data, getattr(want, name).data
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for name in ("grid_to_narrow", "grid_to_wide"):
            for plane in ("sx", "sy", "valid"):
                a, b = getattr(getattr(got, name), plane), getattr(getattr(want, name), plane)
                assert a.tobytes() == b.tobytes(), (name, plane)

    @pytest.mark.parametrize("planar", [False, True])
    @pytest.mark.parametrize("size", [(192, 192), (384, 384), (640, 480), (97, 61)])
    def test_matches_whole_raster_shading(self, monkeypatch, size, planar):
        for seed in range(6000, 6004):
            self.assert_matches_oracle(monkeypatch, make_scene(seed, size=size, planar=planar))

    def test_matches_whole_raster_shading_where_boxes_overdraw(self, monkeypatch):
        # at any band size: 1-row bands at 1 pixel, 6-row ones at 1000
        scene = overlap_scene()
        rig = scene.rig
        dirs = synth._view_rays(rig.cam_wide, rig.image_size_wide, np.eye(3))
        covered = sum(
            synth._box_hit(scene, box, np.zeros(3), dirs)[3].astype(int) for box in scene.boxes
        )
        assert (covered >= 3).any()
        for band_pixels in (1, 1000, raster._BAND_PIXELS):
            with monkeypatch.context() as m:
                m.setattr(raster, "_BAND_PIXELS", band_pixels)
                self.assert_matches_oracle(monkeypatch, scene)

    @pytest.mark.parametrize("planar", [False, True])
    def test_texture_samples_per_rendered_pixel(self, monkeypatch, planar):
        # whole-raster shading takes 6 samples per pixel with 4 boxes
        samples = []
        value_noise = synth.value_noise

        def counting(xs, ys, seed, scale):
            samples.append(np.size(xs))
            return value_noise(xs, ys, seed, scale)

        monkeypatch.setattr(synth, "value_noise", counting)
        pixels = 0
        for seed in range(6000, 6010):
            pair = render_scene(make_scene(seed, size=(192, 192), planar=planar))
            pixels += pair.wide_labels.data.size + pair.narrow_labels.data.size
        if planar:
            assert sum(samples) == pixels
        else:
            assert sum(samples) < 1.5 * pixels


class TestValueNoise:
    def test_flat_take_matches_2d_indexing(self):
        rng = np.random.default_rng(8)
        scale = 5.0
        wrap = 64 * scale
        xs = np.concatenate([
            rng.uniform(-3000.0, 3000.0, 4000),
            np.arange(-2 * wrap, 2 * wrap + 1, scale),  # lattice points and the wrap
            [0.0, -0.0, wrap, -wrap, 7 * wrap, 1e9, -1e9, 2.5e12, -2.5e12],
        ])
        ys = np.roll(xs, 17) * -1.0
        got = synth.value_noise(xs, ys, 41, scale)
        assert got.tobytes() == value_noise_oracle(xs, ys, 41, scale).tobytes()
        assert got.min() >= 0.0 and got.max() <= 1.0
        grid_x, grid_y = np.meshgrid(xs[:50], ys[:40])
        assert (
            synth.value_noise(grid_x, grid_y, 3, 9.0).tobytes()
            == value_noise_oracle(grid_x, grid_y, 3, 9.0).tobytes()
        )

    def test_empty_input_gives_an_empty_array(self):
        out = synth.value_noise(np.empty(0), np.empty(0), 17, 9.0)
        assert out.shape == (0,) and out.dtype == np.float64
