import numpy as np
import pytest

from semshare import raster
from semshare.errors import ConfigError, DimensionError, TrainingError
from semshare.fusion import (
    FusionHead,
    FusionVariant,
    TrainConfig,
    _forward_mat,
    fuse_backward,
    fuse_forward,
    identity_head,
    new_head,
    read_head,
    train_fusion,
    write_head,
)
from semshare.raster import LabelMap, ScoreMap

VARIANTS = ("basic", "residual", "bottleneck")


def random_maps(seed, c=3, h=4, w=4, mask_all=True):
    rng = np.random.default_rng(seed)
    propagated = ScoreMap(rng.standard_normal((c, h, w)))
    native = ScoreMap(rng.standard_normal((c, h, w)))
    mask = np.ones((h, w), bool) if mask_all else rng.random((h, w)) < 0.6
    return propagated, native, mask


def run_fd_check(kind, seed, c=3, size=4, per_param=6, eps=1e-4, tol=1e-4):
    """Central-difference gradient check for one seeded instance.

    Probes whose perturbation flips a ReLU activation sign are skipped:
    the analytic subgradient is exact there while the secant is not.
    Returns (number of coordinates checked, worst relative error).
    """
    from semshare.fusion import _forward_mat

    head = new_head(kind, c, seed=seed, init_scale=0.4)
    rng_maps = np.random.default_rng(seed + 100)
    propagated = ScoreMap(rng_maps.standard_normal((c, size, size)))
    native = ScoreMap(rng_maps.standard_normal((c, size, size)))
    mask = rng_maps.random((size, size)) < 0.7
    rng = np.random.default_rng(seed + 200)
    grad_out = rng.standard_normal((c, size, size))
    grads, _ = fuse_backward(head, propagated, native, mask, grad_out)
    x = np.concatenate([propagated.data, native.data], axis=0).reshape(2 * c, -1)

    relu_outputs = {"basic": (), "residual": ("z1",), "bottleneck": ("zd", "r")}[kind]

    def evaluate(h):
        ws = {}
        out = _forward_mat(kind, h.params, x, ws)
        pattern = tuple((ws[key] > 0.0).tobytes() for key in relu_outputs)
        value = float(np.sum(out.reshape(c, size, size) * grad_out * mask[None]))
        return value, pattern

    checked = 0
    worst = 0.0
    for name, analytic in grads.items():
        base = head.params[name]
        flat_size = base.size
        indices = rng.choice(flat_size, size=min(per_param, flat_size), replace=False)
        for i in indices:
            probe = np.zeros(flat_size)
            probe[i] = eps
            probe = probe.reshape(base.shape)
            plus, pat_plus = evaluate(head.replace_params({**head.params, name: base + probe}))
            minus, pat_minus = evaluate(head.replace_params({**head.params, name: base - probe}))
            if pat_plus != pat_minus:
                continue  # secant crosses a ReLU kink
            numeric = (plus - minus) / (2.0 * eps)
            a = analytic.reshape(-1)[i]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
            checked += 1
            assert rel < tol, f"{kind} {name}[{i}]: analytic {a} vs numeric {numeric}"
    return checked, worst


def forward_oracle(head, prop_vec, nat_vec):
    """Independent scalar forward evaluation with explicit matrix algebra."""
    p = head.params
    x = np.concatenate([prop_vec, nat_vec])
    if head.variant.kind == "basic":
        return p["w"] @ x + p["b"]
    if head.variant.kind == "residual":
        z1 = np.maximum(p["w1"] @ x + p["b1"], 0.0)
        a2 = p["w2"] @ z1 + p["b2"]
        s = p["ws"] @ x + p["bs"]
        return p["wc"] @ (a2 + s) + p["bc"]
    s = (p["wp"] @ prop_vec + p["bp"]) + (p["wn"] @ nat_vec + p["bn"])
    zd = np.maximum(p["wd"] @ s + p["bd"], 0.0)
    t = s + (p["wu"] @ zd + p["bu"])
    return p["wc"] @ np.maximum(t, 0.0) + p["bc"]


# Reference trainer: the allocate-everything channel-major SGD loop that the
# workspace trainer replaced, in float32 like train_fusion.  It keeps its own
# float32 parameter dict (FusionHead stores float64), and train_fusion must
# reproduce it bit for bit.


def reference_forward(kind, p, x):
    if kind == "basic":
        return p["w"] @ x + p["b"][:, None], {"x": x}
    if kind == "residual":
        a1 = p["w1"] @ x + p["b1"][:, None]
        z1 = np.maximum(a1, 0.0)
        a2 = p["w2"] @ z1 + p["b2"][:, None]
        s = p["ws"] @ x + p["bs"][:, None]
        r = a2 + s
        return p["wc"] @ r + p["bc"][:, None], {"x": x, "a1": a1, "z1": z1, "r": r}
    c = x.shape[0] // 2
    s = (p["wp"] @ x[:c] + p["bp"][:, None]) + (p["wn"] @ x[c:] + p["bn"][:, None])
    d = p["wd"] @ s + p["bd"][:, None]
    zd = np.maximum(d, 0.0)
    t = s + (p["wu"] @ zd + p["bu"][:, None])
    r = np.maximum(t, 0.0)
    y = p["wc"] @ r + p["bc"][:, None]
    return y, {"x": x, "s": s, "d": d, "zd": zd, "t": t, "r": r}


def reference_backward(kind, p, cache, gy):
    x = cache["x"]
    if kind == "basic":
        return {"w": gy @ x.T, "b": gy.sum(axis=1)}
    g = {"wc": gy @ cache["r"].T, "bc": gy.sum(axis=1)}
    if kind == "residual":
        gr = p["wc"].T @ gy
        g["w2"], g["b2"] = gr @ cache["z1"].T, gr.sum(axis=1)
        ga1 = (p["w2"].T @ gr) * (cache["a1"] > 0.0)
        g["w1"], g["b1"] = ga1 @ x.T, ga1.sum(axis=1)
        g["ws"], g["bs"] = gr @ x.T, gr.sum(axis=1)
        return g
    c = x.shape[0] // 2
    gt = (p["wc"].T @ gy) * (cache["t"] > 0.0)
    g["wu"], g["bu"] = gt @ cache["zd"].T, gt.sum(axis=1)
    gd = (p["wu"].T @ gt) * (cache["d"] > 0.0)
    g["wd"], g["bd"] = gd @ cache["s"].T, gd.sum(axis=1)
    gs = gt + p["wd"].T @ gd
    g["wp"], g["bp"] = gs @ x[:c].T, gs.sum(axis=1)
    g["wn"], g["bn"] = gs @ x[c:].T, gs.sum(axis=1)
    return g


def reference_train(head, dataset, cfg):
    c = head.num_classes
    xs, ys = [], []
    for propagated, native, mask, gt in dataset:
        x = np.concatenate([propagated.data, native.data], axis=0).reshape(2 * c, -1)
        xs.append(x[:, mask.reshape(-1)])
        ys.append(gt.data.reshape(-1)[mask.reshape(-1)])
    x_all, y_all = np.concatenate(xs, axis=1).astype(np.float32), np.concatenate(ys)
    n = x_all.shape[1]
    batch = max(1, int(round(cfg.batch_fraction * n)))
    rng = np.random.default_rng(cfg.seed)
    kind = head.variant.kind
    params = {name: arr.astype(np.float32) for name, arr in head.params.items()}
    losses = []
    for _ in range(cfg.iterations):
        idx = rng.integers(0, n, size=batch) if batch < n else np.arange(n)
        xb, yb = x_all[:, idx], y_all[idx]
        out, cache = reference_forward(kind, params, xb)
        m = out.max(axis=0)
        exp = np.exp(out - m[None])
        norm = exp.sum(axis=0)
        probs = exp / norm[None]
        cols = np.arange(xb.shape[1])
        losses.append(float(np.sum(np.log(norm) + m - out[yb, cols]) / xb.shape[1]))
        probs[yb, cols] -= 1.0
        grads = reference_backward(kind, params, cache, probs / xb.shape[1])
        params = {name: params[name] - cfg.learning_rate * grads[name] for name in params}
        assert all(arr.dtype == np.float32 for arr in params.values())
    return head.replace_params(params), losses


class TestForward:
    def test_identity_head_returns_native(self):
        propagated, native, mask = random_maps(0)
        out = fuse_forward(identity_head(3), propagated, native, mask)
        assert np.array_equal(out.data, native.data)

    def test_zero_weights_constant_bias(self):
        c = 3
        head = FusionHead(
            FusionVariant("basic", 0),
            c,
            {"w": np.zeros((c, 2 * c)), "b": np.array([1.0, -2.0, 0.5])},
        )
        propagated, native, mask = random_maps(1)
        out = fuse_forward(head, propagated, native, mask)
        for k, b in enumerate((1.0, -2.0, 0.5)):
            assert np.all(out.data[k][mask] == b)

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_matches_scalar_oracle(self, kind):
        head = new_head(kind, 3, seed=11, init_scale=0.5)
        propagated, native, mask = random_maps(2)
        out = fuse_forward(head, propagated, native, mask)
        for y in range(4):
            for x in range(4):
                expected = forward_oracle(head, propagated.data[:, y, x], native.data[:, y, x])
                assert np.max(np.abs(out.data[:, y, x] - expected)) < 1e-6

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_masked_pixels_pass_native_through(self, kind):
        head = new_head(kind, 3, seed=3)
        propagated, native, mask = random_maps(4, mask_all=False)
        out = fuse_forward(head, propagated, native, mask)
        assert np.array_equal(out.data[:, ~mask], native.data[:, ~mask])

    def test_per_pixel_permutation_equivariance(self):
        head = new_head("residual", 3, seed=5)
        propagated, native, mask = random_maps(6, h=2, w=6)
        rng = np.random.default_rng(7)
        perm = rng.permutation(12)
        out = fuse_forward(head, propagated, native, mask).data.reshape(3, -1)

        def permuted(sm):
            return ScoreMap(sm.data.reshape(3, -1)[:, perm].reshape(3, 2, 6))

        out_perm = fuse_forward(
            head, permuted(propagated), permuted(native), mask.reshape(-1)[perm].reshape(2, 6)
        ).data.reshape(3, -1)
        assert np.allclose(out_perm, out[:, perm], atol=0.0)

    def test_basic_is_linear_with_zero_bias(self):
        c = 3
        rng = np.random.default_rng(8)
        head = FusionHead(
            FusionVariant("basic", 0),
            c,
            {"w": rng.standard_normal((c, 2 * c)), "b": np.zeros(c)},
        )
        a_prop, a_nat, mask = random_maps(9)
        b_prop, b_nat, _ = random_maps(10)
        out_sum = fuse_forward(
            head,
            ScoreMap(a_prop.data + b_prop.data),
            ScoreMap(a_nat.data + b_nat.data),
            mask,
        )
        out_a = fuse_forward(head, a_prop, a_nat, mask)
        out_b = fuse_forward(head, b_prop, b_nat, mask)
        assert np.max(np.abs(out_sum.data - out_a.data - out_b.data)) < 1e-9

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_box_bands_match_a_whole_raster_evaluation(self, monkeypatch, kind):
        """fuse_forward evaluates only the box of the mask, in row bands of
        raster._BAND_PIXELS; every pixel keeps the bits of one _forward_mat
        over the whole raster at any band size.  The off-centre box is 15 x
        15: 1-row bands at 1 and 7 pixels, 6-row bands at 100 (the last
        one 3 rows), 7-row bands at 105 (the last one 1 row), one band at
        the default.  A lone valid pixel's box is grown to 2 x 2."""
        c, h, w = 6, 37, 53
        rng = np.random.default_rng(31)
        head = new_head(kind, c, seed=12, init_scale=0.5)
        propagated = ScoreMap(rng.standard_normal((c, h, w)))
        native = ScoreMap(rng.standard_normal((c, h, w)))
        x = np.concatenate([propagated.data, native.data]).reshape(2 * c, h * w)
        whole = _forward_mat(kind, head.params, x, {}).reshape(c, h, w)
        block = np.zeros((h, w), bool)
        block[5:20, 33:48] = rng.random((15, 15)) < 0.7
        block[[5, 19], [33, 47]] = True
        lone = np.zeros((h, w), bool)
        lone[36, 52] = True
        for band_pixels in (1, 7, 100, 105, raster._BAND_PIXELS):
            with monkeypatch.context() as m:
                m.setattr(raster, "_BAND_PIXELS", band_pixels)
                for mask in (block, lone):
                    got = fuse_forward(head, propagated, native, mask)
                    want = np.where(mask[None], whole, native.data)
                    assert got.data.tobytes() == want.tobytes()
                got = fuse_forward(head, propagated, native, np.zeros((h, w), bool))
                assert got.data.tobytes() == native.data.tobytes()

    def test_fused_scores_are_read_only_and_share_no_memory(self):
        head = new_head("residual", 3, seed=4)
        propagated, native, mask = random_maps(12, h=6, w=7, mask_all=False)
        out = fuse_forward(head, propagated, native, mask)
        assert not out.data.flags.writeable
        for other in (propagated.data, native.data, mask):
            assert not np.shares_memory(out.data, other)

    def test_shape_mismatch_rejected(self):
        head = new_head("basic", 3)
        propagated, native, mask = random_maps(11)
        with pytest.raises(DimensionError):
            fuse_forward(head, propagated, ScoreMap(np.zeros((3, 5, 5))), mask)
        with pytest.raises(DimensionError):
            fuse_forward(new_head("basic", 4), propagated, native, mask)


class TestBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        head = new_head("bottleneck", 3, seed=12)
        propagated, native, mask = random_maps(13)
        grads, (gp, gn) = fuse_backward(head, propagated, native, mask, np.zeros((3, 4, 4)))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(gp == 0.0) and np.all(gn == 0.0)

    def test_single_pixel_basic_hand_chain_rule(self):
        c = 2
        rng = np.random.default_rng(14)
        head = FusionHead(
            FusionVariant("basic", 0),
            c,
            {"w": rng.standard_normal((c, 2 * c)), "b": rng.standard_normal(c)},
        )
        propagated = ScoreMap(rng.standard_normal((c, 1, 1)))
        native = ScoreMap(rng.standard_normal((c, 1, 1)))
        g = rng.standard_normal((c, 1, 1))
        grads, _ = fuse_backward(head, propagated, native, np.ones((1, 1), bool), g)
        x = np.concatenate([propagated.data[:, 0, 0], native.data[:, 0, 0]])
        # hand chain rule: dW[i, j] = grad_out[i] * x[j]
        assert np.allclose(grads["w"], np.outer(g[:, 0, 0], x), atol=1e-12)
        assert np.allclose(grads["b"], g[:, 0, 0], atol=1e-12)

    def test_masked_pixels_contribute_no_gradient(self):
        head = new_head("residual", 3, seed=15)
        propagated, native, mask = random_maps(16, mask_all=False)
        grad_out = np.zeros((3, 4, 4))
        grad_out[:, ~mask] = 1.0  # only masked-out pixels carry gradient
        grads, (gp, gn) = fuse_backward(head, propagated, native, mask, grad_out)
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(gp == 0.0) and np.all(gn == 0.0)

    @pytest.mark.parametrize("kind", VARIANTS)
    @pytest.mark.parametrize("seed", [20, 21, 22, 23])
    def test_finite_difference_parameter_gradients(self, kind, seed):
        checked, _ = run_fd_check(kind, seed)
        assert checked > 0

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_finite_difference_input_gradients(self, kind):
        head = new_head(kind, 3, seed=30, init_scale=0.4)
        propagated, native, mask = random_maps(31)
        rng = np.random.default_rng(32)
        grad_out = rng.standard_normal((3, 4, 4))
        _, (gp, gn) = fuse_backward(head, propagated, native, mask, grad_out)
        eps = 1e-5
        for c, y, x in [(0, 1, 2), (2, 3, 0), (1, 0, 3)]:
            bump = np.zeros((3, 4, 4))
            bump[c, y, x] = eps
            plus = fuse_forward(head, ScoreMap(propagated.data + bump), native, mask)
            minus = fuse_forward(head, ScoreMap(propagated.data - bump), native, mask)
            numeric = float(np.sum((plus.data - minus.data) * grad_out * mask[None])) / (2 * eps)
            assert abs(gp[c, y, x] - numeric) < 1e-4 * max(1.0, abs(numeric))


class TestTraining:
    def make_dataset(self, seed, c=3, size=16):
        rng = np.random.default_rng(seed)
        gt = LabelMap(rng.integers(0, c, (size, size)).astype(np.int32), c)
        native = ScoreMap(2.0 * gt.one_hot().data + 0.3 * rng.standard_normal((c, size, size)))
        propagated = ScoreMap(rng.standard_normal((c, size, size)))
        mask = np.ones((size, size), bool)
        return [(propagated, native, mask, gt)]

    def test_informative_native_beats_noise_propagated(self):
        dataset = self.make_dataset(40)
        head = new_head("basic", 3, seed=41)
        cfg = TrainConfig(learning_rate=0.5, iterations=300, batch_fraction=1.0, seed=42)
        trained, losses = train_fusion(head, dataset, cfg)
        assert losses[-1] < losses[0]
        propagated, native, mask, gt = dataset[0]
        from semshare.metrics import miou

        fused = fuse_forward(trained, propagated, native, mask)
        miou_fused = miou(fused.argmax_labels(), gt, mask, 3).mean_iou
        miou_prop = miou(propagated.argmax_labels(), gt, mask, 3).mean_iou
        assert miou_fused >= miou_prop

    def test_single_pixel_monotone_descent(self):
        c = 2
        propagated = ScoreMap(np.array([0.5, -0.5]).reshape(c, 1, 1))
        native = ScoreMap(np.array([-1.0, 1.0]).reshape(c, 1, 1))
        gt = LabelMap(np.zeros((1, 1), dtype=np.int32), c)
        dataset = [(propagated, native, np.ones((1, 1), bool), gt)]
        head = new_head("basic", c, seed=43)
        cfg = TrainConfig(learning_rate=0.001, iterations=10, batch_fraction=1.0, seed=44)
        _, losses = train_fusion(head, dataset, cfg)
        # logistic loss on a single example is convex: small steps descend
        for before, after in zip(losses, losses[1:]):
            assert after <= before

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_seeded_training_is_bit_deterministic(self, kind):
        dataset = self.make_dataset(45)
        cfg = TrainConfig(learning_rate=0.05, iterations=40, batch_fraction=0.25, seed=46)
        a, la = train_fusion(new_head(kind, 3, seed=47), dataset, cfg)
        b, lb = train_fusion(new_head(kind, 3, seed=47), dataset, cfg)
        assert la == lb
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    @pytest.mark.parametrize("kind", VARIANTS)
    @pytest.mark.parametrize("batch_fraction", [0.3, 1.0])
    def test_matches_reference_trainer_bit_for_bit(self, kind, batch_fraction):
        rng = np.random.default_rng(54)
        dataset = []
        for h, w in ((9, 7), (6, 11)):
            gt = LabelMap(rng.integers(0, 3, (h, w)), 3)
            native = ScoreMap(2.0 * gt.one_hot().data + rng.standard_normal((3, h, w)))
            propagated = ScoreMap(rng.standard_normal((3, h, w)))
            dataset.append((propagated, native, rng.random((h, w)) < 0.6, gt))
        head = new_head(kind, 3, seed=55, init_scale=0.5)
        cfg = TrainConfig(learning_rate=0.3, iterations=25, batch_fraction=batch_fraction, seed=56)
        trained, losses = train_fusion(head, dataset, cfg)
        expected, expected_losses = reference_train(head, dataset, cfg)
        assert np.array_equal(losses, expected_losses)
        for name in head.params:
            assert np.array_equal(trained.params[name], expected.params[name]), name

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_results_share_no_memory_with_workspaces(self, kind, monkeypatch):
        from semshare import fusion

        # every parameter dict and workspace the kernel sees
        buffers = []
        kernel = fusion._forward_mat

        def recording(kind_, p, x, ws):
            out = kernel(kind_, p, x, ws)
            buffers.extend(ws.values())
            if p is not trained_params:
                buffers.extend(p.values())
            return out

        monkeypatch.setattr(fusion, "_forward_mat", recording)
        trained_params = None
        cfg = TrainConfig(learning_rate=0.05, iterations=5, batch_fraction=0.5, seed=57)
        trained, losses = train_fusion(new_head(kind, 3, seed=58), self.make_dataset(59), cfg)
        trained_params = trained.params
        propagated, native, mask, _ = self.make_dataset(60)[0]
        fused = fuse_forward(trained, propagated, native, mask)
        assert len(buffers) > len(trained.params)
        for result in (*trained.params.values(), fused.data):
            assert not any(np.shares_memory(result, buf) for buf in buffers)

        kept = {name: arr.copy() for name, arr in trained.params.items()}
        kept_fused = fused.data.copy()
        other_propagated, other_native, _, _ = self.make_dataset(61)[0]
        fuse_forward(trained, other_propagated, other_native, mask)
        again, again_losses = train_fusion(
            new_head(kind, 3, seed=58), self.make_dataset(59), cfg
        )
        train_fusion(new_head(kind, 3, seed=62), self.make_dataset(63), cfg)
        assert np.array_equal(fused.data, kept_fused)
        assert again_losses == losses
        for name, arr in kept.items():
            assert np.array_equal(trained.params[name], arr)
            assert np.array_equal(again.params[name], arr)

    def test_zero_learning_rate_keeps_params(self):
        dataset = self.make_dataset(48)
        head = new_head("residual", 3, seed=49)
        cfg = TrainConfig(learning_rate=0.0, iterations=5, batch_fraction=1.0, seed=50)
        trained, _ = train_fusion(head, dataset, cfg)
        for name in head.params:
            assert np.array_equal(trained.params[name], head.params[name])

    @pytest.mark.parametrize("scale", [0.0, -0.1, float("nan"), float("inf")])
    def test_new_head_rejects_bad_init_scale(self, scale):
        with pytest.raises(ConfigError):
            new_head("basic", 3, init_scale=scale)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_fusion(new_head("basic", 3), [], TrainConfig())

    def test_divergence_raises(self):
        dataset = self.make_dataset(51)
        head = new_head("residual", 3, seed=52)
        cfg = TrainConfig(learning_rate=1e200, iterations=50, batch_fraction=1.0, seed=53)
        with pytest.raises(TrainingError), np.errstate(over="ignore", invalid="ignore"):
            train_fusion(head, dataset, cfg)


class TestSerialization:
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_roundtrip(self, tmp_path, kind):
        head = new_head(kind, 5, seed=60, init_scale=0.3)
        path = tmp_path / "head.bin"
        write_head(head, path)
        back = read_head(path)
        assert back.variant == head.variant
        assert back.num_classes == head.num_classes
        for name, arr in head.params.items():
            assert np.array_equal(back.params[name], arr.astype(np.float32).astype(float))
        # second write is byte-identical
        write_head(back, tmp_path / "head2.bin")
        assert (tmp_path / "head.bin").read_bytes() == (tmp_path / "head2.bin").read_bytes()

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_new_and_trained_heads_read_back_exactly(self, tmp_path, kind):
        # new_head and train_fusion produce float32-representable values,
        # so the float32 head file loses nothing
        head = new_head(kind, 3, seed=64)
        cfg = TrainConfig(learning_rate=0.1, iterations=20, batch_fraction=0.5, seed=65)
        trained, _ = train_fusion(head, TestTraining().make_dataset(66), cfg)
        for original in (head, trained):
            path = tmp_path / "head.bin"
            write_head(original, path)
            back = read_head(path)
            assert back.variant == original.variant
            for name, arr in original.params.items():
                assert back.params[name].dtype == arr.dtype == np.float64
                assert np.array_equal(back.params[name], arr), name

    def test_wrong_kind_rejected(self, tmp_path):
        from semshare.errors import DataError
        from semshare.formats import write_labels

        write_labels(LabelMap(np.zeros((2, 2), dtype=int), 3), tmp_path / "l.bin")
        with pytest.raises(DataError):
            read_head(tmp_path / "l.bin")
