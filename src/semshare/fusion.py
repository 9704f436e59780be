"""Trainable per-pixel fusion heads merging propagated and native class
scores, with hand-derived gradients and a plain SGD trainer.

All layers are per-pixel linear maps (the 1x1-convolution special case),
so a head is a small stack of (weight, bias) pairs applied independently
at every pixel.  Three wirings are provided:

  basic:      concat -> linear classifier
  residual:   concat -> linear -> ReLU -> linear, plus a linear skip
              projection of the concat, then a linear classifier
  bottleneck: per-input linear projections to a common width, elementwise
              add, down-projection -> ReLU -> up-projection back to the
              common width, residual add, ReLU, linear classifier

Pixels flagged invalid bypass fusion entirely: the native scores pass
through unchanged and no gradient flows from them.  Inference runs as
a band kernel of raster._run_box over the valid pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, TrainingError, _check_field_types
from .formats import KIND_FUSION_HEAD, pack_header, unpack_header
from .raster import LabelMap, ScoreMap, _run_box

VARIANT_KINDS = ("basic", "residual", "bottleneck")
BOTTLENECK_EXPANSION = 2


@dataclass(frozen=True)
class FusionVariant:
    """Head topology plus its resolved hidden width.

    For the residual wiring `hidden` is the width of the inner layers
    (2C); for the bottleneck wiring it is the squeezed width
    (ceil(C / expansion) with expansion 2).  The basic wiring has no
    hidden layer and stores 0.  Head files carry the width, so a head read
    from disk may hold any positive one.
    """

    kind: str
    hidden: int = 0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ConfigError(f"unknown fusion variant {self.kind!r}")
        if self.kind != "basic" and self.hidden < 1:
            raise ConfigError(f"{self.kind} fusion needs a positive hidden width")

    @staticmethod
    def resolve(kind: str, num_classes: int) -> "FusionVariant":
        hidden = {
            "residual": 2 * num_classes,
            "bottleneck": math.ceil(num_classes / BOTTLENECK_EXPANSION),
        }.get(kind, 0)
        return FusionVariant(kind, hidden)


def _param_shapes(variant: FusionVariant, c: int):
    """Canonical parameter names and shapes, in serialization order."""
    h = variant.hidden
    if variant.kind == "basic":
        return [("w", (c, 2 * c)), ("b", (c,))]
    if variant.kind == "residual":
        return [
            ("w1", (h, 2 * c)), ("b1", (h,)),
            ("w2", (h, h)), ("b2", (h,)),
            ("ws", (h, 2 * c)), ("bs", (h,)),
            ("wc", (c, h)), ("bc", (c,)),
        ]
    return [
        ("wp", (c, c)), ("bp", (c,)),
        ("wn", (c, c)), ("bn", (c,)),
        ("wd", (h, c)), ("bd", (h,)),
        ("wu", (c, h)), ("bu", (c,)),
        ("wc", (c, c)), ("bc", (c,)),
    ]


class FusionHead:
    """Immutable bundle of a variant, class count and parameter arrays."""

    __slots__ = ("variant", "num_classes", "params")

    def __init__(self, variant: FusionVariant, num_classes: int, params: dict):
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        expected = _param_shapes(variant, num_classes)
        if set(params) != {name for name, _ in expected}:
            raise DimensionError(
                f"head parameters {sorted(params)} do not match variant {variant.kind}"
            )
        stored = {}
        for name, shape in expected:
            arr = np.array(params[name], dtype=float)
            if arr.shape != shape:
                raise DimensionError(f"parameter {name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"parameter {name} contains non-finite values")
            arr.flags.writeable = False
            stored[name] = arr
        self.variant = variant
        self.num_classes = int(num_classes)
        self.params = stored

    def replace_params(self, params: dict) -> "FusionHead":
        return FusionHead(self.variant, self.num_classes, params)


def new_head(kind: str, num_classes: int, seed: int = 0, init_scale: float = 0.1) -> FusionHead:
    """Seeded uniform initialization: weights in [-s, s] with
    s = init_scale / sqrt(fan_in), rounded to float32 like the head file
    and the trainer; biases start at zero."""
    # the weights are rounded to float32, so the scale must be finite there
    if not 0.0 < init_scale <= float(np.finfo(np.float32).max):
        raise ConfigError(f"init scale must be positive and finite in float32, got {init_scale}")
    variant = FusionVariant.resolve(kind, num_classes)
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(variant, num_classes):
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = init_scale / math.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return FusionHead(variant, num_classes, params)


def identity_head(num_classes: int) -> FusionHead:
    """Basic head whose output equals the native scores exactly."""
    w = np.zeros((num_classes, 2 * num_classes))
    w[:, num_classes:] = np.eye(num_classes)
    return FusionHead(
        FusionVariant("basic", 0), num_classes, {"w": w, "b": np.zeros(num_classes)}
    )


# ---------------------------------------------------------------------------
# Forward / backward on (channels, pixels) matrices
#
# The kernels take the input as a (2C, N) matrix of any strides (training
# passes the transpose of a C-contiguous (N, 2C) row gather) and write every
# (width, N) intermediate with out= into a workspace dict keyed by name.
# Buffers take the dtype of their operands, so one code path serves both
# precisions: training runs in float32, while fuse_forward, fuse_backward
# and their gradient checks run in float64.
# A caller that reuses one workspace for equal-sized inputs allocates no
# array after the first call; fresh temporaries of this size cost more in
# first-touch page faults than the arithmetic they hold.  ReLUs run in
# place, so ws["z1"], ws["zd"] and ws["r"] (bottleneck) hold post-ReLU
# values, which are positive exactly where the pre-activations were.
# Gathers call np.take(..., out=, mode="clip"): with the default "raise"
# numpy writes through a temporary copy of out.  Every index is in range.


def _buf(ws: dict, name: str, shape, dtype) -> np.ndarray:
    """ws[name], created on first use and made anew when the shape
    differs (fuse_forward's last band can be shorter than the others)."""
    arr = ws.get(name)
    if arr is None or arr.shape != shape:
        arr = ws[name] = np.empty(shape, dtype)
    return arr


def _product(a, b, ws: dict, name: str) -> np.ndarray:
    """ws[name] = a @ b."""
    shape = (a.shape[0], b.shape[1])
    return np.matmul(a, b, out=_buf(ws, name, shape, np.result_type(a, b)))


def _affine(w, b, x, ws: dict, name: str) -> np.ndarray:
    """ws[name] = w @ x + b[:, None]."""
    out = _product(w, x, ws, name)
    out += b[:, None]
    return out


def _forward_mat(kind: str, p: dict, x: np.ndarray, ws: dict) -> np.ndarray:
    """Forward of a `kind` head with parameters p over a (2C, N) input;
    returns the (C, N) output, which lives in ws["y"]."""
    if kind == "basic":
        return _affine(p["w"], p["b"], x, ws, "y")
    if kind == "residual":
        z1 = _affine(p["w1"], p["b1"], x, ws, "z1")
        np.maximum(z1, 0.0, out=z1)
        r = _affine(p["w2"], p["b2"], z1, ws, "r")
        r += _affine(p["ws"], p["bs"], x, ws, "s")
        return _affine(p["wc"], p["bc"], r, ws, "y")
    c = x.shape[0] // 2
    s = _affine(p["wp"], p["bp"], x[:c], ws, "s")
    s += _affine(p["wn"], p["bn"], x[c:], ws, "an")
    zd = _affine(p["wd"], p["bd"], s, ws, "zd")
    np.maximum(zd, 0.0, out=zd)
    r = _affine(p["wu"], p["bu"], zd, ws, "r")
    r += s
    np.maximum(r, 0.0, out=r)
    return _affine(p["wc"], p["bc"], r, ws, "y")


def _affine_grad(g, x, gw, gb):
    """Weight and bias gradients of out = w @ x + b given g = d(loss)/d(out)."""
    np.matmul(g, x.T, out=gw)
    np.sum(g, axis=1, out=gb)


def _relu_grad(g, z, ws: dict, name: str):
    """g *= (z > 0), the ReLU subgradient at 0 being 0."""
    on = np.greater(z, 0.0, out=_buf(ws, name, z.shape, bool))
    np.multiply(g, on, out=g)


def _backward_mat(kind: str, p: dict, x: np.ndarray, ws: dict, gy: np.ndarray, grads: dict):
    """Exact parameter gradients of _forward_mat, written into grads (one
    array per parameter) from the activations _forward_mat left in ws."""
    if kind == "basic":
        _affine_grad(gy, x, grads["w"], grads["b"])
        return
    _affine_grad(gy, ws["r"], grads["wc"], grads["bc"])
    if kind == "residual":
        gr = _product(p["wc"].T, gy, ws, "gr")
        _affine_grad(gr, ws["z1"], grads["w2"], grads["b2"])
        ga1 = _product(p["w2"].T, gr, ws, "ga1")
        _relu_grad(ga1, ws["z1"], ws, "z1_on")
        _affine_grad(ga1, x, grads["w1"], grads["b1"])
        _affine_grad(gr, x, grads["ws"], grads["bs"])
        return
    c = x.shape[0] // 2
    gt = _product(p["wc"].T, gy, ws, "gt")
    _relu_grad(gt, ws["r"], ws, "r_on")
    _affine_grad(gt, ws["zd"], grads["wu"], grads["bu"])
    gd = _product(p["wu"].T, gt, ws, "gd")
    _relu_grad(gd, ws["zd"], ws, "zd_on")
    _affine_grad(gd, ws["s"], grads["wd"], grads["bd"])
    gs = _product(p["wd"].T, gd, ws, "gs")
    gs += gt
    _affine_grad(gs, x[:c], grads["wp"], grads["bp"])
    _affine_grad(gs, x[c:], grads["wn"], grads["bn"])


def _input_grad(kind: str, p: dict, ws: dict, gy: np.ndarray) -> np.ndarray:
    """(2C, N) input gradient from the gradients _backward_mat left in ws."""
    if kind == "basic":
        return p["w"].T @ gy
    if kind == "residual":
        return p["w1"].T @ ws["ga1"] + p["ws"].T @ ws["gr"]
    return np.concatenate([p["wp"].T @ ws["gs"], p["wn"].T @ ws["gs"]], axis=0)


def _check_inputs(head: FusionHead, propagated: ScoreMap, native: ScoreMap, mask):
    if propagated.data.shape != native.data.shape:
        raise DimensionError("propagated and native score maps must share a shape")
    if propagated.num_classes != head.num_classes:
        raise DimensionError(
            f"head expects {head.num_classes} classes, maps carry {propagated.num_classes}"
        )
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != propagated.data.shape[1:]:
        raise DimensionError("mask must be boolean with the maps' spatial shape")
    return mask


def _stacked(propagated: ScoreMap, native: ScoreMap) -> np.ndarray:
    """The two score maps as one C-contiguous (2C, H*W) matrix."""
    c, h, w = propagated.data.shape
    return np.concatenate([propagated.data, native.data], axis=0).reshape(2 * c, h * w)


def fuse_forward(head: FusionHead, propagated: ScoreMap, native: ScoreMap, mask) -> ScoreMap:
    """Apply the head per pixel; invalid pixels return the native scores
    unchanged.

    raster._run_box picks the box of the valid pixels, its row bands and
    the threads.  Each band's two maps are stacked into one (2C, pixels)
    buffer and run through its thread's workspace (only the last band can
    be shorter; _buf gives it buffers of its own).
    """
    mask = _check_inputs(head, propagated, native, mask)
    out = native.data.copy()
    c, kind, p = head.num_classes, head.variant.kind, head.params

    def fuse_bands(bands, cols):
        ws, width = {}, cols.stop - cols.start  # one workspace per thread
        for band in bands:
            n = band.stop - band.start
            x = _buf(ws, "x", (2 * c, n, width), out.dtype)
            x[:c] = propagated.data[:, band, cols]
            x[c:] = native.data[:, band, cols]
            y = _forward_mat(kind, p, x.reshape(2 * c, -1), ws)
            np.copyto(out[:, band, cols], y.reshape(c, n, width), where=mask[band, cols])

    _run_box(mask, fuse_bands)
    return ScoreMap._adopt(out)


def fuse_backward(head: FusionHead, propagated: ScoreMap, native: ScoreMap, mask, grad_out):
    """Gradients of fuse_forward.

    grad_out has shape (C, H, W); contributions from invalid pixels are
    zeroed since those outputs bypass the head.  Returns (parameter
    gradients, (grad wrt propagated, grad wrt native)).
    """
    mask = _check_inputs(head, propagated, native, mask)
    grad_out = np.asarray(grad_out, dtype=float)
    if grad_out.shape != propagated.data.shape:
        raise DimensionError("grad_out must match the score map shape")
    c, h, w = propagated.data.shape
    kind, p = head.variant.kind, head.params
    x = _stacked(propagated, native)
    ws = {}
    _forward_mat(kind, p, x, ws)
    gy = (grad_out * mask[None]).reshape(c, h * w)
    grads = {name: np.empty_like(arr) for name, arr in p.items()}
    _backward_mat(kind, p, x, ws, gy, grads)
    gx = _input_grad(kind, p, ws, gy).reshape(2 * c, h, w)
    return grads, (gx[:c], gx[c:])


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    iterations: int = 2000
    batch_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ConfigError(f"batch fraction must be in (0, 1], got {self.batch_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _flatten_dataset(head: FusionHead, dataset):
    """Valid pixels of every item as one C-contiguous float32 (N, 2C)
    matrix, in item then raster order, plus their labels."""
    c = head.num_classes
    valid = []
    for propagated, native, mask, gt in dataset:
        mask = _check_inputs(head, propagated, native, mask)
        if not isinstance(gt, LabelMap) or gt.size != propagated.size:
            raise DimensionError("ground-truth labels must match the score maps")
        if gt.num_classes != c:
            raise DimensionError("ground-truth labels disagree on the class count")
        valid.append(np.flatnonzero(mask))
    n = sum(len(pixels) for pixels in valid)
    if n == 0:
        raise ConfigError("training dataset has no valid pixels")
    x = np.empty((n, 2 * c), np.float32)
    y = np.empty(n, np.intp)
    rows = np.empty((max(gt.data.size for *_, gt in dataset), 2 * c), np.float32)
    start = 0
    for (propagated, native, _, gt), pixels in zip(dataset, valid):
        item = rows[: gt.data.size]
        item[:, :c] = propagated.data.reshape(c, -1).T
        item[:, c:] = native.data.reshape(c, -1).T
        stop = start + len(pixels)
        np.take(item, pixels, axis=0, out=x[start:stop], mode="clip")
        y[start:stop] = gt.data.reshape(-1)[pixels]
        start = stop
    return x, y


def _softmax_ce(y: np.ndarray, labels: np.ndarray, ws: dict) -> float:
    """Mean cross-entropy over the columns of the (C, N) scores y; y is
    overwritten with the gradient of the loss wrt the scores."""
    n = y.shape[1]
    if "columns" not in ws:
        ws["columns"] = np.arange(n)
    at = np.multiply(labels, n, out=_buf(ws, "label_at", (n,), np.intp))
    at += ws["columns"]
    flat = y.reshape(-1)
    picked = np.take(flat, at, out=_buf(ws, "picked", (n,), y.dtype), mode="clip")
    m = np.max(y, axis=0, out=_buf(ws, "max", (n,), y.dtype))
    np.subtract(y, m, out=y)
    np.exp(y, out=y)
    norm = np.sum(y, axis=0, out=_buf(ws, "norm", (n,), y.dtype))
    np.divide(y, norm, out=y)
    nll = np.log(norm, out=norm)
    nll += m
    nll -= picked
    loss = float(np.sum(nll) / n)
    np.take(flat, at, out=picked, mode="clip")
    picked -= 1.0
    np.put(flat, at, picked)
    np.divide(y, n, out=y)
    return loss


def train_fusion(head: FusionHead, dataset, cfg: TrainConfig):
    """Plain SGD on masked cross-entropy; deterministic given cfg.seed.

    dataset is a list of (propagated ScoreMap, native ScoreMap, mask,
    ground-truth LabelMap).  Returns (trained head, per-iteration loss).
    Training runs in float32: the pixels, the parameters, their gradients
    and every per-pixel intermediate are float32 buffers made for this
    call, so steps after the first allocate nothing of batch size but the
    generator's index draw.  The returned head holds float32-representable
    values, which write_head stores exactly; inference (fuse_forward) and
    the gradient checks run in float64.  A non-finite loss or parameter
    raises TrainingError; the float32 overflow that leads there (a huge
    learning rate, say) raises no numpy warning on the way.
    """
    if not dataset:
        raise ConfigError("training dataset is empty")
    x_all, y_all = _flatten_dataset(head, dataset)
    n = len(y_all)
    batch = max(1, int(round(cfg.batch_fraction * n)))
    rng = np.random.default_rng(cfg.seed)
    kind = head.variant.kind
    params = {name: arr.astype(np.float32) for name, arr in head.params.items()}
    grads = {name: np.empty_like(arr) for name, arr in params.items()}
    ws = {}
    if batch < n:
        xb, yb = np.empty((batch, x_all.shape[1]), x_all.dtype), np.empty(batch, y_all.dtype)
    else:
        xb, yb = x_all, y_all
    x = xb.T
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.iterations):
            if batch < n:
                idx = rng.integers(0, n, size=batch)
                np.take(x_all, idx, axis=0, out=xb, mode="clip")
                np.take(y_all, idx, out=yb, mode="clip")
            y = _forward_mat(kind, params, x, ws)
            loss = _softmax_ce(y, yb, ws)
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged: loss became {loss}")
            losses.append(loss)
            _backward_mat(kind, params, x, ws, y, grads)
            for name, arr in params.items():
                step = grads[name]
                step *= cfg.learning_rate
                arr -= step
                if not np.all(np.isfinite(arr)):
                    raise TrainingError("training diverged: parameters became non-finite")
    return head.replace_params(params), losses


# ---------------------------------------------------------------------------
# Serialization (SEMSHARE container, kind 2)

def write_head(head: FusionHead, path) -> None:
    """Container layout: width = class count, height = variant tag (the
    kind's index in VARIANT_KINDS), channels = hidden width; payload is the
    float32 parameter blocks in canonical order."""
    tag = VARIANT_KINDS.index(head.variant.kind)
    blobs = [
        np.ascontiguousarray(head.params[name].astype("<f4")).tobytes()
        for name, _ in _param_shapes(head.variant, head.num_classes)
    ]
    with open(path, "wb") as f:
        f.write(pack_header(KIND_FUSION_HEAD, head.num_classes, tag, head.variant.hidden))
        for blob in blobs:
            f.write(blob)


def read_head(path) -> FusionHead:
    with open(path, "rb") as f:
        blob = f.read()
    kind, num_classes, tag, hidden, payload = unpack_header(blob)
    if kind != KIND_FUSION_HEAD:
        raise DataError(f"{path} does not hold a fusion head")
    if tag >= len(VARIANT_KINDS):
        raise DataError(f"unknown fusion variant tag {tag}")
    try:  # a head no code could build is malformed data here
        variant = FusionVariant(VARIANT_KINDS[tag], hidden)
    except ConfigError as exc:
        raise DataError(str(exc)) from exc
    params = {}
    offset = 0
    for name, shape in _param_shapes(variant, num_classes):
        count = math.prod(shape)
        chunk = payload[offset : offset + 4 * count]
        if len(chunk) != 4 * count:
            raise DataError("fusion head payload is truncated")
        params[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(float)
        offset += 4 * count
    if offset != len(payload):
        raise DataError("fusion head payload has trailing bytes")
    try:
        return FusionHead(variant, num_classes, params)
    except ConfigError as exc:
        raise DataError(str(exc)) from exc
