"""Binary file formats: NetPBM images, Middlebury .flo flows and the
SEMSHARE container for score/label rasters.

Everything is little-endian and written canonically so identical payloads
produce identical bytes.  Round-trips are bit-exact: .flo and container
payloads are float32 on disk, so any float32-representable in-memory data
survives write/read unchanged.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError
from .raster import FlowField, Image, LabelMap, ScoreMap

FLO_MAGIC = np.float32(202021.25)  # spells "PIEH" in ASCII

CONTAINER_MAGIC = b"SEMSHARE"
CONTAINER_VERSION = 1
KIND_SCORE = 0
KIND_LABEL = 1
KIND_FUSION_HEAD = 2
_MAX_LABEL_CLASSES = 256  # labels are uint8 on disk

_HEADER = struct.Struct("<8s5I")


# ---------------------------------------------------------------------------
# NetPBM (binary PGM/PPM, maxval 255, intensities mapped linearly to [0, 1])


def _quantize(values):
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def write_image(img: Image, path) -> None:
    """PGM (P5) for a single-channel image, PPM (P6) for three channels."""
    magic = "P5" if img.channels == 1 else "P6"
    payload = _quantize(np.transpose(img.data, (1, 2, 0)))
    with open(path, "wb") as f:
        f.write(f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(payload.tobytes())


def _read_pnm_tokens(f, count):
    """Read whitespace-separated header tokens, skipping '#' comments."""
    tokens = []
    while len(tokens) < count:
        ch = f.read(1)
        if not ch:
            raise DataError("truncated NetPBM header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        token = bytearray(ch)
        while True:
            ch = f.read(1)
            if ch in b" \t\r\n" or not ch:
                break
            token += ch
        tokens.append(bytes(token))
    return tokens


def read_image(path) -> Image:
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise DataError(f"unsupported NetPBM magic {magic!r}")
        channels = 1 if magic == b"P5" else 3
        try:
            width, height, maxval = (int(t) for t in _read_pnm_tokens(f, 3))
        except ValueError as exc:
            raise DataError(f"malformed NetPBM header: {exc}") from exc
        if maxval != 255:
            raise DataError(f"only maxval 255 is supported, got {maxval}")
        if width < 1 or height < 1:
            raise DataError(f"bad NetPBM dimensions {width}x{height}")
        # the bytes the file holds, not the header's count, bound the read;
        # trailing bytes are accepted
        payload = f.read()
        count = width * height * channels
        if len(payload) < count:
            raise DataError(
                f"truncated NetPBM payload: {width}x{height}x{channels} needs {count} bytes, "
                f"the file holds {len(payload)}"
            )
    raw = np.frombuffer(payload, dtype=np.uint8, count=count)
    if channels == 1:
        data = raw.reshape(height, width)[None]
    else:
        data = np.transpose(raw.reshape(height, width, 3), (2, 0, 1))
    return Image(data.astype(float) / 255.0)


def write_mask(mask: np.ndarray, path) -> None:
    """Store a boolean mask as a PGM with 0/255 pixels."""
    write_image(Image(mask.astype(float)), path)


def read_mask(path) -> np.ndarray:
    img = read_image(path)
    if img.channels != 1:
        raise DataError("mask files must be single-channel")
    return img.data[0] >= 0.5


# ---------------------------------------------------------------------------
# Middlebury .flo


def write_flo(flow: FlowField, path) -> None:
    interleaved = np.ascontiguousarray(
        np.transpose(flow.data, (1, 2, 0)).astype("<f4")
    )
    with open(path, "wb") as f:
        f.write(np.array([FLO_MAGIC], dtype="<f4").tobytes())
        f.write(struct.pack("<ii", flow.width, flow.height))
        f.write(interleaved.tobytes())


def read_flo(path) -> FlowField:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise DataError(".flo file too short for its header")
    magic = np.frombuffer(blob[:4], dtype="<f4")[0]
    if magic != FLO_MAGIC:
        raise DataError(f"bad .flo magic {magic!r}")
    width, height = struct.unpack("<ii", blob[4:12])
    if width < 1 or height < 1:
        raise DataError(f"bad .flo dimensions {width}x{height}")
    expected = 12 + 8 * width * height
    if len(blob) != expected:
        raise DataError(f".flo payload size {len(blob)} != expected {expected}")
    data = np.frombuffer(blob[12:], dtype="<f4").reshape(height, width, 2)
    return FlowField(np.transpose(data, (2, 0, 1)).astype(float))


# ---------------------------------------------------------------------------
# SEMSHARE container (kinds 0/1 here; kind 2 fusion heads live in fusion.py)


def pack_header(kind: int, width: int, height: int, channels: int) -> bytes:
    return _HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION, kind, width, height, channels)


def unpack_header(blob: bytes):
    if len(blob) < _HEADER.size:
        raise DataError("container file too short for its header")
    magic, version, kind, width, height, channels = _HEADER.unpack_from(blob)
    if magic != CONTAINER_MAGIC:
        raise DataError(f"bad container magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise DataError(f"unsupported container version {version}")
    return kind, width, height, channels, blob[_HEADER.size :]


def write_scores(scores: ScoreMap, path) -> None:
    payload = np.ascontiguousarray(scores.data.astype("<f4"))
    with open(path, "wb") as f:
        f.write(pack_header(KIND_SCORE, scores.width, scores.height, scores.num_classes))
        f.write(payload.tobytes())


def write_labels(labels: LabelMap, path) -> None:
    if labels.num_classes > _MAX_LABEL_CLASSES:
        raise DataError(f"label container stores at most {_MAX_LABEL_CLASSES} classes")
    with open(path, "wb") as f:
        f.write(pack_header(KIND_LABEL, labels.width, labels.height, labels.num_classes))
        f.write(labels.data.astype(np.uint8).tobytes())


def read_container(path):
    """Read a SEMSHARE container; returns a ScoreMap or a LabelMap."""
    with open(path, "rb") as f:
        blob = f.read()
    kind, width, height, channels, payload = unpack_header(blob)
    if kind == KIND_SCORE:
        expected = 4 * channels * width * height
        if len(payload) != expected:
            raise DataError(f"score payload size {len(payload)} != expected {expected}")
        data = np.frombuffer(payload, dtype="<f4").reshape(channels, height, width)
        return ScoreMap(data.astype(float))
    if kind == KIND_LABEL:
        if channels > _MAX_LABEL_CLASSES:
            raise DataError(f"label container stores at most {_MAX_LABEL_CLASSES} classes, "
                            f"header says {channels}")
        if len(payload) != width * height:
            raise DataError(f"label payload size {len(payload)} != expected {width * height}")
        data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
        return LabelMap(data.astype(np.int32), channels)
    raise DataError(f"unsupported container kind {kind} for raster reads")


def read_scores(path) -> ScoreMap:
    out = read_container(path)
    if not isinstance(out, ScoreMap):
        raise DataError(f"{path} does not hold a score map")
    return out


def read_labels(path) -> LabelMap:
    out = read_container(path)
    if not isinstance(out, LabelMap):
        raise DataError(f"{path} does not hold a label map")
    return out
