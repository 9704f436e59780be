"""Order statistics and computed work counts for the benchmark report."""

from __future__ import annotations

import math

PERCENTILE_GRID = (50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 99)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest-rank index of the p-th percentile of n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the p-th percentile of n samples."""
    return n - rank(n, p)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND):
    """Highest percentile of the grid that leaves at least ``min_beyond``
    samples beyond it, or None when even the median does not."""
    best = None
    for p in PERCENTILE_GRID:
        if beyond(n, p) >= min_beyond:
            best = p
    return best


def pyramid_sizes(width: int, height: int, num_levels: int, min_size: int):
    """(w, h) of each level, finest first, by the estimator's halving rule:
    halve (rounding up) while both sides stay >= min_size."""
    sizes = [(width, height)]
    while len(sizes) < num_levels:
        w, h = sizes[-1]
        nw, nh = (w + 1) // 2, (h + 1) // 2
        if nw < min_size or nh < min_size:
            break
        sizes.append((nw, nh))
    return sizes


def pixel_sweeps(width, height, num_levels, iterations, min_size) -> int:
    """Solver work of one flow estimate: sum over levels of w*h*sweeps."""
    return iterations * sum(w * h for w, h in pyramid_sizes(width, height, num_levels, min_size))


def fusion_flops_per_step(weight_shapes, batch: int) -> int:
    """Matrix-product flops of one SGD step: per (out, in) weight, the
    forward product, the weight gradient and the input gradient cost
    2*out*in*batch each.  Bias, ReLU and softmax work is not counted."""
    return 6 * batch * sum(o * i for o, i in weight_shapes)


def fusion_bytes_per_step(weight_shapes, in_channels: int, batch: int) -> int:
    """float64 bytes the matrix products and the batch gather move, each
    operand read once and each result written once: per weight, forward
    (in + out activations, weights), weight gradient (both activations,
    gradient) and input gradient (weights, out gradient, in gradient); the
    gather reads and writes the (in_channels, batch) input."""
    per_weight = sum(3 * (o + i) * batch + 3 * o * i for o, i in weight_shapes)
    return 8 * (per_weight + 2 * in_channels * batch)
