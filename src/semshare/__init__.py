"""semshare: share per-pixel class scores between two overlapping cameras.

A calibrated homography pulls the wide camera's scores into the narrow
frame, a classical coarse-to-fine flow estimator absorbs the remaining
depth-dependent misalignment, and small trainable per-pixel fusion heads
merge propagated with native scores in both directions.  The entry points
are `run_frame`, `share` and `run_ablation` in `semshare.pipeline`, and
`semshare.cli`; every name is imported from its own module.
"""

__version__ = "0.1.0"
