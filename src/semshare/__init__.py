"""semshare: share per-pixel class scores between two overlapping cameras.

A calibrated homography pulls the wide camera's scores into the narrow
frame, a classical coarse-to-fine flow estimator absorbs the remaining
depth-dependent misalignment, and small trainable per-pixel fusion heads
merge propagated with native scores in both directions.
"""

from .camera import (
    CameraRig,
    Homography,
    Intrinsics,
    Rotation3,
    apply_homography,
    homography_from_rig,
    invert_homography,
    read_rig,
    write_rig,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DataError,
    DimensionError,
    MetricUndefinedError,
    PipelineStageError,
    PointAtInfinityError,
    SemShareError,
    TrainingError,
)
from .flow import FlowConfig, estimate_flow, flow_to_color, two_stage_map
from .fusion import (
    FusionHead,
    FusionVariant,
    TrainConfig,
    fuse_backward,
    fuse_forward,
    identity_head,
    new_head,
    read_head,
    train_fusion,
    write_head,
)
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    aepe,
    cross_entropy,
    l1_photometric,
    miou,
    smoothness,
    ssim,
)
from .pipeline import (
    FrameResult,
    PipelineConfig,
    read_benchmark,
    run_ablation,
    run_frame,
    share,
    write_benchmark,
)
from .raster import (
    FlowField,
    GridMap,
    Image,
    LabelMap,
    ScoreMap,
    compose_grids,
    grid_from_flow,
    grid_from_homography,
    identity_grid,
    warp_labels,
    warp_raster,
)
from .synth import (
    RandomTransformSpec,
    ScenePair,
    SynthScene,
    degrade_scores,
    gen_flow_sample,
    make_scene,
    render_scene,
    texture_image,
)

__version__ = "0.1.0"
