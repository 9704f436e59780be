"""Exception types shared across the package, and the field type check
of its configuration dataclasses.

The CLI maps these onto exit codes (see cli.py): configuration problems
exit with 2, malformed data, unusable calibrations or mismatched rasters
with 3, and numeric failures with 4.
"""

import numbers
from dataclasses import fields


class SemShareError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SemShareError):
    """Invalid configuration value or missing prerequisite."""


class CalibrationError(SemShareError):
    """Camera calibration is unusable (singular or near-singular matrices)."""


class DimensionError(SemShareError):
    """Raster shapes or sizes do not agree."""


class DataError(SemShareError):
    """File contents are malformed or violate a format contract."""


class PointAtInfinityError(SemShareError):
    """A projective mapping sent a point to infinity (denominator ~ 0)."""


class MetricUndefinedError(SemShareError):
    """A metric was requested over an empty evaluation mask."""


class TrainingError(SemShareError):
    """Training diverged: loss or parameters became non-finite."""


class PipelineStageError(SemShareError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _check_field_types(config):
    """Raise ConfigError unless every `int` field of the dataclass `config`
    holds a numbers.Integral and every other field a numbers.Real; a bool
    is neither."""
    for f in fields(config):
        kind = numbers.Integral if f.type in ("int", int) else numbers.Real
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(
                f"{type(config).__name__}.{f.name} must be {kind.__name__.lower()}, got {value!r}"
            )
