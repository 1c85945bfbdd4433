"""Exception types shared across the package, and the integer checks.

The CLI maps each class to a distinct exit code (see ``scenescale.cli``),
so errors raised by library code should pick the most specific class.
"""

import numpy as np


class SceneScaleError(Exception):
    """Base class for all scenescale errors."""


class InvalidCameraError(SceneScaleError, ValueError):
    """Camera parameters violate an invariant (e.g. sigma <= 0)."""


class BehindCameraError(SceneScaleError, ValueError):
    """A point with z <= 0 was passed to a strict projection."""


class SchemaError(SceneScaleError, ValueError):
    """A scene/depth file failed schema or dimension validation."""


class InsufficientGroundError(SceneScaleError, ValueError):
    """Fewer ground pixels/points than a plane fit requires."""


class LowConsensusError(SceneScaleError, RuntimeError):
    """RANSAC consensus below the configured inlier fraction."""


class MissingPlaneError(SceneScaleError, ValueError):
    """An operation that needs a ground plane got a scene without one."""


class NonFiniteLossError(SceneScaleError, RuntimeError):
    """The objective became non-finite during optimization."""


class PlacementError(SceneScaleError, RuntimeError):
    """Synthetic person placement failed repeatedly (outside frustum)."""


def whole_number(value, name: str) -> int:
    """value as an int if it is a whole number (7 or 7.0), else SchemaError.

    Indices and raster sizes are never truncated: 7.9 is an error, not 7.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise SchemaError(f"{name} must be a whole number, got {value!r}")


def real_number(value, name: str) -> float:
    """value as a float if it is a number (7, 7.5, an int too large for a
    float excepted), else SchemaError.

    Booleans and numeric strings are refused: true is not 1.0 and "1000" is
    not 1000.  Finiteness and range are left to the caller.
    """
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise SchemaError(f"{name} must be a number, got {value!r}")


def check_int(value, name: str, minimum: int) -> None:
    """Raise SchemaError unless value is an integer >= minimum (bool and 7.0 refused).

    For counts and seeds in configs, where a float is a typing mistake.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise SchemaError(f"{name} must be an integer >= {minimum}, got {value!r}")
