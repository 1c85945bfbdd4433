"""Exception types shared across the package, and the one judge of outside numbers.

The CLI maps each class to a distinct exit code (see ``scenescale.cli``),
so errors raised by library code should pick the most specific class.

Every number from outside the program (a file, a flag, a constructor
argument) passes real_number, positive_number, whole_number or check_int in
the constructor that takes it.  All four refuse booleans, strings and ints
too large for a float; a field's own range is a comparison after the check.
"""

import math
import sys

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


def real_number(value, name: str, error: type[SceneScaleError] = SchemaError) -> float:
    """value as a float if it is a number (7, 7.5, an int too large for a
    float excepted), else error.

    Booleans and numeric strings are refused: true is not 1.0 and "1000" is
    not 1000.  Finiteness and range are left to the caller.
    """
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{name} must be a number, got {value!r}")


def positive_number(value, name: str, error: type[SceneScaleError] = SchemaError) -> float:
    """real_number that is finite and > 0, the rule most fields share."""
    number = real_number(value, name, error)
    if not (math.isfinite(number) and number > 0):
        raise error(f"{name} must be finite and > 0, got {number}")
    return number


def whole_number(value, name: str) -> int:
    """value as an int if it is a whole real_number (7 or 7.0), else SchemaError.

    Indices and raster sizes are never truncated: 7.9 is an error, not 7.
    """
    try:
        if real_number(value, name).is_integer():
            return int(value)
    except SchemaError:
        pass
    raise SchemaError(f"{name} must be a whole number, got {value!r}")


def check_int(value, name: str, minimum: int) -> None:
    """Raise SchemaError unless value is an integer >= minimum that a float
    holds (bool and 7.0 refused).

    For counts and seeds in configs, where a float is a typing mistake.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not minimum <= value <= sys.float_info.max):
        raise SchemaError(f"{name} must be an integer >= {minimum}, got {value!r}")
