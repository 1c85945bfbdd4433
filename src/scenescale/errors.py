"""Exception types shared across the package, and the one judge of outside numbers.

Each class carries the CLI's exit code for it as ``exit_code`` (listed in
``scenescale.cli``), so errors raised by library code should pick the most
specific class.

Every number from outside the program (a file, a flag, a constructor
argument) is judged in the constructor that takes it, by one of six
functions here:

  real_number      a number, as a float (range left to the caller);
  positive_number  a finite number > 0;
  number_in        a finite number in [lo, hi] or [lo, hi);
  whole_number     a whole number, as an int (7.0 kept, 7.9 refused);
  check_int        an integer count or seed (7.0 refused);
  real_array       an array of finite numbers, of a given shape.

All six refuse booleans, strings and ints too large for a float; a rule
number_in cannot state (lo <= hi, a cap on iterations) is a comparison after
the check.
"""

import math
import sys

import numpy as np


class SceneScaleError(Exception):
    """Base class for all scenescale errors."""
    exit_code = 2


class BehindCameraError(SceneScaleError, ValueError):
    """A point with z <= 0 was passed to geometry.project; synth catches it."""


class SchemaError(SceneScaleError, ValueError):
    """A scene/depth file failed schema or dimension validation."""


class InsufficientGroundError(SceneScaleError, ValueError):
    """Fewer ground pixels/points than a plane fit requires."""
    exit_code = 3


class LowConsensusError(SceneScaleError, RuntimeError):
    """RANSAC consensus below the configured inlier fraction."""
    exit_code = 4


class MissingPlaneError(SceneScaleError, ValueError):
    """An operation that needs a ground plane got a scene without one."""
    exit_code = 5


class NonFiniteLossError(SceneScaleError, RuntimeError):
    """The objective became non-finite during optimization."""
    exit_code = 7


class PlacementError(SceneScaleError, RuntimeError):
    """Synthetic person placement failed repeatedly (outside frustum)."""
    exit_code = 8


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


def positive_number(value, name: str) -> float:
    """real_number that is finite and > 0, the rule most fields share."""
    number = real_number(value, name)
    if not (math.isfinite(number) and number > 0):
        raise SchemaError(f"{name} must be finite and > 0, got {number}")
    return number


def number_in(value, name: str, lo: float, hi: float, hi_open: bool = False) -> float:
    """real_number that is finite and in [lo, hi], or in [lo, hi) if hi_open."""
    number = real_number(value, name)
    if not (math.isfinite(number) and lo <= number and (number < hi if hi_open else number <= hi)):
        raise SchemaError(f"{name} must be finite and in [{lo}, {hi}{')' if hi_open else ']'}, "
                          f"got {number}")
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


def real_array(value, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """value as a float array (np.asarray: a float64 array is not copied) if
    it has the given shape (any if None) and every entry is a finite number,
    else SchemaError.

    A numeric ndarray is taken as it is.  Anything else (the nested lists of a
    file) has each entry judged by real_number, because numpy reads true and
    "5" as numbers.
    """
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{name} must be an array of numbers ({exc})") from None
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
        entries = [value]
        for _ in range(arr.ndim):
            entries = [v for row in entries for v in row]
        for v in entries:
            if type(v) is not float:  # the common case, checked inline
                real_number(v, name)
    if shape is not None and arr.shape != shape:
        raise SchemaError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaError(f"{name} must hold finite numbers only")
    return arr


def check_int(value, name: str, minimum: int) -> None:
    """Raise SchemaError unless value is an integer >= minimum that a float
    holds (bool and 7.0 refused).

    For counts and seeds in configs, where a float is a typing mistake.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not minimum <= value <= sys.float_info.max):
        raise SchemaError(f"{name} must be an integer >= {minimum}, got {value!r}")
