import math
import re

import numpy as np
import pytest

from scenescale import (
    CameraModel,
    DepthObservation,
    GroundPlane,
    ObjectiveConfig,
    OptimConfig,
    Person,
    RansacConfig,
    SchemaError,
    SynthConfig,
    WeakPerspectiveCam,
)
from scenescale.errors import check_int, positive_number, real_array, real_number, whole_number

GROUND = ((3, 2), np.arange(6), np.ones(6))
NAN = float("nan")


# (constructor, field, lo, hi, hi_open): each field number_in judges
RANGED = [
    (ObjectiveConfig, "lam", 0, math.inf, True),
    (RansacConfig, "min_inlier_fraction", 0, 1, False),
    (SynthConfig, "plane_tilt_deg", 0, 45, False),
    (SynthConfig, "keypoint_noise_px", 0, math.inf, True),
    (SynthConfig, "outlier_fraction", 0, 1, True),
]


def out_of_range(build, name, lo, hi, hi_open):
    """Refusal rows for a ranged field: just below lo, just above the range
    (hi itself if it is open), nan and inf."""
    above = [hi if hi_open else np.nextafter(hi, math.inf)] if math.isfinite(hi) else []
    interval = f"[{lo}, {hi}{')' if hi_open else ']'}"
    for value in (np.nextafter(lo, -math.inf), *above, NAN, math.inf):
        yield (lambda value=value: build(**{name: value}), SchemaError,
               re.escape(f"{name} must be finite and in {interval}, got {float(value)}"))


def person(**fields):
    """A valid 24-joint person with the given fields replaced."""
    return Person(**{"joints": np.zeros((24, 3)), "rotation": np.eye(3),
                     "translation": [0.0, 0.0, 5.0], **fields})


@pytest.mark.parametrize(
    "build, error, named",
    [
        (lambda: ObjectiveConfig(lam=True), SchemaError, "lam"),
        (lambda: OptimConfig(learning_rate=True), SchemaError, "learning_rate"),
        (lambda: RansacConfig(min_inlier_fraction=True), SchemaError, "min_inlier_fraction"),
        (lambda: RansacConfig(inlier_threshold="0.05"), SchemaError, "inlier_threshold"),
        (lambda: CameraModel(focal="1000"), SchemaError, "focal"),
        (lambda: WeakPerspectiveCam(sigma=True), SchemaError, "sigma"),
        (lambda: WeakPerspectiveCam(sigma=1.0, tx="0"), SchemaError, "tx"),
        (lambda: DepthObservation.from_ground(*GROUND, metric_scale=True), SchemaError,
         "metric_scale"),
        (lambda: DepthObservation.from_ground((3, 2), np.arange(6), np.full(6, 2.0), 1e308),
         SchemaError, "metric_scale"),  # unprojected depth beyond a float
        (lambda: WeakPerspectiveCam(sigma=1.0, tx=NAN), SchemaError,
         "tx must be finite, got nan"),
        (lambda: WeakPerspectiveCam(sigma=1.0, tx=float("inf")), SchemaError,
         "tx must be finite, got inf"),
        (lambda: person(translation=[NAN, 0, 5], confidences=[NAN] * 24), SchemaError,
         "translation must hold finite numbers"),
        (lambda: person(confidences=[NAN] * 24), SchemaError, "confidences must hold finite"),
        (lambda: person(joints=[["1", "2", "3"]] * 24, translation=[True, False, "5"]),
         SchemaError, "joints must be a number, got '1'"),
        (lambda: person(translation=[True, False, "5"]), SchemaError,
         "translation must be a number, got True"),
        (lambda: person(confidences=[True] * 24), SchemaError,
         "confidences must be a number, got True"),
        (lambda: person(rotation=np.eye(3)[:2]), SchemaError, "rotation must have shape"),
        (lambda: person(ref_keypoints=np.zeros((23, 2))), SchemaError,
         "ref_keypoints must have shape"),
        (lambda: GroundPlane([0, "1", 0], [0, True, 0]), SchemaError,
         "plane.normal must be a number, got '1'"),
        (lambda: GroundPlane([0, 1, 0], [0, True, 0]), SchemaError,
         "plane.point must be a number, got True"),
        (lambda: CameraModel(principal_point=[NAN, "3"]), SchemaError,
         "principal_point must be a number, got '3'"),
        *(row for ranged in RANGED for row in out_of_range(*ranged)),
    ],
    ids=lambda v: v.replace("\\", "") if isinstance(v, str) else "",  # ids without regex escapes
)
def test_constructors_refuse_booleans_and_strings(build, error, named):
    with pytest.raises(error, match=named):
        build()


def test_valid_numbers_keep_their_bits():
    """real_number returns float(value), so ints and numpy scalars read as before."""
    assert ObjectiveConfig(lam=np.float32(0.1)).lam == float(np.float32(0.1))
    assert RansacConfig(inlier_threshold=1, min_inlier_fraction=0).inlier_threshold == 1.0
    assert CameraModel(focal=np.int64(900)).focal == 900.0
    assert type(OptimConfig(learning_rate=1).learning_rate) is float
    for build, name, lo, hi, hi_open in RANGED:  # both inclusive ends are in range
        for end in (lo,) if hi_open else (lo, hi):
            assert getattr(build(**{name: end}), name) == end


@pytest.mark.parametrize("value", [True, "7", None, [7], 10**400])
def test_the_four_judges_refuse_non_numbers(value):
    for judge in (real_number, positive_number, whole_number):
        with pytest.raises(SchemaError, match="field"):
            judge(value, "field")
    with pytest.raises(SchemaError, match="field"):
        check_int(value, "field", 0)


def test_positive_number_and_its_error_type():
    assert positive_number(2, "x") == 2.0
    for bad in (0, -1.0, np.nan, np.inf):
        with pytest.raises(SchemaError, match="x must be finite and > 0"):
            positive_number(bad, "x")
    assert real_number(-np.inf, "x") == -np.inf  # range is the caller's
    assert whole_number(7.0, "x") == 7 and check_int(2**60, "x", 0) is None


@pytest.mark.parametrize(
    "value", [[1.0, True], [1.0, "2"], [[1.0], [2.0, 3.0]], [1.0, NAN], [1.0, 10**400],
              np.array([1.0, np.inf]), np.array([True, False]), {"a": 1.0}, "12", None],
    ids=repr,
)
def test_real_array_refuses_junk(value):
    with pytest.raises(SchemaError, match="field"):
        real_array(value, "field")


def test_real_array_keeps_bits_and_checks_shape():
    arr = np.array([0.1, 2.0, 3.5])
    assert real_array(arr, "x", (3,)) is arr  # a float64 array is not copied
    assert real_array([1, np.int64(2), 0.1], "x").tolist() == [1.0, 2.0, 0.1]
    assert real_array(np.arange(6).reshape(3, 2), "x", (3, 2)).dtype == float
    with pytest.raises(SchemaError, match=r"x must have shape \(2,\), got \(3,\)"):
        real_array(arr, "x", (2,))
