import numpy as np
import pytest

from scenescale import (
    CameraModel,
    DepthObservation,
    InvalidCameraError,
    ObjectiveConfig,
    OptimConfig,
    RansacConfig,
    SchemaError,
    WeakPerspectiveCam,
)
from scenescale.errors import check_int, positive_number, real_number, whole_number

GROUND = ((3, 2), np.arange(6), np.ones(6))


@pytest.mark.parametrize(
    "build, error, named",
    [
        (lambda: ObjectiveConfig(lam=True), SchemaError, "lam"),
        (lambda: OptimConfig(learning_rate=True), SchemaError, "learning_rate"),
        (lambda: RansacConfig(min_inlier_fraction=True), SchemaError, "min_inlier_fraction"),
        (lambda: RansacConfig(inlier_threshold="0.05"), SchemaError, "inlier_threshold"),
        (lambda: CameraModel(focal="1000"), InvalidCameraError, "focal"),
        (lambda: WeakPerspectiveCam(sigma=True), InvalidCameraError, "sigma"),
        (lambda: WeakPerspectiveCam(sigma=1.0, tx="0"), InvalidCameraError, "tx"),
        (lambda: DepthObservation.from_ground(*GROUND, metric_scale=True), SchemaError,
         "metric_scale"),
        (lambda: DepthObservation.from_ground((3, 2), np.arange(6), np.full(6, 2.0), 1e308),
         SchemaError, "metric_scale"),  # unprojected depth beyond a float
    ],
    ids=lambda v: v if isinstance(v, str) else "",
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
        with pytest.raises(InvalidCameraError, match="x must be finite and > 0"):
            positive_number(bad, "x", InvalidCameraError)
    assert real_number(-np.inf, "x") == -np.inf  # range is the caller's
    assert whole_number(7.0, "x") == 7 and check_int(2**60, "x", 0) is None
