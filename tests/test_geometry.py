import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenescale import (
    CameraModel,
    ObjectiveConfig,
    Person,
    Scene,
    SchemaError,
    WeakPerspectiveCam,
    loss_and_gradients,
)
from scenescale.errors import BehindCameraError
from scenescale.geometry import project, weak_to_perspective
from scenescale.objective import BEHIND_PENALTY, Z_EPSILON

CAM = CameraModel(focal=1000.0, image_size=(1000, 1000))  # principal point (500, 500)


def project_clamped(points, cam, z_epsilon=Z_EPSILON):
    """Pixels with z clamped to z_epsilon, and the mask of clamped points.

    The objective projects joints this way, so it stays finite behind the
    camera.
    """
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    zc = np.maximum(z, z_epsilon)
    cx, cy = cam.principal_point
    u = cam.focal * points[..., 0] / zc + cx
    v = cam.focal * points[..., 1] / zc + cy
    return np.stack([u, v], axis=-1), z < z_epsilon


def project_jacobian(point):
    """The 2x3 projection Jacobian as the objective's gradient applies it.

    One live joint at ``point`` with a 1 px residual along u (then v) has
    d(loss)/dt = -J^T u, so each residual direction reads out one row.  A
    joint behind the clamp also gets the behind-camera push-back
    -BEHIND_PENALTY in d(loss)/dz, which is taken out again here.
    """
    point = np.asarray(point, dtype=float)
    rows = []
    for unit in np.eye(2):
        person = Person(
            joints=np.array([point, point]),
            rotation=np.eye(3),
            translation=np.zeros(3),
            confidences=np.array([1.0, 0.0]),
            ankle_left_idx=0,
            ankle_right_idx=1,
            head_idx=1,
            foot_chain=(0,),
        )
        person.ref_keypoints = project_clamped(person.joints, CAM)[0] + unit
        cfg = ObjectiveConfig(mode="reprojection_only")
        _, grad_t, _ = loss_and_gradients(Scene([person], CAM), cfg)
        if point[2] < Z_EPSILON:
            grad_t[0, 2] += BEHIND_PENALTY
        rows.append(-grad_t[0])
    return np.array(rows)


def test_weak_to_perspective_unit_sigma():
    t = weak_to_perspective(WeakPerspectiveCam(sigma=1.0), CAM)
    assert np.allclose(t, [0.0, 0.0, 1000.0])


def test_weak_to_perspective_sigma_equals_focal():
    t = weak_to_perspective(WeakPerspectiveCam(sigma=1000.0), CAM)
    assert t[2] == 1.0


def test_weak_to_perspective_passthrough_translation():
    t = weak_to_perspective(WeakPerspectiveCam(sigma=2.0, tx=0.5, ty=-0.3), CAM)
    assert np.allclose(t, [0.5, -0.3, 500.0])


def test_nonpositive_sigma_rejected():
    with pytest.raises(SchemaError):
        WeakPerspectiveCam(sigma=0.0)
    with pytest.raises(SchemaError):
        WeakPerspectiveCam(sigma=-2.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(SchemaError):
            WeakPerspectiveCam(sigma=bad)


def test_project_on_axis():
    cam = CameraModel(1000.0, (1000, 1000), principal_point=(500.0, 500.0))
    assert np.allclose(project(np.array([0.0, 0.0, 5.0]), cam), [500.0, 500.0])


def test_project_formula():
    cam = CameraModel(1000.0, (1000, 1000), principal_point=(0.0, 0.0))
    assert np.allclose(project(np.array([1.0, 2.0, 10.0]), cam), [100.0, 200.0])


def test_project_derived_example():
    cam = CameraModel(1000.0, (1920, 1080), principal_point=(960.0, 540.0))
    px = project(np.array([0.5, -0.3, 500.0]), cam)
    assert np.allclose(px, [961.0, 539.4])


def test_project_behind_camera_raises():
    with pytest.raises(BehindCameraError):
        project(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), CAM)
    with pytest.raises(BehindCameraError):
        project(np.array([0.0, 0.0, 0.0]), CAM)


def test_project_clamped_handles_behind_points():
    # the objective scores a joint behind the camera at the pixel it would
    # have at the Z_EPSILON clamp, plus BEHIND_PENALTY per meter behind it
    pts = np.array([[0.1, 0.0, 2.0], [0.1, 0.0, -3.0]])
    at_clamp = project(np.array([0.1, 0.0, Z_EPSILON]), CAM)
    person = Person(
        joints=pts,
        rotation=np.eye(3),
        translation=np.zeros(3),
        ref_keypoints=np.array([project(pts[0], CAM), at_clamp + [3.0, 4.0]]),
        ankle_left_idx=0,
        ankle_right_idx=1,
        head_idx=1,
        foot_chain=(0,),
    )
    cfg = ObjectiveConfig(mode="reprojection_only")
    breakdown, _, _ = loss_and_gradients(Scene([person], CAM), cfg)
    assert breakdown.reprojection == pytest.approx(5.0 + BEHIND_PENALTY * (Z_EPSILON + 3.0))
    px, clamped = project_clamped(pts, CAM)
    assert clamped.tolist() == [False, True]
    assert np.allclose(px, [project(pts[0], CAM), at_clamp])


def test_jacobian_on_axis():
    jac = project_jacobian([0.0, 0.0, 5.0])
    assert np.allclose(jac, [[200.0, 0.0, 0.0], [0.0, 200.0, 0.0]])


def test_jacobian_formula():
    jac = project_jacobian([1.0, 2.0, 10.0])
    assert np.allclose(jac, [[100.0, 0.0, -10.0], [0.0, 100.0, -20.0]])


def test_jacobian_clamped_zeroes_depth_column():
    jac = project_jacobian([0.2, -0.1, -5.0])
    assert np.all(jac[:, 2] == 0.0)
    # x/y columns evaluated at the clamped depth
    ref = project_jacobian([0.2, -0.1, Z_EPSILON])
    assert np.allclose(jac[:, :2], ref[:, :2])


def test_jacobian_matches_central_differences_single_point():
    rng = np.random.default_rng(3)
    p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 20)])
    jac = project_jacobian(p)
    h = 1e-6 * max(1.0, abs(p[2]))
    fd = np.zeros((2, 3))
    for d in range(3):
        dp = np.zeros(3)
        dp[d] = h
        fd[:, d] = (project(p + dp, CAM) - project(p - dp, CAM)) / (2 * h)
    assert np.max(np.abs(fd - jac)) / np.max(np.abs(jac)) < 1e-6


def test_jacobian_matches_central_differences_bulk():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform(0.5, 100.0)
        p = np.array([rng.uniform(-z, z), rng.uniform(-z, z), z])
        jac = project_jacobian(p)
        h = 1e-5 * max(1.0, abs(z))
        for d in range(3):
            dp = np.zeros(3)
            dp[d] = h
            fd = (project(p + dp, CAM) - project(p - dp, CAM)) / (2 * h)
            scale = max(np.max(np.abs(jac[:, d])), 1.0)
            worst = max(worst, np.max(np.abs(fd - jac[:, d])) / scale)
    assert worst < 1e-5


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    z=st.floats(0.1, 100),
    s=st.floats(0.01, 100),
)
def test_projection_scale_invariance(x, y, z, s):
    p = np.array([x, y, z])
    a = project(p, CAM)
    b = project(s * p, CAM)
    assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, np.max(np.abs(a)))


@settings(max_examples=100, deadline=None)
@given(
    s1=st.floats(0.01, 1000),
    s2=st.floats(0.01, 1000),
)
def test_weak_perspective_depth_monotone(s1, s2):
    if s1 == s2:
        return
    lo, hi = min(s1, s2), max(s1, s2)
    d_lo = weak_to_perspective(WeakPerspectiveCam(lo), CAM)[2]
    d_hi = weak_to_perspective(WeakPerspectiveCam(hi), CAM)[2]
    assert d_lo > d_hi


def test_camera_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(SchemaError):
            CameraModel(focal=bad)
    with pytest.raises(SchemaError):
        CameraModel(focal=100.0, image_size=(0, 100))
    cam = CameraModel(500.0, (640, 480))
    assert np.allclose(cam.principal_point, [320.0, 240.0])
