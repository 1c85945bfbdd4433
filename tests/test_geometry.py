import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenescale import (
    BehindCameraError,
    CameraModel,
    InvalidCameraError,
    ObjectiveConfig,
    Person,
    Scene,
    WeakPerspectiveCam,
    crop_to_weak_perspective,
    loss_and_gradients,
    project,
    project_clamped,
    weak_to_perspective,
)

CAM = CameraModel(focal=1000.0, image_size=(1000, 1000))  # principal point (500, 500)


def project_jacobian(point, z_epsilon=1e-3):
    """The 2x3 projection Jacobian as the objective's gradient applies it.

    One live joint at ``point`` with a 1 px residual along u (then v) has
    d(loss)/dt = -J^T u, so each residual direction reads out one row.
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
        person.ref_keypoints = project_clamped(person.joints, CAM, z_epsilon)[0] + unit
        cfg = ObjectiveConfig(mode="reprojection_only", z_epsilon=z_epsilon, behind_penalty=0.0)
        _, grad_t, _ = loss_and_gradients(Scene([person], CAM), cfg)
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
    with pytest.raises(InvalidCameraError):
        WeakPerspectiveCam(sigma=0.0)
    with pytest.raises(InvalidCameraError):
        WeakPerspectiveCam(sigma=-2.0)


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
    pts = np.array([[0.1, 0.0, 2.0], [0.1, 0.0, -3.0]])
    px, clamped = project_clamped(pts, CAM, z_epsilon=1e-3)
    assert clamped.tolist() == [False, True]
    assert np.allclose(px[0], project(pts[0], CAM))
    # behind point projects as if at the epsilon depth
    assert np.allclose(px[1], project(np.array([0.1, 0.0, 1e-3]), CAM))


def test_jacobian_on_axis():
    jac = project_jacobian([0.0, 0.0, 5.0])
    assert np.allclose(jac, [[200.0, 0.0, 0.0], [0.0, 200.0, 0.0]])


def test_jacobian_formula():
    jac = project_jacobian([1.0, 2.0, 10.0])
    assert np.allclose(jac, [[100.0, 0.0, -10.0], [0.0, 100.0, -20.0]])


def test_jacobian_clamped_zeroes_depth_column():
    jac = project_jacobian([0.2, -0.1, -5.0], z_epsilon=1e-3)
    assert np.all(jac[:, 2] == 0.0)
    # x/y columns evaluated at the clamped depth
    ref = project_jacobian([0.2, -0.1, 1e-3])
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


@settings(max_examples=100, deadline=None)
@given(
    crop_scale=st.floats(0.2, 5.0),
    tx=st.floats(-1.0, 1.0),
    ty=st.floats(-1.0, 1.0),
    u0=st.floats(200, 1700),
    v0=st.floats(200, 900),
    body_x=st.floats(-0.5, 0.5),
    body_y=st.floats(-0.5, 0.5),
)
def test_crop_conversion_matches_crop_projection(crop_scale, tx, ty, u0, v0, body_x, body_y):
    """Lifting the converted camera reproduces the crop's projection rule."""
    cam = CameraModel(1000.0, (1920, 1080))
    crop_size = 224.0
    wp = crop_to_weak_perspective(crop_scale, tx, ty, (u0, v0), crop_size, cam)
    t = weak_to_perspective(wp, cam)
    # crop convention: u = u0 + (b/2) * s * (X + t_x)
    u_crop = u0 + (crop_size / 2) * crop_scale * (body_x + tx)
    v_crop = v0 + (crop_size / 2) * crop_scale * (body_y + ty)
    px = project(np.array([body_x + t[0], body_y + t[1], t[2]]), cam)
    assert np.allclose(px, [u_crop, v_crop], atol=1e-6)


def test_camera_validation():
    with pytest.raises(InvalidCameraError):
        CameraModel(focal=0.0)
    with pytest.raises(InvalidCameraError):
        CameraModel(focal=100.0, image_size=(0, 100))
    cam = CameraModel(500.0, (640, 480))
    assert np.allclose(cam.principal_point, [320.0, 240.0])
