import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_optimum_scene, plane_term, random_scene, ragged_scene, reprojection
from scenescale import (
    CameraModel,
    GroundPlane,
    MissingPlaneError,
    ObjectiveConfig,
    Person,
    Scene,
    SchemaError,
    loss_and_gradients,
)
from scenescale.geometry import project
from scenescale.objective import KINK_EPS, Z_EPSILON, PackedScene, _evaluate_theta
from scenescale.scene import posed_joints

CAM = CameraModel(1000.0, (1920, 1080))


def per_person_terms(scene, cfg):
    """Each person's reprojection and plane term, (N,) each, as copies."""
    packed = PackedScene(scene, cfg)
    rep, plane, _ = _evaluate_theta(packed, packed.theta)
    return rep.copy(), plane.copy()


def exact_scene(n_persons=2, n_joints=24, seed=0):
    """Scene whose keypoints are the exact projections of its posed joints."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n_persons=n_persons, n_joints=n_joints, noise_px=0.0)
    return scene


def ankle_offset_person(left, right, scale=1.0):
    """Two-joint person whose posed ankles sit at y=left and y=right."""
    return Person(
        joints=np.array([[0.0, left, 0.0], [0.0, right, 0.0]]),
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, 5.0]),
        scale=scale,
        ankle_left_idx=0,
        ankle_right_idx=1,
        head_idx=1,
        foot_chain=(0,),
    )


def plane_y0_scene(offset_pairs):
    persons = [ankle_offset_person(a, b) for a, b in offset_pairs]
    plane = GroundPlane(normal=(0.0, 1.0, 0.0), point=(0.0, 0.0, 0.0))
    return Scene(persons, CAM, plane=plane)


# --- reprojection ---


def test_reprojection_exact_is_zero():
    scene = exact_scene()
    assert reprojection(scene) == 0.0


def test_reprojection_single_joint_offset():
    # second joint carries zero confidence so only the 3 px error counts
    p = Person(
        joints=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, 5.0]),
        confidences=np.array([1.0, 0.0]),
        ankle_left_idx=0,
        ankle_right_idx=1,
        head_idx=1,
        foot_chain=(0,),
    )
    kp = project(posed_joints(p), CAM)
    kp[0, 0] += 3.0
    p.ref_keypoints = kp
    scene = Scene([p], CAM)
    assert reprojection(scene) == pytest.approx(3.0, abs=1e-12)


def test_reprojection_matches_brute_force():
    rng = np.random.default_rng(7)
    scene = random_scene(rng, n_persons=2, n_joints=24)
    expected = 0.0
    for person in scene.persons:
        pix = project(posed_joints(person), scene.camera)
        for k in range(person.n_joints):
            expected += person.confidences[k] * np.linalg.norm(
                person.ref_keypoints[k] - pix[k]
            )
    assert reprojection(scene) == pytest.approx(expected, rel=1e-12)


def test_reprojection_ignores_zero_confidence():
    rng = np.random.default_rng(11)
    scene = random_scene(rng, n_persons=1)
    person = scene.persons[0]
    person.confidences = np.zeros(person.n_joints)
    person.confidences[:4] = 1.0
    base = reprojection(scene)
    person.ref_keypoints[4:] += 500.0  # arbitrary corruption of dead joints
    assert reprojection(scene) == base


# --- plane ---


def test_plane_on_plane_is_zero():
    scene = plane_y0_scene([(0.0, 0.0), (0.0, 0.0)])
    assert plane_term(scene) == 0.0


def test_plane_half_meter_both_ankles():
    scene = plane_y0_scene([(0.5, 0.5)])
    assert plane_term(scene) == pytest.approx(1.0, abs=1e-15)


def test_plane_three_person_offsets():
    scene = plane_y0_scene([(0.1, -0.2), (0.0, 0.0), (0.3, 0.3)])
    assert plane_term(scene) == pytest.approx(0.9, abs=1e-15)


def test_plane_requires_plane():
    scene = plane_y0_scene([(0.1, 0.1)])
    scene.plane = None
    with pytest.raises(MissingPlaneError):
        plane_term(scene)


@settings(max_examples=50, deadline=None)
@given(
    dx=st.floats(-10, 10),
    dy=st.floats(-10, 10),
    dz=st.floats(-10, 10),
)
def test_plane_translation_equivariance(dx, dy, dz):
    shift = np.array([dx, dy, dz])
    scene = plane_y0_scene([(0.13, -0.41), (0.07, 0.0)])
    base = plane_term(scene)
    for person in scene.persons:
        person.translation = person.translation + shift
    scene.plane = GroundPlane(normal=scene.plane.normal, point=scene.plane.point + shift)
    assert plane_term(scene) == pytest.approx(base, abs=1e-9)


# --- total ---


def test_total_lambda_zero_is_reprojection():
    rng = np.random.default_rng(3)
    scene = random_scene(rng)
    cfg = ObjectiveConfig(lam=0.0)
    breakdown = loss_and_gradients(scene, cfg)[0]
    assert breakdown.total == pytest.approx(reprojection(scene), rel=1e-12)


def test_total_plane_only():
    scene = plane_y0_scene([(0.25, -0.35)])
    for person in scene.persons:
        person.ref_keypoints = project(posed_joints(person), CAM) + 40.0
    cfg = ObjectiveConfig(lam=2.5, mode="plane_only")
    breakdown = loss_and_gradients(scene, cfg)[0]
    assert breakdown.reprojection == 0.0
    assert breakdown.total == pytest.approx(2.5 * plane_term(scene), rel=1e-12)


def test_total_combines_components():
    # one person with a single 3 px error, ankles 0.5/0.1 and 0.2/0.4 off
    # the plane: reprojection 3, plane 1.2, lam=1 -> 4.2
    persons = [ankle_offset_person(0.5, 0.1), ankle_offset_person(0.2, 0.4)]
    plane = GroundPlane(normal=(0.0, 1.0, 0.0), point=(0.0, 0.0, 0.0))
    for person in persons:
        person.translation = np.array([0.0, 0.0, 5.0])
        person.joints = person.joints - [0.0, 0.0, 0.0]
    # ankles must keep their y offsets after the z shift; plane is y=0 so
    # translation in z does not change the distances
    persons[0].confidences = np.array([1.0, 0.0])
    persons[1].confidences = np.zeros(2)
    kp0 = project(posed_joints(persons[0]), CAM)
    kp0[0, 1] += 3.0
    persons[0].ref_keypoints = kp0
    persons[1].ref_keypoints = project(posed_joints(persons[1]), CAM)
    scene = Scene(persons, CAM, plane=plane)
    breakdown = loss_and_gradients(scene, ObjectiveConfig(lam=1.0))[0]
    assert breakdown.reprojection == pytest.approx(3.0, abs=1e-9)
    assert breakdown.plane == pytest.approx(1.2, abs=1e-12)
    assert breakdown.total == pytest.approx(4.2, abs=1e-9)


def test_total_breakdown_consistency():
    rng = np.random.default_rng(5)
    scene = random_scene(rng, n_persons=3)
    cfg = ObjectiveConfig(lam=7.0)
    breakdown = loss_and_gradients(scene, cfg)[0]
    assert breakdown.total == pytest.approx(
        breakdown.reprojection + 7.0 * breakdown.plane, rel=1e-12
    )
    assert breakdown.total >= 0.0
    rep, plane = per_person_terms(scene, cfg)
    assert rep.shape == plane.shape == (3,)
    assert breakdown.reprojection == sum(rep.tolist())
    assert breakdown.plane == sum(plane.tolist())


def test_config_validation():
    with pytest.raises(SchemaError):
        ObjectiveConfig(lam=-1.0)
    with pytest.raises(SchemaError):
        ObjectiveConfig(mode="both")


# --- gradients ---


def test_gradients_zero_at_exact_optimum():
    scene = exact_optimum_scene(seed=2)
    assert plane_term(scene) < 1e-12
    assert reprojection(scene) == 0.0
    grad_t, grad_s = loss_and_gradients(scene, ObjectiveConfig(lam=1.0))[1:]
    assert np.all(grad_t == 0.0)
    assert np.all(grad_s == 0.0)


def test_gradient_plane_only_unit_normal():
    scene = plane_y0_scene([(0.5, 0.3)])
    grad_t, grad_s = loss_and_gradients(scene, ObjectiveConfig(lam=1.0, mode="plane_only"))[1:]
    assert grad_t[0] == pytest.approx([0.0, 2.0, 0.0], abs=1e-12)


def fd_gradient(scene, cfg, h_rel=1e-6):
    """Central finite differences over every t component and every scale."""
    n = len(scene.persons)
    fd_t = np.zeros((n, 3))
    fd_s = np.zeros(n)

    def value(mutate):
        probe = scene.copy()
        mutate(probe)
        return loss_and_gradients(probe, cfg)[0].total

    for i in range(n):
        for j in range(3):
            base = scene.persons[i].translation[j]
            h = h_rel * max(1.0, abs(base))

            def plus(sc, i=i, j=j, h=h):
                sc.persons[i].translation[j] += h

            def minus(sc, i=i, j=j, h=h):
                sc.persons[i].translation[j] -= h

            fd_t[i, j] = (value(plus) - value(minus)) / (2 * h)
        base_s = scene.persons[i].scale
        hs = h_rel * max(1.0, abs(base_s))

        def splus(sc, i=i, hs=hs):
            sc.persons[i].scale += hs

        def sminus(sc, i=i, hs=hs):
            sc.persons[i].scale -= hs

        fd_s[i] = (value(splus) - value(sminus)) / (2 * hs)
    return fd_t, fd_s


def residual_floor(scene):
    """Smallest residual magnitude; used to skip scenes near a kink."""
    floors = []
    for person in scene.persons:
        pix = project(posed_joints(person), scene.camera)
        floors.append(np.linalg.norm(person.ref_keypoints - pix, axis=1).min())
        ankles = posed_joints(person)[[person.ankle_left_idx, person.ankle_right_idx]]
        floors.append(np.abs(scene.plane.signed_distance(ankles)).min())
    return min(floors)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    cfg = ObjectiveConfig(lam=1.0)
    checked = 0
    for _ in range(40):
        scene = random_scene(rng, n_persons=2, n_joints=16)
        if residual_floor(scene) < 1e-8:
            continue
        grad_t, grad_s = loss_and_gradients(scene, cfg)[1:]
        fd_t, fd_s = fd_gradient(scene, cfg)
        scale = max(np.abs(fd_t).max(), np.abs(fd_s).max(), 1.0)
        assert np.abs(grad_t - fd_t).max() / scale < 1e-4
        assert np.abs(grad_s - fd_s).max() / scale < 1e-4
        checked += 1
    assert checked >= 30


def test_gradients_finite_behind_camera():
    p = ankle_offset_person(0.0, 0.0)
    p.translation = np.array([0.0, 0.0, -1.0])
    p.ref_keypoints = np.array([[960.0, 540.0], [960.0, 540.0]])
    plane = GroundPlane(normal=(0.0, 1.0, 0.0), point=(0.0, 0.0, 0.0))
    scene = Scene([p], CAM, plane=plane)
    cfg = ObjectiveConfig(lam=1.0)
    breakdown, grad_t, grad_s = loss_and_gradients(scene, cfg)
    assert np.isfinite(breakdown.total)
    assert np.all(np.isfinite(grad_t)) and np.all(np.isfinite(grad_s))
    # the penalty must push z forward: d(loss)/d(tz) < 0
    assert grad_t[0, 2] < 0.0


def test_behind_penalty_grows_with_depth_violation():
    cfg = ObjectiveConfig(mode="reprojection_only")
    totals = []
    for z in (-0.5, -1.0, -2.0):
        p = ankle_offset_person(0.0, 0.0)
        p.translation = np.array([0.0, 0.0, z])
        p.ref_keypoints = np.array([[960.0, 540.0], [960.0, 540.0]])
        scene = Scene([p], CAM)
        totals.append(loss_and_gradients(scene, cfg)[0].total)
    assert totals[0] < totals[1] < totals[2]


def test_loss_and_gradients_single_pass_agrees():
    # the full mode is exactly the sum of its two single-term modes
    rng = np.random.default_rng(19)
    scene = random_scene(rng, n_persons=3)
    breakdown, grad_t, grad_s = loss_and_gradients(scene, ObjectiveConfig(lam=4.0))
    rep, rep_t, rep_s = loss_and_gradients(scene, ObjectiveConfig(4.0, mode="reprojection_only"))
    pln, pln_t, pln_s = loss_and_gradients(scene, ObjectiveConfig(4.0, mode="plane_only"))
    assert breakdown.reprojection == rep.reprojection
    assert breakdown.plane == pln.plane
    full_rep, full_plane = per_person_terms(scene, ObjectiveConfig(lam=4.0))
    rep_only, _ = per_person_terms(scene, ObjectiveConfig(4.0, mode="reprojection_only"))
    _, plane_only = per_person_terms(scene, ObjectiveConfig(4.0, mode="plane_only"))
    assert np.array_equal(full_rep, rep_only)
    assert np.array_equal(full_plane, plane_only)
    assert np.array_equal(grad_t, rep_t + pln_t)
    assert np.array_equal(grad_s, rep_s + pln_s)


# --- packed scenes: the ambiguity ray and ragged joint counts ---


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.floats(0.25, 4.0))
def test_reprojection_invariant_along_ambiguity_ray(seed, k):
    scene = random_scene(np.random.default_rng(seed), n_persons=3)
    cfg = ObjectiveConfig(mode="reprojection_only")
    base = loss_and_gradients(scene, cfg)[0]
    base_rep, _ = per_person_terms(scene, cfg)
    for person in scene.persons:
        person.translation = k * person.translation
        person.scale = k * person.scale
    moved = loss_and_gradients(scene, cfg)[0]
    assert moved.reprojection == pytest.approx(base.reprojection, rel=1e-9)
    moved_rep, _ = per_person_terms(scene, cfg)
    assert moved_rep == pytest.approx(base_rep, rel=1e-9)


def test_ragged_joint_counts_match_one_person_scenes():
    cfg = ObjectiveConfig(lam=3.0)
    for seed in range(5):
        scene = ragged_scene(seed, behind=seed % 2 == 1)
        breakdown, grad_t, grad_s = loss_and_gradients(scene, cfg)
        terms = per_person_terms(scene, cfg)
        for i, person in enumerate(scene.persons):
            alone = Scene([person], scene.camera, plane=scene.plane)
            one, one_t, one_s = loss_and_gradients(alone, cfg)
            for term, single in zip(terms, per_person_terms(alone, cfg)):
                assert term[i] == pytest.approx(single[0], rel=1e-12)
            assert np.allclose(grad_t[i], one_t[0], rtol=1e-12, atol=1e-12)
            assert grad_s[i] == pytest.approx(one_s[0], rel=1e-12, abs=1e-12)
        singles = [loss_and_gradients(Scene([p], scene.camera, plane=scene.plane), cfg)[0]
                   for p in scene.persons]
        assert breakdown.total == pytest.approx(sum(b.total for b in singles), rel=1e-12)


def test_ragged_gradient_matches_finite_differences_behind_camera():
    cfg = ObjectiveConfig(lam=1.0)
    for seed in range(10):
        scene = ragged_scene(seed, behind=True)
        posed = posed_joints(scene.persons[1])
        assert np.any(posed[:, 2] < Z_EPSILON) and np.any(posed[:, 2] > Z_EPSILON)
        _, grad_t, grad_s = loss_and_gradients(scene, cfg)
        fd_t, fd_s = fd_gradient(scene, cfg)
        # per person: the clamped person's gradient is ~1e4 times the others'
        for i in range(len(scene.persons)):
            scale = max(np.abs(fd_t[i]).max(), abs(fd_s[i]), 1.0)
            assert np.abs(grad_t[i] - fd_t[i]).max() / scale < 1e-4
            assert abs(grad_s[i] - fd_s[i]) / scale < 1e-4


def test_packing_is_one_coordinate_major_form_with_its_lam():
    """The person-major joints and keypoints are views of the coordinate-major
    ones, and an evaluation takes lam from the packing: at lam = 2 the plane
    rows of grad_t are exactly twice those at lam = 1."""
    scene = ragged_scene(11)
    plane_rows = {}
    for lam in (1.0, 2.0):
        for mode in ("full", "plane_only"):
            packed = PackedScene(scene, ObjectiveConfig(lam=lam, mode=mode))
            assert np.shares_memory(packed.rotated, packed.rotated_cm)
            assert np.shares_memory(packed.keypoints, packed.keypoints_cm)
            _evaluate_theta(packed, packed.theta)
            assert packed.kinks.min() >= KINK_EPS  # no residual at a kink
            plane_rows[lam, mode] = packed.dx[-1].copy()
            if mode == "plane_only":
                assert np.array_equal(packed.grad_t, packed.dx[-1])
    for mode in ("full", "plane_only"):
        assert np.any(plane_rows[1.0, mode] != 0.0)
        assert np.array_equal(plane_rows[2.0, mode], 2.0 * plane_rows[1.0, mode])
