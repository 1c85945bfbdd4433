import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenescale import (
    CameraModel,
    GroundPlane,
    Person,
    Scene,
    SchemaError,
)
from scenescale.geometry import project
from scenescale.planefit import select_reference_person
from scenescale.scene import person_height, posed_joints
from scenescale.synth import joint_template


def two_joint_person(**kw):
    defaults = dict(
        joints=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        rotation=np.eye(3),
        translation=np.zeros(3),
        ankle_left_idx=0,
        ankle_right_idx=1,
        head_idx=1,
        foot_chain=(0,),
    )
    defaults.update(kw)
    return Person(**defaults)


def test_posed_joint_identity():
    p = two_joint_person(joints=np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]]))
    assert np.allclose(posed_joints(p)[0], [1.0, 2.0, 3.0])


def test_posed_joint_scale_translate():
    p = two_joint_person(
        joints=np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
        translation=np.array([0.0, 0.0, 10.0]),
        scale=2.0,
    )
    assert np.allclose(posed_joints(p)[0], [0.0, -2.0, 10.0])


def test_posed_joint_rotation():
    rot_z_90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    p = two_joint_person(
        joints=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        rotation=rot_z_90,
        translation=np.array([1.0, 0.0, 0.0]),
        scale=1.5,
    )
    assert np.allclose(posed_joints(p)[0], [1.0, 1.5, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.1, 5.0),
    tx=st.floats(-5, 5),
    ty=st.floats(-5, 5),
    tz=st.floats(-5, 5),
)
def test_posed_joint_translation_linearity(s, tx, ty, tz):
    t = np.array([tx, ty, tz])
    joints = np.array([[0.3, -0.4, 0.2], [0.1, 0.9, -0.5]])
    with_t = two_joint_person(joints=joints, translation=t, scale=s)
    without = two_joint_person(joints=joints, translation=np.zeros(3), scale=s)
    diff = posed_joints(with_t) - posed_joints(without)
    assert np.allclose(diff, np.tile(t, (2, 1)), rtol=0, atol=1e-12)


def test_person_height_single_segment():
    p = two_joint_person(joints=np.array([[0.0, 0.0, 0.0], [0.0, 1.7, 0.0]]))
    assert person_height(p) == pytest.approx(1.7)


def test_person_height_scales_linearly():
    p = two_joint_person(
        joints=np.array([[0.0, 0.0, 0.0], [0.0, 1.7, 0.0]]), scale=1.1
    )
    assert person_height(p) == pytest.approx(1.87)


def test_person_height_chain_sum():
    # head -> spine -> knee -> ankle, summed segment by segment
    joints = np.array(
        [
            [0.0, 1.6, 0.0],   # 0 head
            [0.1, 1.0, 0.1],   # 1 spine
            [0.0, 0.5, 0.2],   # 2 knee
            [0.05, 0.0, 0.0],  # 3 ankle
        ]
    )
    p = Person(
        joints=joints,
        rotation=np.eye(3),
        translation=np.zeros(3),
        ankle_left_idx=3,
        ankle_right_idx=2,
        head_idx=0,
        foot_chain=(1, 2, 3),
    )
    expected = sum(
        np.linalg.norm(joints[a] - joints[b]) for a, b in ((0, 1), (1, 2), (2, 3))
    )
    assert person_height(p) == pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.05, 20.0))
def test_person_height_scale_property(s):
    joints = joint_template(1.7)
    base = Person(joints=joints, rotation=np.eye(3), translation=np.zeros(3))
    scaled = Person(joints=joints, rotation=np.eye(3), translation=np.zeros(3), scale=s)
    assert person_height(scaled) == pytest.approx(s * person_height(base), rel=1e-12)


def _reference_scene(offsets_px):
    """Persons whose keypoints are exact projections shifted by given norms."""
    cam = CameraModel(1000.0, (1920, 1080))
    persons = []
    for i, off in enumerate(offsets_px):
        joints = joint_template(1.7)
        t = np.array([0.5 * i - 0.5, 0.2, 5.0 + i])
        person = Person(joints=joints, rotation=np.eye(3), translation=t)
        kp = project(posed_joints(person), cam)
        kp = kp + np.array([off, 0.0])  # constant shift of norm `off` per joint
        person.ref_keypoints = kp
        persons.append(person)
    return Scene(persons, cam)


def test_select_reference_single():
    scene = _reference_scene([4.0])
    assert select_reference_person(scene) == 0


def test_select_reference_exact_projection_wins():
    scene = _reference_scene([3.0, 0.0])
    assert select_reference_person(scene) == 1


def test_select_reference_lowest_noise():
    scene = _reference_scene([0.0, 2.0, 5.0])
    assert select_reference_person(scene) == 0


def test_select_reference_joint_permutation_invariant():
    scene = _reference_scene([5.0, 1.0, 3.0])
    rng = np.random.default_rng(0)
    for person in scene.persons:
        perm = rng.permutation(person.n_joints)
        person.joints = person.joints[perm]
        person.ref_keypoints = person.ref_keypoints[perm]
        person.confidences = person.confidences[perm]
    assert select_reference_person(scene) == 1


def test_person_validation():
    with pytest.raises(SchemaError):
        two_joint_person(rotation=np.eye(3) * 2.0)  # not orthonormal
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(SchemaError):
            two_joint_person(scale=bad)
    with pytest.raises(SchemaError):
        two_joint_person(confidences=np.array([0.5, 1.5]))
    with pytest.raises(SchemaError):
        two_joint_person(ankle_right_idx=0)  # same as left
    with pytest.raises(SchemaError):
        two_joint_person(head_idx=7)  # out of range
    # an index that is not a whole number is an error naming it, never truncated
    for field, value in [("ankle_left_idx", 0.5), ("ankle_right_idx", 1.25),
                         ("head_idx", True), ("head_idx", "1"), ("head_idx", np.nan),
                         ("foot_chain", (0.9,))]:
        with pytest.raises(SchemaError, match=field):
            two_joint_person(**{field: value})
    with pytest.raises(SchemaError):
        Person(joints=np.zeros((1, 3)), rotation=np.eye(3), translation=np.zeros(3))


def test_person_keeps_whole_float_indices():
    person = two_joint_person(ankle_left_idx=0.0, head_idx=np.int64(1), foot_chain=(1.0, 0))
    assert (person.ankle_left_idx, person.head_idx, person.foot_chain) == (0, 1, (1, 0))
    assert all(type(i) is int for i in (person.ankle_left_idx, person.head_idx, *person.foot_chain))


def test_plane_normalizes_normal():
    plane = GroundPlane(normal=(0.0, 2.0, 0.0), point=(0.0, 0.0, 0.0))
    assert np.allclose(plane.normal, [0.0, 1.0, 0.0])
    assert plane.signed_distance(np.array([1.0, 3.0, -2.0])) == pytest.approx(3.0)
    with pytest.raises(SchemaError):
        GroundPlane(normal=(0.0, 0.0, 0.0), point=(0.0, 0.0, 0.0))


def test_scene_needs_a_person():
    with pytest.raises(SchemaError):
        Scene(persons=[], camera=CameraModel())


def test_scene_copy_is_deep():
    scene = _reference_scene([1.0])
    dup = scene.copy()
    dup.persons[0].translation[2] = 99.0
    dup.persons[0].scale = 3.0
    assert scene.persons[0].translation[2] == 5.0
    assert scene.persons[0].scale == 1.0
