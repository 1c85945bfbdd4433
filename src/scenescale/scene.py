"""Scene data model: persons, ground plane, and posing.

A person carries body-frame joints ``J`` (meters, y up), a fixed rotation
``R``, and the two quantities the optimizer adjusts: a camera-frame
translation ``t`` and a uniform body scale ``s``.  The posed joint k is

    x_k = s * R @ J[k] + t

Joint indexing defaults to a 24-joint SMPL-ordered skeleton (ankles at 7/8,
head at 15); scene files may override the indices for other conventions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError, positive_number, real_array, whole_number
from .geometry import CameraModel, WeakPerspectiveCam, weak_to_perspective

# Default joint indices (SMPL 24-joint order).
ANKLE_LEFT = 7
ANKLE_RIGHT = 8
HEAD = 15
# head -> neck -> left hip -> left knee -> left ankle
FOOT_CHAIN = (12, 1, 4, 7)


@dataclass
class GroundPlane:
    """Plane through ``point`` with unit ``normal``; distances are signed by n."""

    normal: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        n = real_array(self.normal, "plane.normal", (3,))
        with np.errstate(over="ignore"):  # a huge entry gives norm inf: refused
            norm = float(np.linalg.norm(n))
        if not 1e-12 <= norm < np.inf:
            raise SchemaError(f"plane.normal must be nonzero with a finite norm, got {n}")
        self.normal = n / norm
        self.point = real_array(self.point, "plane.point", (3,))

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed point-to-plane distance, (...,3) -> (...)."""
        points = np.asarray(points, dtype=float)
        return (points - self.point) @ self.normal

    def copy(self) -> "GroundPlane":
        return GroundPlane(self.normal.copy(), self.point.copy())


@dataclass
class Person:
    """One person: body-frame joints plus the per-person pose/camera state."""

    joints: np.ndarray            # (K, 3) body frame, meters
    rotation: np.ndarray          # (3, 3) orthonormal
    translation: np.ndarray | None = None     # (3,) camera frame, meters
    scale: float = 1.0
    ref_keypoints: np.ndarray | None = None   # (K, 2) pixels
    confidences: np.ndarray | None = None     # (K,) in [0, 1]
    weak_cam: WeakPerspectiveCam | None = None  # upstream estimate, lifted by Scene
    ankle_left_idx: int = ANKLE_LEFT
    ankle_right_idx: int = ANKLE_RIGHT
    head_idx: int = HEAD
    foot_chain: tuple[int, ...] = FOOT_CHAIN

    def __post_init__(self):
        self.joints = real_array(self.joints, "joints")
        if self.joints.ndim != 2 or self.joints.shape[1] != 3 or self.joints.shape[0] < 2:
            raise SchemaError(f"joints must be (K>=2, 3), got shape {self.joints.shape}")
        k = self.joints.shape[0]
        self.rotation = real_array(self.rotation, "rotation", (3, 3))
        with np.errstate(over="ignore"):  # a huge entry overflows to inf: refused
            off = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3)))
        if off > 1e-6:
            raise SchemaError("rotation is not orthonormal within 1e-6")
        if self.translation is not None:
            self.translation = real_array(self.translation, "translation", (3,))
        self.scale = positive_number(self.scale, "scale")
        if self.ref_keypoints is not None:
            self.ref_keypoints = real_array(self.ref_keypoints, "ref_keypoints", (k, 2))
        if self.confidences is None:
            self.confidences = np.ones(k)
        else:
            self.confidences = real_array(self.confidences, "confidences", (k,))
            if np.any(self.confidences < 0) or np.any(self.confidences > 1):
                raise SchemaError("confidences must lie in [0, 1]")
        for name in ("ankle_left_idx", "ankle_right_idx", "head_idx"):
            idx = whole_number(getattr(self, name), name)
            setattr(self, name, idx)
            if not 0 <= idx < k:
                raise SchemaError(f"{name}={idx} out of range for K={k}")
        if self.ankle_left_idx == self.ankle_right_idx:
            raise SchemaError("ankle indices must be distinct")
        try:
            self.foot_chain = tuple(whole_number(i, "foot_chain") for i in self.foot_chain)
        except TypeError:  # not a list
            raise SchemaError(f"foot_chain must be a list, got {self.foot_chain!r}") from None
        for idx in self.foot_chain:
            if not 0 <= idx < k:
                raise SchemaError(f"foot_chain index {idx} out of range for K={k}")

    @property
    def n_joints(self) -> int:
        return self.joints.shape[0]

    def copy(self) -> "Person":
        """A deep copy; the person was judged when built, so it is not judged again."""
        return copy.deepcopy(self)


@dataclass
class Scene:
    """All persons in one frame plus the shared camera and optional plane.

    Every person of a scene has a translation: one without gets it lifted
    from its weak-perspective camera here.
    """

    persons: list[Person]
    camera: CameraModel = field(default_factory=CameraModel)
    plane: GroundPlane | None = None

    def __post_init__(self):
        if len(self.persons) < 1:
            raise SchemaError("scene needs at least one person")
        for i, person in enumerate(self.persons):
            if person.translation is None:
                if person.weak_cam is None:
                    raise SchemaError(f"persons[{i}]: need 'translation' or 'weak_cam'")
                person.translation = real_array(
                    weak_to_perspective(person.weak_cam, self.camera),
                    f"persons[{i}]: the translation lifted from weak_cam")

    def copy(self) -> "Scene":
        return Scene(
            persons=[p.copy() for p in self.persons],
            camera=self.camera,
            plane=None if self.plane is None else self.plane.copy(),
        )


def posed_joints(person: Person) -> np.ndarray:
    """All posed joints at once, (K, 3)."""
    # scale applied after the rotation so this matches the optimizer's
    # internal split (rotated joints cached for the scale gradient)
    return person.scale * (person.joints @ person.rotation.T) + person.translation


def posed_ankles(person: Person) -> np.ndarray:
    """Posed left and right ankle, (2, 3)."""
    return posed_joints(person)[[person.ankle_left_idx, person.ankle_right_idx]]


def person_height(person: Person) -> float:
    """Stature estimate: summed segment lengths along the head-to-foot chain.

    Measured on posed joints, so it scales linearly with person.scale
    (rotation and translation do not change segment lengths).
    """
    chain = (person.head_idx,) + person.foot_chain
    if len(chain) < 2:
        raise SchemaError("height chain needs at least two joints")
    pts = posed_joints(person)[list(chain)]
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
