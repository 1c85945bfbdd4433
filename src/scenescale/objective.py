"""The joint objective over every person's (t, s) and its analytic gradient.

Two terms over the posed joints x_i = s * R @ J_i + t:

  reprojection: sum over persons and joints of c_i * ||kp_i - project(x_i)||
                (unsquared Euclidean norm per joint);
  plane:        sum over persons of |dist(ankle_l)| + |dist(ankle_r)|,
                signed point-to-plane distance of the posed ankles.

The total is reprojection + lam * plane, with either term zeroed by mode.

Both terms have kinks where a residual is exactly zero; there we take the
zero subgradient.  Numerically, any residual norm or ankle distance below
KINK_EPS contributes nothing to the gradient, so a scene at an exact
optimum stays a fixed point of gradient descent instead of dithering on
sign flips of float-roundoff residuals.

Joints behind the camera are projected at z clamped to z_epsilon (where the
pixel no longer depends on z) and add a linear penalty
behind_penalty * c_i * (z_epsilon - z) that pushes them back in front.

A scene is packed once into arrays (persons padded to a common joint count
with zero-confidence joints); the objective is then a pure function of the
flat parameter vector theta = [t^1, ..., t^N, s^1, ..., s^N].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingPlaneError, SchemaError
from .geometry import CameraModel, project_clamped
from .scene import Scene

# Residuals smaller than this are treated as exactly zero in gradients
# (the zero-subgradient choice at the |.| kink).  Set well above float
# roundoff of the projection pipeline: an unsquared norm keeps unit-length
# gradient direction no matter how small the residual, so roundoff-scale
# residuals would otherwise inject full-strength noise into the optimizer.
KINK_EPS = 1e-9

MODES = ("full", "reprojection_only", "plane_only")


@dataclass
class ObjectiveConfig:
    lam: float = 1.0              # plane-term weight
    z_epsilon: float = 1e-3      # behind-camera depth clamp
    mode: str = "full"
    behind_penalty: float = 100.0  # per meter behind the clamp, per unit confidence

    def __post_init__(self):
        self.lam = float(self.lam)
        self.z_epsilon = float(self.z_epsilon)
        self.behind_penalty = float(self.behind_penalty)
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise SchemaError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.z_epsilon) and self.z_epsilon > 0):
            raise SchemaError(f"z_epsilon must be finite and > 0, got {self.z_epsilon}")
        if not (math.isfinite(self.behind_penalty) and self.behind_penalty >= 0):
            raise SchemaError(
                f"behind_penalty must be finite and >= 0, got {self.behind_penalty}"
            )
        if self.mode not in MODES:
            raise SchemaError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class LossBreakdown:
    reprojection: float
    plane: float
    total: float
    per_person: list[tuple[float, float]] = field(default_factory=list)

    @classmethod
    def from_terms(cls, rep: np.ndarray, plane: np.ndarray, lam: float) -> "LossBreakdown":
        """Sum per-person terms (N,) into a breakdown, person by person."""
        rep_list, plane_list = rep.tolist(), plane.tolist()
        rep_sum, plane_sum = sum(rep_list), sum(plane_list)
        per_person = list(zip(rep_list, plane_list))
        return cls(rep_sum, plane_sum, rep_sum + lam * plane_sum, per_person)


@dataclass(frozen=True)
class PackedScene:
    """The fixed arrays of a scene; theta carries everything that moves."""

    rotated: np.ndarray       # (N, K, 3) R @ J_i, zero rows where padded
    keypoints: np.ndarray     # (N, K, 2) pixels, zero where padded
    confidences: np.ndarray   # (N, K), zero where padded or reprojection unused
    ankles: np.ndarray        # (N, 2, 3) rotated left and right ankle
    camera: CameraModel
    normal: np.ndarray | None  # (3,) plane normal, None if plane unused
    offset: float              # plane: n . x = offset


def _pack_scene(scene: Scene, cfg: ObjectiveConfig) -> tuple[PackedScene, np.ndarray]:
    """Arrays of the scene for the terms cfg.mode uses, plus its theta (4N,)."""
    uses_rep = cfg.mode != "plane_only"
    uses_plane = cfg.mode != "reprojection_only"
    if uses_plane and scene.plane is None:
        raise MissingPlaneError(f"mode={cfg.mode!r} needs a ground plane in the scene")
    persons = scene.persons
    n, k = len(persons), max(p.n_joints for p in persons)
    rotated = np.zeros((n, k, 3))
    keypoints = np.zeros((n, k, 2))
    confidences = np.zeros((n, k))
    ankles = np.empty((n, 2, 3))
    for i, person in enumerate(persons):
        if person.translation is None:
            raise SchemaError(f"person {i} has no translation (run initialize first)")
        kj = person.n_joints
        rotated[i, :kj] = person.joints @ person.rotation.T
        ankles[i] = rotated[i, [person.ankle_left_idx, person.ankle_right_idx]]
        if uses_rep:
            if person.ref_keypoints is None:
                raise SchemaError(f"person {i} has no reference keypoints")
            keypoints[i, :kj] = person.ref_keypoints
            confidences[i, :kj] = person.confidences
    normal, offset = None, 0.0
    if uses_plane:
        normal = scene.plane.normal
        offset = float(normal @ scene.plane.point)
    packed = PackedScene(rotated, keypoints, confidences, ankles, scene.camera, normal, offset)
    theta = np.concatenate(
        [np.concatenate([p.translation for p in persons]), [p.scale for p in persons]]
    )
    return packed, theta


def _evaluate_theta(
    packed: PackedScene, theta: np.ndarray, cfg: ObjectiveConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-person reprojection (N,), per-person plane term (N,), d(total)/d(theta) (4N,).

    A term that cfg.mode leaves out reads 0 and adds nothing to the gradient.
    """
    n = packed.rotated.shape[0]
    t = theta[: 3 * n].reshape(n, 3)
    s = theta[3 * n :]
    rep = np.zeros(n)
    plane = np.zeros(n)
    grad_t = np.zeros((n, 3))
    grad_s = np.zeros(n)

    if cfg.mode != "plane_only":
        eps = cfg.z_epsilon
        c = packed.confidences
        posed = s[:, None, None] * packed.rotated + t[:, None, :]    # (N, K, 3)
        z = posed[..., 2]
        zc = np.maximum(z, eps)
        pixels, clamped = project_clamped(posed, packed.camera, eps)
        residuals = packed.keypoints - pixels                        # (N, K, 2)
        norms = np.linalg.norm(residuals, axis=-1)
        behind = np.maximum(eps - z, 0.0)
        rep = np.sum(c * norms, axis=1) + cfg.behind_penalty * np.sum(c * behind, axis=1)

        # d(c*||kp - pi(x)||)/dx = -c * J_pi^T u with u the unit residual and
        # J_pi = [[f/z, 0, -f*x/z^2], [0, f/z, -f*y/z^2]] at the clamped z;
        # the z column is zero below the clamp, where the pixel ignores z.
        w = np.divide(c, norms, out=np.zeros_like(norms), where=norms >= KINK_EPS)
        cu = w[..., None] * residuals                                # c * u
        f_z = packed.camera.focal / zc
        dx = np.empty_like(posed)
        dx[..., :2] = -f_z[..., None] * cu
        dx[..., 2] = np.where(clamped, 0.0, f_z / zc * np.sum(cu * posed[..., :2], axis=-1))
        # linear push-back for joints clamped at the z floor
        dx[..., 2] -= cfg.behind_penalty * np.where(clamped, c, 0.0)
        grad_t += dx.sum(axis=1)
        grad_s += np.sum(dx * packed.rotated, axis=(1, 2))

    if cfg.mode != "reprojection_only":
        ankles = s[:, None, None] * packed.ankles + t[:, None, :]     # (N, 2, 3)
        dist = ankles @ packed.normal - packed.offset
        plane = np.sum(np.abs(dist), axis=1)
        sign = np.where(np.abs(dist) < KINK_EPS, 0.0, np.sign(dist))
        grad_t += cfg.lam * np.sum(sign, axis=1)[:, None] * packed.normal
        grad_s += cfg.lam * np.sum(sign * (packed.ankles @ packed.normal), axis=1)

    return rep, plane, np.concatenate([grad_t.ravel(), grad_s])


def loss_and_gradients(
    scene: Scene, cfg: ObjectiveConfig
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Loss breakdown, d(total)/dt (N,3) and d(total)/ds (N,) of a scene."""
    packed, theta = _pack_scene(scene, cfg)
    rep, plane, grad = _evaluate_theta(packed, theta, cfg)
    n = rep.shape[0]
    breakdown = LossBreakdown.from_terms(rep, plane, cfg.lam)
    return breakdown, grad[: 3 * n].reshape(n, 3), grad[3 * n :]
