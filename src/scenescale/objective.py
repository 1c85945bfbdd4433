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

Joints behind the camera are projected at z clamped to Z_EPSILON (where the
pixel no longer depends on z) and add a linear penalty
BEHIND_PENALTY * c_i * (Z_EPSILON - z) that pushes them back in front.

A scene is packed once into arrays (persons padded to a common joint count
with zero-confidence joints); the objective is then a function of the flat
parameter vector theta = [t^1, ..., t^N, s^1, ..., s^N] alone.  One
evaluation writes into buffers preallocated at packing time, in a fixed
operation order, so equal inputs give equal bits.  Terms that are exactly
zero for the whole scene (the behind-camera penalty with no joint behind
the clamp, the KINK_EPS masks with every residual above it) are skipped:
they could only add or subtract 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingPlaneError, SchemaError, real_number
from .geometry import CameraModel
from .scene import Scene

# Residuals smaller than this are treated as exactly zero in gradients
# (the zero-subgradient choice at the |.| kink).  Set well above float
# roundoff of the projection pipeline: an unsquared norm keeps unit-length
# gradient direction no matter how small the residual, so roundoff-scale
# residuals would otherwise inject full-strength noise into the optimizer.
KINK_EPS = 1e-9

# Behind-camera depth clamp, meters: a joint is projected at z >= Z_EPSILON.
Z_EPSILON = 1e-3

# Weight of the behind-camera penalty, per meter behind the Z_EPSILON clamp
# and per unit confidence.
BEHIND_PENALTY = 100.0

MODES = ("full", "reprojection_only", "plane_only")


@dataclass
class ObjectiveConfig:
    lam: float = 1.0              # plane-term weight
    mode: str = "full"

    def __post_init__(self):
        self.lam = real_number(self.lam, "lam")
        if not 0 <= self.lam < math.inf:
            raise SchemaError(f"lam must be finite and >= 0, got {self.lam}")
        if self.mode not in MODES:
            raise SchemaError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class LossBreakdown:
    reprojection: float
    plane: float
    total: float

    @classmethod
    def from_terms(cls, rep: np.ndarray, plane: np.ndarray, lam: float) -> "LossBreakdown":
        """Sum per-person terms (N,) into a breakdown, person by person."""
        rep_sum, plane_sum = sum(rep.tolist()), sum(plane.tolist())
        return cls(rep_sum, plane_sum, rep_sum + lam * plane_sum)


@dataclass(eq=False)
class PackedScene:
    """The fixed arrays of a scene, plus the buffers one evaluation fills.

    theta carries everything that moves.  Every _evaluate_theta call
    overwrites the buffers, so a PackedScene serves one caller at a time.
    """

    rotated: np.ndarray       # (N, K, 3) R @ J_i, zero rows where padded
    keypoints: np.ndarray     # (N, K, 2) pixels, zero where padded
    confidences: np.ndarray   # (N, K), zero where padded or reprojection unused
    ankles: np.ndarray        # (N, 2, 3) rotated left and right ankle
    camera: CameraModel
    normal: np.ndarray | None  # (3,) plane normal, None if plane unused
    offset: float              # plane: n . x = offset

    def __post_init__(self):
        n, k = self.confidences.shape
        # constants of the terms, in the layout the evaluation reads them
        self.kx = np.ascontiguousarray(self.keypoints[..., 0])   # (N, K)
        self.ky = np.ascontiguousarray(self.keypoints[..., 1])
        self.focal = float(self.camera.focal)
        self.cx, self.cy = (float(c) for c in self.camera.principal_point)
        self.ankle_normal = None if self.normal is None else self.ankles @ self.normal  # (N, 2)
        self.rotated_xyz = np.ascontiguousarray(self.rotated.transpose(0, 2, 1))  # (N, 3, K)
        # outputs: per-person reprojection and plane terms, flat gradient
        self.rep = np.zeros(n)
        self.plane = np.zeros(n)
        self.grad = np.zeros(4 * n)
        self.grad_t = self.grad[: 3 * n].reshape(n, 3)
        self.grad_s = self.grad[3 * n :]
        # work buffers; x, y, z are views of posed_xyz and dx_x, dx_y, dx_z of dx
        self.posed_xyz = np.empty((n, 3, k))
        self.dx = np.empty((n, k, 3))
        self.dx_rotated = np.empty((n, k, 3))
        self.x, self.y, self.z = (self.posed_xyz[:, i] for i in range(3))
        self.dx_x, self.dx_y, self.dx_z = (self.dx[..., i] for i in range(3))
        self.zc, self.r0, self.r1, self.norms, self.w, self.f_z, self.tmp = np.empty((7, n, k))
        self.posed_ankles = np.empty((n, 2, 3))
        self.dist, self.abs_dist, self.sign = np.empty((3, n, 2))
        self.plane_t = np.empty((n, 3))
        self.sign_sum = np.empty(n)


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
        kj = person.n_joints
        rotated[i, :kj] = person.joints @ person.rotation.T
        ankles[i] = rotated[i, [person.ankle_left_idx, person.ankle_right_idx]]
        if uses_rep:
            if person.ref_keypoints is None:
                raise SchemaError(f"person {i} has no ref_keypoints")
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
    The three arrays returned are packed's buffers, which the next call
    overwrites.  Every value is computed in a fixed operation order, so
    equal inputs give equal bits.
    """
    p = packed
    n = p.rep.shape[0]
    t = theta[: 3 * n].reshape(n, 1, 3)
    s = theta[3 * n :].reshape(n, 1, 1)
    grad_t, grad_s, tmp = p.grad_t, p.grad_s, p.tmp

    if cfg.mode == "plane_only":
        p.grad.fill(0.0)
    else:
        eps, c, x, y, z = Z_EPSILON, p.confidences, p.x, p.y, p.z
        np.multiply(s, p.rotated_xyz, out=p.posed_xyz)
        np.add(p.posed_xyz, t.reshape(n, 3, 1), out=p.posed_xyz)     # (N, 3, K)
        zc = np.maximum(z, eps, out=p.zc)
        # residual kp - (f * x / zc + cx) per pixel coordinate, and its norm
        r0 = np.multiply(x, p.focal, out=p.r0)
        np.divide(r0, zc, out=r0)
        np.add(r0, p.cx, out=r0)
        np.subtract(p.kx, r0, out=r0)
        r1 = np.multiply(y, p.focal, out=p.r1)
        np.divide(r1, zc, out=r1)
        np.add(r1, p.cy, out=r1)
        np.subtract(p.ky, r1, out=r1)
        norms = np.multiply(r0, r0, out=p.norms)
        np.add(norms, np.multiply(r1, r1, out=tmp), out=norms)
        np.sqrt(norms, out=norms)
        np.add.reduce(np.multiply(c, norms, out=tmp), axis=1, out=p.rep)
        # with every joint in front of the clamp the penalty terms are exactly 0
        clamped = None if z.min() >= eps else z < eps
        if clamped is not None:
            behind = np.maximum(eps - z, 0.0)
            p.rep += BEHIND_PENALTY * np.sum(c * behind, axis=1)

        # d(c*||kp - pi(x)||)/dx = -c * J_pi^T u with u the unit residual and
        # J_pi = [[f/z, 0, -f*x/z^2], [0, f/z, -f*y/z^2]] at the clamped z;
        # the z column is zero below the clamp, where the pixel ignores z.
        w = p.w
        if norms.min() >= KINK_EPS:
            np.divide(c, norms, out=w)
        else:
            w.fill(0.0)
            np.divide(c, norms, out=w, where=norms >= KINK_EPS)
        cu0 = np.multiply(w, r0, out=r0)                             # c * u
        cu1 = np.multiply(w, r1, out=r1)
        f_z = np.divide(p.focal, zc, out=p.f_z)
        # dx_z = f_z / zc * (cu0 * x + cu1 * y)
        np.multiply(cu0, x, out=w)
        np.add(w, np.multiply(cu1, y, out=tmp), out=w)
        np.multiply(np.divide(f_z, zc, out=tmp), w, out=p.dx_z)
        np.negative(f_z, out=f_z)
        np.multiply(f_z, cu0, out=p.dx_x)
        np.multiply(f_z, cu1, out=p.dx_y)
        if clamped is not None:
            # linear push-back for joints clamped at the z floor
            p.dx_z[...] = np.where(clamped, 0.0, p.dx_z)
            p.dx_z -= BEHIND_PENALTY * np.where(clamped, c, 0.0)
        np.add.reduce(p.dx, axis=1, out=grad_t)
        np.add.reduce(np.multiply(p.dx, p.rotated, out=p.dx_rotated), axis=(1, 2), out=grad_s)

    if cfg.mode != "reprojection_only":
        ankles = np.multiply(s, p.ankles, out=p.posed_ankles)
        np.add(ankles, t, out=ankles)                                # (N, 2, 3)
        dist = np.subtract(np.matmul(ankles, p.normal, out=p.dist), p.offset, out=p.dist)
        abs_dist = np.abs(dist, out=p.abs_dist)
        np.add.reduce(abs_dist, axis=1, out=p.plane)
        sign = np.sign(dist, out=p.sign)
        if not abs_dist.min() >= KINK_EPS:
            sign[abs_dist < KINK_EPS] = 0.0
        # grad_t += lam * sum(sign) * n;  grad_s += lam * sum(sign * (A @ n))
        lam_sum = p.sign_sum
        np.multiply(np.add.reduce(sign, axis=1, out=lam_sum), cfg.lam, out=lam_sum)
        grad_t += np.multiply(lam_sum[:, None], p.normal, out=p.plane_t)
        np.multiply(sign, p.ankle_normal, out=sign)
        np.multiply(np.add.reduce(sign, axis=1, out=lam_sum), cfg.lam, out=lam_sum)
        grad_s += lam_sum

    return p.rep, p.plane, p.grad


def loss_and_gradients(
    scene: Scene, cfg: ObjectiveConfig
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Loss breakdown, d(total)/dt (N,3) and d(total)/ds (N,) of a scene."""
    packed, theta = _pack_scene(scene, cfg)
    rep, plane, grad = _evaluate_theta(packed, theta, cfg)
    n = rep.shape[0]
    breakdown = LossBreakdown.from_terms(rep, plane, cfg.lam)
    return breakdown, grad[: 3 * n].reshape(n, 3), grad[3 * n :]
