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

A scene is packed once, with its mode and lam fixed, into one block of
coordinate-major arrays (persons padded to a common joint count with
zero-confidence joints); the objective is then a function of the flat
parameter vector theta = [t^1, ..., t^N, s^1, ..., s^N] alone, which the
packing holds and the optimizer updates in place.  One evaluation writes
into buffers of that block, in a fixed operation order, so equal inputs
give equal bits.
Terms that are exactly zero for the whole scene (the behind-camera penalty
with no joint behind the clamp, the KINK_EPS masks with every residual norm
and ankle distance at or above it) are skipped: they could only add or
subtract 0.0.

The layout is chosen for few numpy calls on contiguous data (PackedScene
details it): joints, keypoints and the projection are coordinate-major,
the gradient with respect to the posed joints is joint-major with the plane
term as its last row, and the residual norms and |ankle distances| share
one buffer, so one min decides both KINK_EPS masks.  At a few hundred joints
an evaluation's cost is per numpy call, not arithmetic, so every view it
reads is made at packing, and it calls ufuncs and their reductions directly,
with the output positional (np.maximum excepted: numpy deprecates a third
positional argument there), not through numpy's Python-level wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingPlaneError, SchemaError, number_in
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
    lam: float = 500.0  # plane weight: pixel residuals at f = 1000 against ankle meters
    mode: str = "full"

    def __post_init__(self):
        self.lam = number_in(self.lam, "lam", 0, math.inf, hi_open=True)
        if self.mode not in MODES:
            raise SchemaError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class LossBreakdown:
    reprojection: float
    plane: float
    total: float


def _loss_sums(rep: np.ndarray, plane: np.ndarray, lam: float) -> tuple[float, float, float]:
    """(reprojection, plane, total) of per-person terms (N,), summed person by person."""
    rep_sum, plane_sum = sum(rep.tolist()), sum(plane.tolist())
    return rep_sum, plane_sum, rep_sum + lam * plane_sum


class PackedScene:
    """A scene packed for cfg's terms, plus the buffers one evaluation fills.

    The mode and lam are fixed here, and theta starts at the scene's
    parameters; theta carries everything that moves, and _evaluate_theta
    reads it from here.  Write a new theta into it in place (theta[:] = ...):
    the scale column theta_s (N, 1) and the translations theta_t (3, N, 1)
    are views of it, made once.  Every _evaluate_theta call overwrites the
    buffers, so a PackedScene serves one caller at a time.

    The scene is held coordinate-major only: the rotated joints as (3, N, K)
    and the keypoints as (2, N, K), beside the principal point as (2, 1, 1),
    so every coordinate is one contiguous (N, K) plane.  rotated (N, K, 3)
    and keypoints (N, K, 2) are person-major views of the same memory.
    Padded joints are zero with zero confidence, and a term the mode leaves
    out keeps its inputs zero.  The posed joints fill one (3, N, K) buffer,
    and proj holds [f*x, f*y, f] in the same layout, so one division by the
    clamped z gives both pixel offsets and f/z.  The rotated and the posed
    ankles are gathered with one np.take of the same flat indices.

    dx, d(total)/d(posed joint), is joint-major, (K+1, N, 3): rows 0..K-1
    hold each joint's reprojection gradient, row K the plane term's
    lam * sum(sign) * n.  One add.reduce over axis 0 then sums the rows in
    order, 3N values at a time, which is the order the (N, K, 3) axis-1 sum
    followed, plus the plane term last, so grad_t keeps its bits.  The
    reprojection rows are written through a coordinate-major view.  grad_s
    multiplies them by the rotated joints into a contiguous (N, K, 3)
    buffer, written through its coordinate-major view, and sums each
    person's 3K products from there in that order.

    The residual norms (N*K) and the |ankle distances| (2N) share one kink
    buffer, so one min decides whether the KINK_EPS masks run.  A term the
    mode leaves out keeps inf there.  All buffers are views of one block, and
    so is every row and coordinate plane of them that an evaluation reads
    (posed_xy, posed_z, q_z, dx_z, dx_plane, the rows of dx that grad_t sums
    and so on), each made here once.
    """

    def __init__(self, scene: Scene, cfg: ObjectiveConfig):
        self.lam = cfg.lam
        self.uses_rep = cfg.mode != "plane_only"
        self.uses_plane = cfg.mode != "reprojection_only"
        if self.uses_plane and scene.plane is None:
            raise MissingPlaneError(f"mode={cfg.mode!r} needs a ground plane in the scene")
        persons, self.camera = scene.persons, scene.camera
        n, k = len(persons), max(p.n_joints for p in persons)
        self.focal = float(self.camera.focal)
        self.principal = np.array(self.camera.principal_point, dtype=float).reshape(2, 1, 1)
        ankle_idx = np.array([(p.ankle_left_idx, p.ankle_right_idx) for p in persons])
        # flat index of a (3, N, K) array's [c, i, ankle_idx[i, a]], at [i, a, c]
        self.ankle_take = (np.arange(0, 3 * n * k, n * k)
                           + (np.arange(0, n * k, k)[:, None] + ankle_idx)[..., None])
        planes, self.kinks, self.dx, self.dx_rotated, self.posed_ankles, self.dist, self.signs, \
            self.sign_sums, terms, self.grad = _block_views(
                (22, n, k), (n * k + 2 * n,), (k + 1, n, 3), (n, k, 3), (n, 2, 3), (n, 2),
                (2, n, 2), (2, n), (2, n), (4 * n,))
        self.rotated_cm, self.keypoints_cm, self.confidences = planes[0:3], planes[3:5], planes[5]
        self.posed, self.proj, self.q = planes[6:9], planes[9:12], planes[12:15]
        self.r, self.sq = planes[15:17], planes[17:19]
        self.zc, self.w, self.tmp = planes[19:22]
        for i, person in enumerate(persons):
            kj = person.n_joints
            self.rotated_cm[:, i, :kj] = (person.joints @ person.rotation.T).T
            if self.uses_rep:
                if person.ref_keypoints is None:
                    raise SchemaError(f"person {i} has no ref_keypoints")
                self.keypoints_cm[:, i, :kj] = person.ref_keypoints.T
                self.confidences[i, :kj] = person.confidences
        self.rotated = self.rotated_cm.transpose(1, 2, 0)       # (N, K, 3) view
        self.keypoints = self.keypoints_cm.transpose(1, 2, 0)   # (N, K, 2) view
        self.ankles = np.take(self.rotated_cm, self.ankle_take)  # (N, 2, 3)
        self.normal, self.offset, self.ankle_normal = None, 0.0, None
        if self.uses_plane:
            self.normal = scene.plane.normal
            self.offset = float(self.normal @ scene.plane.point)
            self.ankle_normal = self.ankles @ self.normal      # (N, 2)
        self.theta = np.concatenate(
            [np.concatenate([p.translation for p in persons]), [p.scale for p in persons]]
        )
        # every view an evaluation reads, made once: the scales (N, 1), the
        # translations (3, N, 1), and the rows and planes of the buffers
        self.theta_s = self.theta[3 * n :].reshape(n, 1)
        self.theta_t = self.theta[: 3 * n].reshape(n, 3).T[..., None]
        self.posed_xy, self.posed_z = self.posed[:2], self.posed[2]
        self.proj_xy, self.q_xy, self.q_z = self.proj[:2], self.q[:2], self.q[2]
        self.sq_x, self.sq_y = self.sq
        # the reprojection rows of dx, and the grad_s products, seen coordinate-major
        self.dx_cm = self.dx[:k].transpose(2, 1, 0)             # (3, N, K)
        self.dx_rotated_cm = self.dx_rotated.transpose(2, 0, 1)  # (3, N, K)
        self.dx_xy, self.dx_z, self.dx_plane = self.dx_cm[:2], self.dx_cm[2], self.dx[k]
        # the rows of dx that grad_t sums: the reprojection rows, the plane row
        self.dx_summed = self.dx[0 if self.uses_rep else k : k + self.uses_plane]
        self.sign, self.sign_ankle_normal = self.signs
        self.lam_sign_sum = self.sign_sums[0][:, None]          # (N, 1)
        self.lam_ankle_sum = self.sign_sums[1]
        self.rep, self.plane = terms
        self.proj[2] = self.focal
        self.kinks.fill(np.inf)
        self.norms = self.kinks[: n * k].reshape(n, k)
        self.abs_dist = self.kinks[n * k :].reshape(n, 2)
        self.grad_t = self.grad[: 3 * n].reshape(n, 3)
        self.grad_s = self.grad[3 * n :]


def _block_views(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """C-contiguous views of one new zeroed block, one per shape, in order."""
    sizes = [math.prod(shape) for shape in shapes]
    block, at, views = np.zeros(sum(sizes)), 0, []
    for shape, size in zip(shapes, sizes):
        views.append(block[at : at + size].reshape(shape))
        at += size
    return views


def _evaluate_theta(packed: PackedScene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-person reprojection (N,), per-person plane term (N,), d(total)/d(theta) (4N,)
    at packed.theta.

    A term that packed's mode leaves out reads 0 and adds nothing to the gradient.
    The three arrays returned are packed's buffers, which the next call
    overwrites.  Every value is computed in a fixed operation order, so
    equal inputs give equal bits.
    """
    p = packed
    uses_rep, uses_plane = p.uses_rep, p.uses_plane
    c, posed, tmp = p.confidences, p.posed, p.tmp
    np.multiply(p.theta_s, p.rotated_cm, posed)
    np.add(posed, p.theta_t, posed)                                     # (3, N, K)

    if uses_rep:
        eps, z, r, sq, norms = Z_EPSILON, p.posed_z, p.r, p.sq, p.norms
        zc = np.maximum(z, eps, out=p.zc)
        # q = [f*x, f*y, f] / zc; residual kp - (f * xy / zc + c), and its norm
        np.multiply(p.posed_xy, p.focal, p.proj_xy)
        np.divide(p.proj, zc, p.q)
        np.add(p.q_xy, p.principal, r)
        np.subtract(p.keypoints_cm, r, r)
        np.multiply(r, r, sq)
        np.add(p.sq_x, p.sq_y, norms)
        np.sqrt(norms, norms)
        np.add.reduce(np.multiply(c, norms, tmp), 1, None, p.rep)
        # with every joint in front of the clamp the penalty terms are exactly 0
        clamped = None if np.minimum.reduce(z, None) >= eps else z < eps
        if clamped is not None:
            behind = np.maximum(eps - z, 0.0)
            p.rep += BEHIND_PENALTY * np.sum(c * behind, axis=1)

    if uses_plane:
        ankles = posed.take(p.ankle_take, None, p.posed_ankles, "clip")   # (N, 2, 3)
        dist = np.subtract(np.matmul(ankles, p.normal, p.dist), p.offset, p.dist)
        np.add.reduce(np.abs(dist, p.abs_dist), 1, None, p.plane)
        sign = np.sign(dist, p.sign)

    # one test for both KINK_EPS masks; "not >=" sends a nan to the masked path too
    kinked = not np.minimum.reduce(p.kinks, None) >= KINK_EPS

    if uses_rep:
        # d(c*||kp - pi(x)||)/dx = -c * J_pi^T u with u the unit residual and
        # J_pi = [[f/z, 0, -f*x/z^2], [0, f/z, -f*y/z^2]] at the clamped z;
        # the z column is zero below the clamp, where the pixel ignores z.
        w = p.w
        if kinked:
            w.fill(0.0)
            np.divide(c, norms, out=w, where=norms >= KINK_EPS)
        else:
            np.divide(c, norms, w)
        cu = np.multiply(w, r, r)                                       # c * u
        f_z, dx_z = p.q_z, p.dx_z
        # dx[2] = f_z / zc * (cu[0] * x + cu[1] * y), with cu * xy in sq
        np.multiply(cu, p.posed_xy, sq)
        np.multiply(np.divide(f_z, zc, tmp), np.add(p.sq_x, p.sq_y, w), dx_z)
        np.negative(f_z, f_z)
        np.multiply(f_z, cu, p.dx_xy)
        if clamped is not None:
            # linear push-back for joints clamped at the z floor
            dx_z[...] = np.where(clamped, 0.0, dx_z)
            dx_z -= BEHIND_PENALTY * np.where(clamped, c, 0.0)
        np.multiply(p.dx_cm, p.rotated_cm, p.dx_rotated_cm)
        np.add.reduce(p.dx_rotated, (1, 2), None, p.grad_s)
    else:
        p.grad_s.fill(0.0)

    if uses_plane:
        if kinked:
            sign[p.abs_dist < KINK_EPS] = 0.0
        # dx row K = lam * sum(sign) * n;  grad_s += lam * sum(sign * (A @ n))
        np.multiply(sign, p.ankle_normal, p.sign_ankle_normal)
        lam_sums = np.add.reduce(p.signs, 2, None, p.sign_sums)
        np.multiply(lam_sums, p.lam, lam_sums)
        np.multiply(p.lam_sign_sum, p.normal, p.dx_plane)
        np.add(p.grad_s, p.lam_ankle_sum, p.grad_s)
    np.add.reduce(p.dx_summed, 0, None, p.grad_t)

    return p.rep, p.plane, p.grad


def loss_and_gradients(
    scene: Scene, cfg: ObjectiveConfig
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Loss breakdown, d(total)/dt (N,3) and d(total)/ds (N,) of a scene."""
    packed = PackedScene(scene, cfg)
    rep, plane, _ = _evaluate_theta(packed)
    return LossBreakdown(*_loss_sums(rep, plane, cfg.lam)), packed.grad_t, packed.grad_s
