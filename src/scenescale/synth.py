"""Synthetic scenes with known ground truth.

Builds scenes of stick-figure persons standing with both ankles exactly on
a known tilted ground plane, renders their reference keypoints with the
scene camera, then applies the depth/size perturbation that a reprojection
loss cannot see: per person, translation and scale are multiplied by the
same factor k, which slides the person along its camera ray while growing
it to keep the projection fixed.  The perturbed scene is what an upstream
single-person estimator would hand us; the unperturbed scene is the oracle
the acceptance tests compare against.

Also renders a plane-only depth map (with optional outlier corruption) at
the pixels of a strided ground mask, so the plane-fitting path can run end
to end on the same scenes.

ambiguity_suite and pinned_depths are the evaluation protocol's one home.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BehindCameraError, PlacementError, SchemaError, check_int,
                     number_in, positive_number)
from .geometry import CameraModel, project
from .planefit import DepthObservation
from .scene import (ANKLE_LEFT, ANKLE_RIGHT, GroundPlane, Person, Scene, person_height,
                    posed_joints)

# Stick-figure template in SMPL 24-joint order, units of the target height,
# body frame: x left, y up, z anterior. Ankles are joints 7/8, both at
# y = -0.5 so a person stands on both feet at once.
_TEMPLATE = np.array(
    [
        [0.00, 0.00, 0.00],    # 0  pelvis
        [0.06, -0.02, 0.00],   # 1  hip l
        [-0.06, -0.02, 0.00],  # 2  hip r
        [0.00, 0.06, 0.01],    # 3  spine1
        [0.06, -0.27, 0.00],   # 4  knee l
        [-0.06, -0.27, 0.00],  # 5  knee r
        [0.00, 0.12, 0.01],    # 6  spine2
        [0.07, -0.50, 0.00],   # 7  ankle l
        [-0.07, -0.50, 0.00],  # 8  ankle r
        [0.00, 0.18, 0.01],    # 9  spine3
        [0.07, -0.52, 0.05],   # 10 foot l
        [-0.07, -0.52, 0.05],  # 11 foot r
        [0.00, 0.30, 0.00],    # 12 neck
        [0.08, 0.25, 0.00],    # 13 collar l
        [-0.08, 0.25, 0.00],   # 14 collar r
        [0.00, 0.38, 0.02],    # 15 head
        [0.18, 0.24, 0.00],    # 16 shoulder l
        [-0.18, 0.24, 0.00],   # 17 shoulder r
        [0.20, -0.02, 0.02],   # 18 elbow l
        [-0.20, -0.02, 0.02],  # 19 elbow r
        [0.21, -0.24, 0.03],   # 20 wrist l
        [-0.21, -0.24, 0.03],  # 21 wrist r
        [0.22, -0.31, 0.04],   # 22 hand l
        [-0.22, -0.31, 0.04],  # 23 hand r
    ]
)


# person_height() of the template itself; dividing by it makes
# person_height() return the requested stature exactly
_CHAIN_MEASURE = person_height(Person(_TEMPLATE, np.eye(3), np.zeros(3)))


def joint_template(height: float) -> np.ndarray:
    """The 24-joint stick figure scaled so its measured height is `height`."""
    if height <= 0:
        raise SchemaError(f"height must be > 0, got {height}")
    return _TEMPLATE * (height / _CHAIN_MEASURE)


# The depth map is rendered where the ground lies between these depths,
# meters, and no person stands beyond the far one.
_NEAR, _FAR = 0.3, 40.0

# A synthetic frame holds at most this many pixels (8K UHD is 33.2 million):
# its ground mask is one byte a pixel and its ground samples ~50 bytes each.
_MAX_PIXELS = 1 << 25


@dataclass
class SynthConfig:
    n_persons: int = 3
    height_range: tuple[float, float] = (1.5, 1.9)
    depth_range: tuple[float, float] = (3.5, 7.0)
    plane_tilt_deg: float = 5.0        # camera pitched down by this much
    keypoint_noise_px: float = 0.0
    ambiguity_factors: tuple[float, ...] | None = None  # None = all 1.0
    outlier_fraction: float = 0.0      # of masked depth pixels
    rng_seed: int = 0
    camera_focal: float = 1000.0
    image_size: tuple[int, int] = (1920, 1080)
    camera_height: float = 1.55        # meters above the ground plane
    metric_scale: float = 6.0
    mask_stride: int = 3               # ground-mask pixel stride

    def __post_init__(self):
        for name, minimum in (("n_persons", 1), ("mask_stride", 1), ("rng_seed", 0)):
            check_int(getattr(self, name), name, minimum)
        for name in ("camera_focal", "camera_height", "metric_scale"):
            setattr(self, name, positive_number(getattr(self, name), name))
        self.image_size = CameraModel(self.camera_focal, self.image_size).image_size
        if self.image_size[0] * self.image_size[1] > _MAX_PIXELS:
            raise SchemaError(f"image_size {self.image_size} holds over {_MAX_PIXELS} pixels")
        for name, count in (("height_range", 2), ("depth_range", 2),
                            ("ambiguity_factors", self.n_persons)):
            value = getattr(self, name)
            if value is None and name == "ambiguity_factors":
                continue  # all 1.0
            try:
                numbers = tuple(positive_number(v, f"an entry of {name}") for v in value)
            except TypeError:  # not a list
                numbers = ()
            if len(numbers) != count:
                raise SchemaError(f"{name} must be a list of {count} numbers, got {value!r}")
            setattr(self, name, numbers)
        for name, top in (("height_range", math.inf), ("depth_range", _FAR)):
            lo, hi = getattr(self, name)
            if not lo <= hi <= top:
                raise SchemaError(f"{name} must satisfy lo <= hi <= {top}, got {(lo, hi)}")
        # persons are drawn across the frame at their depth, up to _FAR
        if not math.isfinite(max(self.image_size) * _FAR / self.camera_focal):
            raise SchemaError(f"camera_focal {self.camera_focal} makes the frame at "
                              f"{_FAR} m wider than a float")
        self.plane_tilt_deg = number_in(self.plane_tilt_deg, "plane_tilt_deg", 0, 45)
        self.keypoint_noise_px = number_in(self.keypoint_noise_px, "keypoint_noise_px",
                                           0, math.inf, hi_open=True)
        self.outlier_fraction = number_in(self.outlier_fraction, "outlier_fraction", 0, 1,
                                          hi_open=True)


def _plane_frame(tilt_rad: float, camera_height: float):
    """Ground plane for a camera pitched down by tilt_rad, camera at origin.

    Returns (normal, point, e1, e2, body_x) where e1/e2 span the plane
    (e1 = image right, e2 = away from camera along the ground) and body_x
    completes a rotation [body_x, normal, e2] mapping body axes to camera
    axes (camera y points down, so the body up axis maps onto the normal).
    """
    c, s = np.cos(tilt_rad), np.sin(tilt_rad)
    normal = np.array([0.0, -c, -s])      # up, toward the camera
    point = -camera_height * normal       # foot of the camera's perpendicular
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, -s, c])
    body_x = np.array([-1.0, 0.0, 0.0])
    return normal, point, e1, e2, body_x


def _yaw_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def generate_scene(cfg: SynthConfig) -> tuple[Scene, Scene, DepthObservation]:
    """One synthetic frame: (ground truth, perturbed observation, depth).

    Both scenes share camera, keypoints, and the true plane; the observed
    scene's persons carry the factor-perturbed (t, s).  Placement, keypoint
    noise, and depth outliers draw from independent streams, so toggling
    noise or outliers leaves the scene geometry untouched.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    noise_rng = np.random.default_rng((cfg.rng_seed, 17))
    outlier_rng = np.random.default_rng((cfg.rng_seed, 31))
    camera = CameraModel(cfg.camera_focal, cfg.image_size)
    tilt = np.deg2rad(cfg.plane_tilt_deg)
    normal, p0, e1, e2, body_x = _plane_frame(tilt, cfg.camera_height)
    width, height_px = camera.image_size

    gt_persons: list[Person] = []
    for i in range(cfg.n_persons):
        person = None
        for _ in range(100):
            stature = rng.uniform(*cfg.height_range)
            z_target = rng.uniform(*cfg.depth_range)
            b = (z_target - cfg.camera_height * np.sin(tilt)) / np.cos(tilt)
            x_half = (width / 2 - 150.0) * z_target / camera.focal - 0.6
            a = rng.uniform(-x_half, x_half) if x_half > 0 else 0.0
            yaw = rng.uniform(0.0, 2 * np.pi)

            rotation = np.column_stack([body_x, normal, e2]) @ _yaw_matrix(yaw)
            joints = joint_template(stature)
            ankle_mid = 0.5 * (joints[ANKLE_LEFT] + joints[ANKLE_RIGHT])
            ground_pt = p0 + a * e1 + b * e2
            translation = ground_pt - rotation @ ankle_mid

            candidate = Person(joints=joints, rotation=rotation, translation=translation)
            try:
                pixels = project(posed_joints(candidate), camera)
            except BehindCameraError:
                continue
            margin = 10.0
            if (
                pixels[:, 0].min() >= margin
                and pixels[:, 0].max() <= width - margin
                and pixels[:, 1].min() >= margin
                and pixels[:, 1].max() <= height_px - margin
            ):
                person = candidate
                person.ref_keypoints = pixels
                break
        if person is None:
            raise PlacementError(
                f"person {i}: no in-frustum placement in 100 attempts "
                f"(depth_range={cfg.depth_range}, image={camera.image_size})"
            )
        if cfg.keypoint_noise_px > 0:
            with np.errstate(over="ignore"):  # an overflow is refused below
                person.ref_keypoints = person.ref_keypoints + (
                    cfg.keypoint_noise_px
                    * noise_rng.standard_normal(person.ref_keypoints.shape)
                )
            if not np.isfinite(person.ref_keypoints).all():
                raise SchemaError(f"keypoint_noise_px takes person {i}'s keypoints beyond a float")
        gt_persons.append(person)

    factors = cfg.ambiguity_factors or tuple(1.0 for _ in range(cfg.n_persons))
    observed_persons = []
    for i, (person, k) in enumerate(zip(gt_persons, factors)):
        twin = person.copy()
        with np.errstate(over="ignore"):  # an overflow is refused below
            twin.translation = k * twin.translation
        twin.scale = k * twin.scale
        if not np.isfinite(twin.translation).all():
            raise SchemaError(f"ambiguity_factors entry {k} takes person {i} beyond a float")
        observed_persons.append(twin)

    gt_scene = Scene(gt_persons, camera, GroundPlane(normal, p0))
    observed = Scene(observed_persons, camera, GroundPlane(normal, p0))
    obs = _ground_samples(cfg, camera, normal, p0, gt_persons, outlier_rng)
    return gt_scene, observed, obs


def _ground_samples(
    cfg: SynthConfig,
    camera: CameraModel,
    normal: np.ndarray,
    p0: np.ndarray,
    persons: list[Person],
    rng: np.random.Generator,
) -> DepthObservation:
    """The plane's depth at the ground pixels: the stride grid minus a margin
    around each person, where the plane lies between _NEAR and _FAR.

    Only those pixels are computed, each in the arithmetic a full (H, W)
    map would use, so no frame-sized float array is made.  The observation
    rounds them to float32; SchemaError naming metric_scale if one rounds
    to 0 or infinity.
    """
    width, height_px = camera.image_size
    cx, cy = camera.principal_point
    rx = (np.arange(width) - cx) / camera.focal
    ry = (np.arange(height_px) - cy) / camera.focal

    mask = np.zeros((height_px, width), dtype=bool)
    mask[::cfg.mask_stride, ::cfg.mask_stride] = True
    for person in persons:
        px = project(posed_joints(person), camera)
        u0 = max(int(px[:, 0].min()) - 25, 0)
        u1 = min(int(px[:, 0].max()) + 25, width)
        v0 = max(int(px[:, 1].min()) - 25, 0)
        v1 = min(int(px[:, 1].max()) + 25, height_px)
        mask[v0:v1, u0:u1] = False
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, width)

    # ray (rx, ry, 1) meets the plane at depth z = (p0.n) / (r.n)
    denom = normal[0] * rx[cols] + normal[1] * ry[rows] + normal[2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused by hit
        z = (p0 @ normal) / denom
    hit = np.isfinite(z) & (z > _NEAR) & (z < _FAR)
    flat, z = flat[hit], z[hit]

    if cfg.outlier_fraction > 0:
        n_out = int(round(cfg.outlier_fraction * flat.size))
        if n_out:
            chosen = rng.choice(flat.size, size=n_out, replace=False)
            offset = rng.uniform(0.3, 3.0, n_out) * rng.choice([-1.0, 1.0], n_out)
            z[chosen] = np.maximum(z[chosen] + offset, 0.3)

    with np.errstate(over="ignore"):  # inf is refused by the observation
        z /= cfg.metric_scale
    try:
        return DepthObservation.from_ground((width, height_px), flat, z, cfg.metric_scale)
    except SchemaError as exc:
        raise SchemaError(f"metric_scale {cfg.metric_scale}: {exc}") from None


def ambiguity_suite(n_scenes: int = 50, seed: int = 1000) -> list[SynthConfig]:
    """The seeded suite the acceptance criteria and scripts/run_suite.py score.

    Scene i: 2-5 persons, each one's depth and size times a factor uniform in
    [0.6, 1.6], 1 px keypoint noise, a ground tilt uniform in [3, 10] degrees
    and rng_seed seed + i.  Counts, factors and tilts come from one stream.
    """
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(n_scenes):
        n = int(rng.integers(2, 6))
        factors = tuple(rng.uniform(0.6, 1.6, n))
        configs.append(SynthConfig(n, rng_seed=seed + i, ambiguity_factors=factors,
                                   keypoint_noise_px=1.0, plane_tilt_deg=rng.uniform(3, 10)))
    return configs


def pinned_depths(gt_scenes: list[Scene], noise: float = 0.2, seed: int = 777) -> list[list[float]]:
    """The measured depths the suite's depth-pinned baseline gets: each
    person's true z times 1 + noise * N(0, 1) from one stream, clipped at 0.5 m."""
    rng = np.random.default_rng(seed)
    depths = []
    for gt in gt_scenes:
        z = np.array([p.translation[2] for p in gt.persons])
        depths.append(np.clip(z * (1.0 + noise * rng.standard_normal(z.size)), 0.5, None).tolist())
    return depths
