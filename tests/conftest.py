"""Shared fixtures: the seeded ambiguity suite used by several tests.

Suite protocol: 50 scenes, 2-5 persons each, per-person depth/size factors
uniform in [0.6, 1.6], 1 px keypoint noise, ground tilt uniform in
[3, 10] degrees, true plane attached to the observed scene.  The plane
weight used for full-mode runs on this suite is 500: keypoint residuals
are in pixels (f = 1000) while ankle-plane distances are in meters, so a
weight of a few hundred puts the two terms on comparable scales.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from scenescale import (
    CameraModel,
    GroundPlane,
    ObjectiveConfig,
    OptimConfig,
    Person,
    Scene,
    SynthConfig,
    generate_scene,
    loss_and_gradients,
    optimize,
)
from scenescale.geometry import project
from scenescale.scene import posed_joints

SUITE_SEED = 1000
SUITE_SIZE = 50
SUITE_LAM = 500.0


def reprojection(scene: Scene) -> float:
    """Reprojection term of the objective (behind-camera penalty included)."""
    return loss_and_gradients(scene, ObjectiveConfig(mode="reprojection_only"))[0].reprojection


def plane_term(scene: Scene) -> float:
    """Feet-on-ground term of the objective (unweighted)."""
    return loss_and_gradients(scene, ObjectiveConfig(mode="plane_only"))[0].plane


def random_scene(rng: np.random.Generator, n_persons: int = 2, n_joints: int = 24,
                 noise_px: float = 2.0) -> Scene:
    """Random posed persons with noisy keypoints and a random tilted plane.

    Cheap to build (no rasterization), so suitable for bulk finite-difference
    sweeps.  Keypoints are exact projections plus Gaussian pixel noise;
    rotations come from QR so they are exactly orthonormal.
    """
    cam = CameraModel(1000.0, (1920, 1080))
    persons = []
    for _ in range(n_persons):
        joints = rng.uniform(-0.5, 0.5, (n_joints, 3))
        joints[:, 1] = rng.uniform(-0.9, 0.9, n_joints)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))  # deterministic sign convention
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        t = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5), rng.uniform(2.0, 10.0)])
        person = Person(
            joints=joints,
            rotation=q,
            translation=t,
            scale=float(rng.uniform(0.7, 1.4)),
            confidences=rng.uniform(0.2, 1.0, n_joints),
        )
        kp = project(posed_joints(person), cam)
        person.ref_keypoints = kp + rng.normal(0.0, noise_px, kp.shape)
        persons.append(person)
    tilt = rng.uniform(-0.15, 0.15)
    normal = np.array([np.sin(tilt) * 0.1, -np.cos(tilt), -np.sin(tilt)])
    plane = GroundPlane(normal=normal, point=np.array([0.0, 1.0, 4.0]))
    return Scene(persons, cam, plane=plane)


def ragged_scene(seed, behind=False):
    """Three persons with 24, 16 and 20 joints sharing one camera and plane.

    With behind=True the second person straddles the camera plane, so some
    of its joints are clamped at z_epsilon and some are not.
    """
    rng = np.random.default_rng(seed)
    persons = [random_scene(rng, n_persons=1, n_joints=kj).persons[0] for kj in (24, 16, 20)]
    base = random_scene(rng, n_persons=1)
    if behind:
        persons[1].translation = np.array([0.2, -0.1, 0.1])
    return Scene(persons, base.camera, plane=base.plane)


def make_suite(n_scenes: int = SUITE_SIZE, base: int = SUITE_SEED):
    """List of (gt_scene, observed_scene, depth_observation) triples."""
    rng = np.random.default_rng(base)
    scenes = []
    for i in range(n_scenes):
        n = int(rng.integers(2, 6))
        factors = tuple(rng.uniform(0.6, 1.6, n))
        tilt = float(rng.uniform(3.0, 10.0))
        cfg = SynthConfig(
            n_persons=n,
            rng_seed=base + i,
            ambiguity_factors=factors,
            keypoint_noise_px=1.0,
            plane_tilt_deg=tilt,
        )
        scenes.append(generate_scene(cfg))
    return scenes


def exact_optimum_scene(seed: int = 2) -> Scene:
    """Random scene adjusted so both loss terms are exactly zero.

    Ankles are snapped onto the plane (in posed space, undone through the
    person's rotation and scale) and keypoints are regenerated as exact
    projections afterwards.
    """
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, noise_px=0.0)
    plane = scene.plane
    for person in scene.persons:
        posed = posed_joints(person)
        j = person.joints.copy()
        for idx in (person.ankle_left_idx, person.ankle_right_idx):
            correction = plane.signed_distance(posed[idx]) * plane.normal
            j[idx] = j[idx] - (person.rotation.T @ correction) / person.scale
        person.joints = j
        person.ref_keypoints = project(posed_joints(person), scene.camera)
    return scene


def suite_optim_config(mode: str = "full") -> OptimConfig:
    return OptimConfig(objective=ObjectiveConfig(lam=SUITE_LAM, mode=mode))


@pytest.fixture(scope="session")
def ambiguity_suite():
    """Suite scenes plus full-mode optimization results and wall time."""
    t0 = time.monotonic()
    scenes = make_suite()
    full = [optimize(obs, suite_optim_config()) for _, obs, _ in scenes]
    elapsed = time.monotonic() - t0
    return {"scenes": scenes, "full": full, "elapsed": elapsed}
