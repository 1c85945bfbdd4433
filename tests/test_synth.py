import numpy as np
import pytest

from conftest import plane_term, reprojection
from scenescale import (
    PlacementError,
    RansacConfig,
    SchemaError,
    SynthConfig,
    generate_scene,
    ransac_plane,
    unproject_ground,
)
from scenescale import synth
from scenescale.geometry import project
from scenescale.scene import ANKLE_LEFT, ANKLE_RIGHT, person_height, posed_ankles, posed_joints
from scenescale.synth import joint_template


def test_template_shape_and_symmetry():
    t = joint_template(1.7)
    assert t.shape == (24, 3)
    left, right = t[ANKLE_LEFT], t[ANKLE_RIGHT]
    assert left[1] == right[1]           # same height
    assert left[0] == pytest.approx(-right[0])  # mirrored laterally


def test_template_height_scales():
    from scenescale import Person

    for h in (1.5, 1.7, 1.9):
        p = Person(joints=joint_template(h), rotation=np.eye(3), translation=np.zeros(3))
        assert person_height(p) == pytest.approx(h, rel=1e-12)


def test_identity_factors_mean_observed_equals_gt():
    cfg = SynthConfig(n_persons=3, rng_seed=0)
    gt, observed, _ = generate_scene(cfg)
    for g, o in zip(gt.persons, observed.persons):
        assert np.array_equal(g.translation, o.translation)
        assert g.scale == o.scale
    assert reprojection(observed) < 1e-9


def test_perturbation_is_reprojection_neutral():
    cfg = SynthConfig(n_persons=2, ambiguity_factors=(1.0, 1.5), rng_seed=1)
    gt, observed, _ = generate_scene(cfg)
    assert reprojection(observed) < 1e-6
    assert plane_term(observed) > 0.0
    assert plane_term(gt) < 1e-9


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_perturbation_neutral_for_any_factor(factor):
    cfg = SynthConfig(n_persons=1, ambiguity_factors=(factor,), rng_seed=2)
    _, observed, _ = generate_scene(cfg)
    assert reprojection(observed) < 1e-6


def test_gt_ankles_on_plane():
    cfg = SynthConfig(n_persons=4, rng_seed=3, plane_tilt_deg=8.0)
    gt, _, _ = generate_scene(cfg)
    for person in gt.persons:
        dists = gt.plane.signed_distance(posed_ankles(person))
        assert np.abs(dists).max() < 1e-9


def test_flat_plane_recovered_by_ransac():
    cfg = SynthConfig(n_persons=2, rng_seed=4, plane_tilt_deg=0.0,
                      height_range=(1.7, 1.7), depth_range=(3.0, 8.0))
    gt, _, obs = generate_scene(cfg)
    pts = unproject_ground(obs, gt.camera)
    plane, _ = ransac_plane(pts, RansacConfig(rng_seed=0))
    cos = abs(plane.normal @ np.array([0.0, 1.0, 0.0]))
    assert np.degrees(np.arccos(min(1.0, cos))) < 0.5


def test_depth_map_matches_true_plane():
    cfg = SynthConfig(n_persons=2, rng_seed=5, plane_tilt_deg=6.0)
    gt, _, obs = generate_scene(cfg)
    pts = unproject_ground(obs, gt.camera)
    dists = gt.plane.signed_distance(pts)
    assert np.abs(dists).max() < 1e-6


def test_outlier_fraction_corrupts_depth():
    clean_cfg = SynthConfig(n_persons=2, rng_seed=6)
    dirty_cfg = SynthConfig(n_persons=2, rng_seed=6, outlier_fraction=0.3)
    gt, _, clean = generate_scene(clean_cfg)
    _, _, dirty = generate_scene(dirty_cfg)
    assert np.array_equal(clean.ground_index, dirty.ground_index)
    pts = unproject_ground(dirty, gt.camera)
    dists = np.abs(gt.plane.signed_distance(pts))
    frac_off = (dists > 0.05).mean()
    assert 0.2 < frac_off < 0.4


def raster_ground(cfg, camera, normal, p0, persons, rng):
    """Literal copy of the full-frame rasterization the ground samples replaced:
    an (H, W) depth map and ground mask."""
    width, height_px = camera.image_size
    cx, cy = camera.principal_point
    rx = (np.arange(width) - cx) / camera.focal
    ry = (np.arange(height_px) - cy) / camera.focal
    denom = normal[0] * rx[None, :] + normal[1] * ry[:, None] + normal[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (p0 @ normal) / denom
    hit = np.isfinite(z) & (z > 0.3) & (z < 40.0)
    z = np.where(hit, z, 0.0)
    mask = hit.copy()
    stride = cfg.mask_stride
    if stride > 1:
        keep = np.zeros_like(mask)
        keep[::stride, ::stride] = True
        mask &= keep
    for person in persons:
        px = project(posed_joints(person), camera)
        u0 = max(int(px[:, 0].min()) - 25, 0)
        u1 = min(int(px[:, 0].max()) + 25, width)
        v0 = max(int(px[:, 1].min()) - 25, 0)
        v1 = min(int(px[:, 1].max()) + 25, height_px)
        mask[v0:v1, u0:u1] = False
    if cfg.outlier_fraction > 0:
        flat = np.flatnonzero(mask)
        n_out = int(round(cfg.outlier_fraction * flat.size))
        if n_out:
            chosen = rng.choice(flat.size, size=n_out, replace=False)
            rows, cols = np.unravel_index(flat[chosen], mask.shape)
            offset = rng.uniform(0.3, 3.0, n_out) * rng.choice([-1.0, 1.0], n_out)
            z[rows, cols] = np.maximum(z[rows, cols] + offset, 0.3)
    return z / cfg.metric_scale, mask


@pytest.mark.parametrize("cfg", [
    SynthConfig(n_persons=2, rng_seed=3, outlier_fraction=0.3),
    SynthConfig(n_persons=12, rng_seed=4, outlier_fraction=0.15, mask_stride=12,
                depth_range=(3.5, 12.0), plane_tilt_deg=9.0),
    SynthConfig(n_persons=2, rng_seed=5, outlier_fraction=0.2, mask_stride=1,
                image_size=(320, 240), camera_focal=300.0, plane_tilt_deg=0.0),
], ids=["stride3", "stride12", "stride1"])
def test_ground_samples_match_the_raster_oracle(monkeypatch, cfg):
    """The samples are the full-frame map's values at its mask, bit for bit."""
    seen = {}

    def spy(*args):
        seen["args"] = args[:-1]
        return real(*args)

    real = synth._ground_samples
    monkeypatch.setattr(synth, "_ground_samples", spy)
    _, _, obs = generate_scene(cfg)
    depth, mask = raster_ground(*seen["args"], np.random.default_rng((cfg.rng_seed, 31)))
    assert obs.image_size == mask.shape[::-1]
    assert np.array_equal(obs.ground_index, np.flatnonzero(mask))
    assert obs.ground_depth.tobytes() == depth[mask].tobytes()


def test_keypoint_noise_perturbs_only_keypoints():
    base = SynthConfig(n_persons=2, rng_seed=7)
    noisy = SynthConfig(n_persons=2, rng_seed=7, keypoint_noise_px=2.0)
    gt0, obs0, _ = generate_scene(base)
    gt1, obs1, _ = generate_scene(noisy)
    for a, b in zip(gt0.persons, gt1.persons):
        assert np.array_equal(a.translation, b.translation)
    deltas = np.concatenate(
        [
            (p1.ref_keypoints - p0.ref_keypoints).ravel()
            for p0, p1 in zip(obs0.persons, obs1.persons)
        ]
    )
    assert deltas.std() == pytest.approx(2.0, rel=0.2)


def test_generation_deterministic():
    cfg = SynthConfig(n_persons=3, rng_seed=8, keypoint_noise_px=1.0,
                      ambiguity_factors=(0.8, 1.0, 1.3), outlier_fraction=0.1)
    a = generate_scene(cfg)
    b = generate_scene(cfg)
    for pa, pb in zip(a[1].persons, b[1].persons):
        assert np.array_equal(pa.ref_keypoints, pb.ref_keypoints)
        assert np.array_equal(pa.translation, pb.translation)
    assert a[2].image_size == b[2].image_size
    assert np.array_equal(a[2].ground_index, b[2].ground_index)
    assert np.array_equal(a[2].ground_depth, b[2].ground_depth)


def test_keypoints_inside_frame():
    cfg = SynthConfig(n_persons=5, rng_seed=9, plane_tilt_deg=10.0)
    _, observed, _ = generate_scene(cfg)
    w, h = observed.camera.image_size
    for person in observed.persons:
        kp = person.ref_keypoints
        assert kp[:, 0].min() >= 0 and kp[:, 0].max() <= w
        assert kp[:, 1].min() >= 0 and kp[:, 1].max() <= h


def test_placement_failure_reports():
    # half-meter viewing distance cannot fit a standing person in frame
    cfg = SynthConfig(n_persons=1, rng_seed=10, depth_range=(0.5, 0.5))
    with pytest.raises(PlacementError):
        generate_scene(cfg)


def test_synth_config_validation():
    with pytest.raises(SchemaError):
        SynthConfig(n_persons=0)
    with pytest.raises(SchemaError):
        SynthConfig(height_range=(1.9, 1.5))
    with pytest.raises(SchemaError):
        SynthConfig(ambiguity_factors=(1.0, -0.5), n_persons=2)
    with pytest.raises(SchemaError):
        SynthConfig(n_persons=2, ambiguity_factors=(1.0,))
    with pytest.raises(SchemaError):
        SynthConfig(outlier_fraction=1.5)
    for field, bad in [("n_persons", 2.5), ("mask_stride", 2.5), ("mask_stride", 0),
                       ("rng_seed", -1), ("rng_seed", 1.0), ("rng_seed", True)]:
        with pytest.raises(SchemaError, match=field):
            SynthConfig(**{field: bad})
    assert SynthConfig(n_persons=np.int64(2), rng_seed=np.int64(5)).rng_seed == 5
