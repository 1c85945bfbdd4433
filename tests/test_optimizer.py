import numpy as np
import pytest

from conftest import SUITE_LAM, exact_optimum_scene, random_scene, reprojection
from scenescale import (
    CameraModel,
    GroundPlane,
    NonFiniteLossError,
    ObjectiveConfig,
    OptimConfig,
    Person,
    Scene,
    SchemaError,
    SynthConfig,
    WeakPerspectiveCam,
    generate_scene,
    initialize,
    loss_and_gradients,
    optimize,
    optimize_baseline,
    posed_ankles,
    posed_joints,
    project,
)
from scenescale.optimizer import lift_translations

CAM = CameraModel(1000.0, (1920, 1080))


def weak_cam_person(sigma=1.0, tx=0.0, ty=0.0):
    return Person(
        joints=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        rotation=np.eye(3),
        translation=None,
        weak_cam=WeakPerspectiveCam(sigma=sigma, tx=tx, ty=ty),
        ankle_left_idx=0,
        ankle_right_idx=1,
        head_idx=1,
        foot_chain=(0,),
    )


# --- initialize ---


def test_initialize_lifts_weak_camera():
    scene = Scene([weak_cam_person(sigma=1.0)], CAM)
    out = initialize(scene)
    assert np.allclose(out.persons[0].translation, [0.0, 0.0, 1000.0])
    assert out.persons[0].scale == 1.0


def test_initialize_keeps_explicit_translation():
    p = weak_cam_person()
    p.weak_cam = None
    p.translation = np.array([1.0, 2.0, 5.0])
    p.scale = 1.6
    out = initialize(Scene([p], CAM))
    assert np.array_equal(out.persons[0].translation, [1.0, 2.0, 5.0])
    assert out.persons[0].scale == 1.0


def test_initialize_all_scales_one():
    rng = np.random.default_rng(0)
    scene = random_scene(rng, n_persons=3)
    for person in scene.persons:
        person.scale = float(rng.uniform(0.5, 2.0))
    out = initialize(scene)
    assert [p.scale for p in out.persons] == [1.0, 1.0, 1.0]


def test_initialize_requires_some_translation_source():
    p = weak_cam_person()
    p.weak_cam = None
    scene = Scene([p], CAM)
    with pytest.raises(SchemaError):
        initialize(scene)


def test_lift_without_reset_keeps_stored_state():
    stored = weak_cam_person(sigma=2.0)
    stored.translation = np.array([1.0, 2.0, 5.0])
    stored.scale = 1.6
    scene = Scene([weak_cam_person(sigma=1.0), stored], CAM)
    kept = lift_translations(scene, reset=False)
    assert np.allclose(kept.persons[0].translation, [0.0, 0.0, 1000.0])
    assert np.array_equal(kept.persons[1].translation, [1.0, 2.0, 5.0])
    assert kept.persons[1].scale == 1.6
    reset = lift_translations(scene, reset=True)
    assert np.allclose(reset.persons[1].translation, [0.0, 0.0, 500.0])
    assert reset.persons[1].scale == 1.0


def test_initialize_does_not_mutate_input():
    scene = Scene([weak_cam_person(sigma=2.0, tx=0.5)], CAM)
    initialize(scene)
    assert scene.persons[0].translation is None


# --- optimize ---


def test_optimize_fixed_point():
    scene = exact_optimum_scene(seed=2)
    cfg = OptimConfig(objective=ObjectiveConfig(lam=1.0))
    initial = loss_and_gradients(scene, cfg.objective)[0].total
    report = optimize(scene, cfg)
    assert report.final_loss.total <= initial + 1e-9
    for before, after in zip(scene.persons, report.final_scene.persons):
        assert np.abs(after.translation - before.translation).max() < 1e-6
        assert abs(after.scale - before.scale) < 1e-6


def test_optimize_corrects_consistent_perturbation():
    # x1.5 on one person's depth and scale is invisible to reprojection;
    # only the ground contact pulls it back
    cfg = SynthConfig(n_persons=2, ambiguity_factors=(1.0, 1.5), rng_seed=11,
                      keypoint_noise_px=0.5)
    gt, observed, _ = generate_scene(cfg)
    report = optimize(observed, OptimConfig(objective=ObjectiveConfig(lam=SUITE_LAM)))
    for rec, true in zip(report.final_scene.persons, gt.persons):
        assert abs(rec.scale / true.scale - 1.0) < 0.02
        assert abs(rec.translation[2] / true.translation[2] - 1.0) < 0.02


def test_optimize_reprojection_preserved_under_plane_correction():
    cfg = SynthConfig(n_persons=3, ambiguity_factors=(0.7, 1.0, 1.4), rng_seed=5,
                      keypoint_noise_px=1.0)
    _, observed, _ = generate_scene(cfg)
    initial_rep = reprojection(observed)
    report = optimize(observed, OptimConfig(objective=ObjectiveConfig(lam=SUITE_LAM)))
    assert reprojection(report.final_scene) <= initial_rep + 1.0


def test_optimize_plane_only_reaches_ground():
    cfg = SynthConfig(n_persons=2, ambiguity_factors=(1.3, 0.8), rng_seed=3)
    _, observed, _ = generate_scene(cfg)
    # small steps: the kinked |distance| objective leaves a terminal
    # oscillation of roughly a quarter learning rate
    report = optimize(
        observed,
        OptimConfig(learning_rate=1e-3, iterations=3000,
                    objective=ObjectiveConfig(lam=1.0, mode="plane_only")),
    )
    for person in report.final_scene.persons:
        dists = observed.plane.signed_distance(posed_ankles(person))
        assert np.abs(dists).max() < 1e-3


def test_optimize_deterministic():
    cfg = SynthConfig(n_persons=2, ambiguity_factors=(1.2, 0.9), rng_seed=8,
                      keypoint_noise_px=1.0)
    _, observed, _ = generate_scene(cfg)
    ocfg = OptimConfig(iterations=80, objective=ObjectiveConfig(lam=SUITE_LAM))
    r1 = optimize(observed, ocfg)
    r2 = optimize(observed, ocfg)
    t1 = [(b.reprojection, b.plane, b.total) for b in r1.loss_trace]
    t2 = [(b.reprojection, b.plane, b.total) for b in r2.loss_trace]
    assert t1 == t2  # bitwise, not approx
    for p1, p2 in zip(r1.final_scene.persons, r2.final_scene.persons):
        assert np.array_equal(p1.translation, p2.translation)
        assert p1.scale == p2.scale


def test_optimize_does_not_mutate_input():
    cfg = SynthConfig(n_persons=2, ambiguity_factors=(1.4, 1.0), rng_seed=21)
    _, observed, _ = generate_scene(cfg)
    snapshot = [(p.translation.copy(), p.scale) for p in observed.persons]
    optimize(observed, OptimConfig(iterations=20, objective=ObjectiveConfig(lam=1.0)))
    for person, (t, s) in zip(observed.persons, snapshot):
        assert np.array_equal(person.translation, t)
        assert person.scale == s


def test_optimize_trace_and_scale_bookkeeping():
    cfg = SynthConfig(n_persons=2, ambiguity_factors=(1.2, 0.8), rng_seed=13)
    _, observed, _ = generate_scene(cfg)
    ocfg = OptimConfig(iterations=50, scale_min=0.1,
                       objective=ObjectiveConfig(lam=SUITE_LAM))
    report = optimize(observed, ocfg)
    assert len(report.loss_trace) == 50
    assert report.converged_iteration == 50
    assert report.scale_trace.shape == (51, 2)
    assert np.all(report.scale_trace >= 0.1)
    final = loss_and_gradients(report.final_scene, ocfg.objective)[0]
    assert report.final_loss.total == final.total


def test_optimize_scale_clamp_engages():
    # enormous learning rate drives scale below the floor immediately
    cfg = SynthConfig(n_persons=1, ambiguity_factors=(0.6,), rng_seed=4)
    _, observed, _ = generate_scene(cfg)
    ocfg = OptimConfig(learning_rate=5.0, iterations=10, scale_min=0.25,
                       objective=ObjectiveConfig(lam=SUITE_LAM))
    report = optimize(observed, ocfg)
    assert report.scale_trace.min() == 0.25


def test_optimize_early_stop():
    scene = exact_optimum_scene(seed=9)
    ocfg = OptimConfig(iterations=400, early_stop_rel=1e-12,
                       objective=ObjectiveConfig(lam=1.0))
    report = optimize(scene, ocfg)
    assert report.converged_iteration < 400
    assert len(report.loss_trace) == report.converged_iteration


def test_optimize_rejects_non_finite():
    rng = np.random.default_rng(6)
    scene = random_scene(rng, n_persons=1)
    scene.persons[0].ref_keypoints[0, 0] = np.nan
    with pytest.raises(NonFiniteLossError):
        optimize(scene, OptimConfig(iterations=5, objective=ObjectiveConfig(lam=1.0)))


def test_optim_config_validation():
    with pytest.raises(SchemaError):
        OptimConfig(learning_rate=0.0)
    with pytest.raises(SchemaError):
        OptimConfig(iterations=0)
    with pytest.raises(SchemaError):
        OptimConfig(adam_beta1=1.0)
    with pytest.raises(SchemaError):
        OptimConfig(scale_min=0.0)


# --- baseline ---


def baseline_scene(rng_seed=17, factors=(1.3, 0.8)):
    cfg = SynthConfig(n_persons=len(factors), ambiguity_factors=factors,
                      rng_seed=rng_seed)
    return generate_scene(cfg)


def test_baseline_exact_depths_recover_xy():
    gt, observed, _ = baseline_scene()
    depths = [float(p.translation[2]) for p in gt.persons]
    report = optimize_baseline(
        observed, depths, OptimConfig(learning_rate=5e-3, iterations=2000)
    )
    for rec, true in zip(report.final_scene.persons, gt.persons):
        assert rec.translation[2] == true.translation[2]  # frozen exactly
        xy_err = np.linalg.norm(rec.translation[:2] - true.translation[:2])
        assert xy_err < 1e-3


def test_baseline_doubled_depths_double_scale():
    gt, observed, _ = baseline_scene(rng_seed=23, factors=(1.0, 1.0))
    depths = [2.0 * float(p.translation[2]) for p in gt.persons]
    report = optimize_baseline(observed, depths)
    for rec, true in zip(report.final_scene.persons, gt.persons):
        assert rec.scale / true.scale == pytest.approx(2.0, rel=0.01)


def test_baseline_zero_confidence_is_inert():
    gt, observed, _ = baseline_scene(rng_seed=29, factors=(1.0,))
    person = observed.persons[0]
    person.confidences = np.zeros(person.n_joints)
    before_xy = person.translation[:2].copy()
    before_s = person.scale
    report = optimize_baseline(observed, [float(gt.persons[0].translation[2])])
    after = report.final_scene.persons[0]
    assert np.array_equal(after.translation[:2], before_xy)
    assert after.scale == before_s


def test_baseline_ignores_plane_term():
    gt, observed, _ = baseline_scene(rng_seed=31, factors=(1.5, 1.5))
    observed.plane = None  # reprojection-only path must not need it
    depths = [float(p.translation[2]) for p in gt.persons]
    report = optimize_baseline(observed, depths)
    assert report.final_loss.total >= 0.0


def test_baseline_validation():
    _, observed, _ = baseline_scene(rng_seed=37, factors=(1.0, 1.0))
    with pytest.raises(SchemaError):
        optimize_baseline(observed, [5.0])  # wrong length
    with pytest.raises(SchemaError):
        optimize_baseline(observed, [5.0, -1.0])
