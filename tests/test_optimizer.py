import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_optimum_scene, ragged_scene, random_scene, reprojection
from scenescale import (
    CameraModel,
    NonFiniteLossError,
    ObjectiveConfig,
    OptimConfig,
    Person,
    Scene,
    SchemaError,
    SynthConfig,
    WeakPerspectiveCam,
    generate_scene,
    lift_translations,
    loss_and_gradients,
    optimize,
    optimize_baseline,
)
from scenescale import optimizer
from scenescale.objective import (
    BEHIND_PENALTY,
    KINK_EPS,
    MODES,
    Z_EPSILON,
    LossBreakdown,
    PackedScene,
    _evaluate_theta,
    _loss_sums,
)
from scenescale.optimizer import SCALE_MIN, OptimReport
from scenescale.scene import posed_ankles, posed_joints

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


# --- lift_translations ---


def test_initialize_lifts_weak_camera():
    scene = Scene([weak_cam_person(sigma=1.0)], CAM)
    out = lift_translations(scene)
    assert np.allclose(out.persons[0].translation, [0.0, 0.0, 1000.0])
    assert out.persons[0].scale == 1.0


def test_initialize_keeps_explicit_translation():
    p = weak_cam_person()
    p.weak_cam = None
    p.translation = np.array([1.0, 2.0, 5.0])
    p.scale = 1.6
    out = lift_translations(Scene([p], CAM))
    assert np.array_equal(out.persons[0].translation, [1.0, 2.0, 5.0])
    assert out.persons[0].scale == 1.0


def test_initialize_all_scales_one():
    rng = np.random.default_rng(0)
    scene = random_scene(rng, n_persons=3)
    for person in scene.persons:
        person.scale = float(rng.uniform(0.5, 2.0))
    out = lift_translations(scene)
    assert [p.scale for p in out.persons] == [1.0, 1.0, 1.0]


def test_scene_requires_some_translation_source():
    p = weak_cam_person()
    p.weak_cam = None
    with pytest.raises(SchemaError, match=r"persons\[0\].*translation"):
        Scene([p], CAM)


def test_scene_lifts_only_missing_translations():
    """A Scene lifts a weak-camera person and keeps an explicit t and s;
    lift_translations lifts every weak camera again and resets s."""
    stored = weak_cam_person(sigma=2.0)
    stored.translation = np.array([1.0, 2.0, 5.0])
    stored.scale = 1.6
    scene = Scene([weak_cam_person(sigma=1.0), stored], CAM)
    assert np.allclose(scene.persons[0].translation, [0.0, 0.0, 1000.0])
    assert np.array_equal(scene.persons[1].translation, [1.0, 2.0, 5.0])
    assert scene.persons[1].scale == 1.6
    reset = lift_translations(scene)
    assert np.allclose(reset.persons[1].translation, [0.0, 0.0, 500.0])
    assert reset.persons[1].scale == 1.0


def test_initialize_does_not_mutate_input():
    stored = weak_cam_person(sigma=2.0, tx=0.5)
    stored.translation = np.array([1.0, 2.0, 5.0])
    stored.scale = 1.6
    scene = Scene([stored], CAM)
    lift_translations(scene)
    assert np.array_equal(scene.persons[0].translation, [1.0, 2.0, 5.0])
    assert scene.persons[0].scale == 1.6


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
    report = optimize(observed)
    for rec, true in zip(report.final_scene.persons, gt.persons):
        assert abs(rec.scale / true.scale - 1.0) < 0.02
        assert abs(rec.translation[2] / true.translation[2] - 1.0) < 0.02


def test_optimize_reprojection_preserved_under_plane_correction():
    cfg = SynthConfig(n_persons=3, ambiguity_factors=(0.7, 1.0, 1.4), rng_seed=5,
                      keypoint_noise_px=1.0)
    _, observed, _ = generate_scene(cfg)
    initial_rep = reprojection(observed)
    report = optimize(observed)
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
    ocfg = OptimConfig(iterations=80)
    r1 = optimize(observed, ocfg)
    r2 = optimize(observed, ocfg)
    assert np.array_equal(r1.loss_trace, r2.loss_trace)  # bitwise, not approx
    for p1, p2 in zip(r1.final_scene.persons, r2.final_scene.persons):
        assert np.array_equal(p1.translation, p2.translation)
        assert p1.scale == p2.scale


def person_alone_and_together(scene, ocfg):
    """Each person's (translation, scale) optimized inside scene, then alone."""
    together = optimize(scene, ocfg).final_scene.persons
    for person, inside in zip(scene.persons, together):
        alone = optimize(Scene([person], scene.camera, scene.plane), ocfg).final_scene.persons[0]
        yield (inside.translation, inside.scale), (alone.translation, alone.scale)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n_persons=st.integers(2, 5))
def test_person_result_does_not_depend_on_the_others(mode, seed, n_persons):
    """Optimized alone or inside its scene, a person ends with the same bits.

    Scoped to persons that share a joint count, as in every synth scene.  A
    scene packs its persons to the longest joint count, and that padding
    regroups numpy's pairwise sums over a shorter person's joints, which
    moves its last bits: conftest.ragged_scene breaks the property in most
    mode runs.
    """
    scene = random_scene(np.random.default_rng(seed), n_persons=n_persons, noise_px=1.0)
    ocfg = OptimConfig(iterations=200, objective=ObjectiveConfig(mode=mode))
    for (t_in, s_in), (t_alone, s_alone) in person_alone_and_together(scene, ocfg):
        assert np.array_equal(t_in, t_alone)
        assert s_in == s_alone


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
    ocfg = OptimConfig(iterations=50)
    report = optimize(observed, ocfg)
    assert report.loss_trace.shape == (51, 3)
    assert report.converged_iteration == 50
    fl = report.final_loss
    assert report.loss_trace[-1].tolist() == [fl.reprojection, fl.plane, fl.total]
    initial = loss_and_gradients(observed, ocfg.objective)[0]
    assert report.loss_trace[0].tolist() == [initial.reprojection, initial.plane, initial.total]
    rep, plane, total = report.loss_trace.T
    assert np.array_equal(total, rep + ocfg.objective.lam * plane)
    assert all(p.scale >= SCALE_MIN for p in report.final_scene.persons)
    final = loss_and_gradients(report.final_scene, ocfg.objective)[0]
    assert report.final_loss.total == final.total


def test_optimize_scale_clamp_engages():
    # an oversized person (s = 1.6) shrinks, and an enormous learning rate
    # takes the first step far below the floor
    cfg = SynthConfig(n_persons=1, ambiguity_factors=(1.6,), rng_seed=4)
    _, observed, _ = generate_scene(cfg)
    ocfg = OptimConfig(learning_rate=5.0, iterations=1)
    report = optimize(observed, ocfg)
    assert SCALE_MIN == 0.1
    assert report.final_scene.persons[0].scale == SCALE_MIN


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
    for bad in (2.5, 3.0, True, "5"):
        with pytest.raises(SchemaError, match="iterations"):
            OptimConfig(iterations=bad)


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
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(SchemaError):
            optimize_baseline(observed, [5.0, bad])


# --- optimize against the allocating arithmetic it replaced ---


def project_clamped(points, cam, z_epsilon):
    """Literal copy of the projection with z clamped at z_epsilon that the oracle used."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    clamped = z < z_epsilon
    zc = np.maximum(z, z_epsilon)
    cx, cy = cam.principal_point
    u = cam.focal * points[..., 0] / zc + cx
    v = cam.focal * points[..., 1] / zc + cy
    return np.stack([u, v], axis=-1), clamped


def oracle_evaluate_theta(packed, theta, cfg):
    """Literal copy of the allocating _evaluate_theta that the in-place one replaced.

    It reads the packed joints and keypoints as contiguous person-major
    copies, the layout its reductions were written for.
    """
    rotated = np.ascontiguousarray(packed.rotated)
    keypoints = np.ascontiguousarray(packed.keypoints)
    n = rotated.shape[0]
    t = theta[: 3 * n].reshape(n, 3)
    s = theta[3 * n :]
    rep = np.zeros(n)
    plane = np.zeros(n)
    grad_t = np.zeros((n, 3))
    grad_s = np.zeros(n)

    if cfg.mode != "plane_only":
        eps = 1e-3  # the parent's ObjectiveConfig.z_epsilon
        c = packed.confidences
        posed = s[:, None, None] * rotated + t[:, None, :]           # (N, K, 3)
        z = posed[..., 2]
        zc = np.maximum(z, eps)
        pixels, clamped = project_clamped(posed, packed.camera, eps)
        residuals = keypoints - pixels                               # (N, K, 2)
        norms = np.linalg.norm(residuals, axis=-1)
        behind = np.maximum(eps - z, 0.0)
        rep = np.sum(c * norms, axis=1) + BEHIND_PENALTY * np.sum(c * behind, axis=1)

        w = np.divide(c, norms, out=np.zeros_like(norms), where=norms >= KINK_EPS)
        cu = w[..., None] * residuals                                # c * u
        f_z = packed.camera.focal / zc
        dx = np.empty_like(posed)
        dx[..., :2] = -f_z[..., None] * cu
        dx[..., 2] = np.where(clamped, 0.0, f_z / zc * np.sum(cu * posed[..., :2], axis=-1))
        dx[..., 2] -= BEHIND_PENALTY * np.where(clamped, c, 0.0)
        grad_t += dx.sum(axis=1)
        grad_s += np.sum(dx * rotated, axis=(1, 2))

    if cfg.mode != "reprojection_only":
        ankles = s[:, None, None] * packed.ankles + t[:, None, :]     # (N, 2, 3)
        dist = ankles @ packed.normal - packed.offset
        plane = np.sum(np.abs(dist), axis=1)
        sign = np.where(np.abs(dist) < KINK_EPS, 0.0, np.sign(dist))
        grad_t += cfg.lam * np.sum(sign, axis=1)[:, None] * packed.normal
        grad_s += cfg.lam * np.sum(sign * (packed.ankles @ packed.normal), axis=1)

    return rep, plane, np.concatenate([grad_t.ravel(), grad_s])


def oracle_run_adam(work, cfg, freeze_z=False):
    """Literal copy of the allocating _run_adam that the in-place one replaced.

    The trace is built the parent's way, one LossBreakdown per iteration,
    and only turned into the (iterations+1, 3) array at the end.
    """
    obj = cfg.objective
    b1, b2, eps = 0.9, 0.999, 1e-8  # the parent's OptimConfig defaults
    packed = PackedScene(work, obj)
    theta = packed.theta
    n = len(work.persons)
    update = np.ones(4 * n, dtype=bool)
    if freeze_z:
        update[2 : 3 * n : 3] = False

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trace = []
    steps = 0

    for it in range(1, cfg.iterations + 1):
        rep, plane, g = oracle_evaluate_theta(packed, theta, obj)
        breakdown = LossBreakdown(*_loss_sums(rep, plane, obj.lam))
        if not np.isfinite(breakdown.total):
            raise NonFiniteLossError(f"non-finite loss at iteration {it - 1}")
        trace.append(breakdown)

        g[~update] = 0.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**it)
        v_hat = v / (1 - b2**it)
        theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        theta[3 * n :] = np.maximum(theta[3 * n :], 0.1)  # the parent's scale_min
        steps = it

    for i, person in enumerate(work.persons):
        person.translation = theta[3 * i : 3 * i + 3].copy()
        person.scale = float(theta[3 * n + i])
    rep, plane, _ = oracle_evaluate_theta(packed, theta, obj)
    final = LossBreakdown(*_loss_sums(rep, plane, obj.lam))
    return OptimReport(
        loss_trace=np.array([(b.reprojection, b.plane, b.total) for b in trace + [final]]),
        final_loss=final,
        final_scene=work,
        converged_iteration=steps,
    )


def final_theta(report):
    persons = report.final_scene.persons
    return np.concatenate([p.translation for p in persons] + [[p.scale for p in persons]])


def assert_matches_oracle(monkeypatch, run):
    """run() through the in-place ADAM and through the oracle: the same bits."""
    got = run()
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "_run_adam", oracle_run_adam)
        expected = run()
    assert got.converged_iteration == expected.converged_iteration
    assert np.array_equal(final_theta(got), final_theta(expected))
    assert got.loss_trace.shape == (got.converged_iteration + 1, 3)
    assert np.array_equal(got.loss_trace, expected.loss_trace)
    assert got.final_loss == expected.final_loss
    fl = got.final_loss
    assert got.loss_trace[-1].tolist() == [fl.reprojection, fl.plane, fl.total]
    return got


def crowd_scene(n_persons=20, seed=41):
    rng = np.random.default_rng(seed)
    cfg = SynthConfig(n_persons=n_persons, rng_seed=seed, keypoint_noise_px=1.0,
                      ambiguity_factors=tuple(rng.uniform(0.6, 1.6, n_persons)),
                      depth_range=(3.5, 12.0), mask_stride=12)
    return generate_scene(cfg)


def test_adam_matches_oracle_crowd(monkeypatch):
    _, observed, _ = crowd_scene()
    ocfg = OptimConfig()
    report = assert_matches_oracle(monkeypatch, lambda: optimize(observed, ocfg))
    assert report.converged_iteration == 600


@pytest.mark.parametrize("mode", ["full", "reprojection_only", "plane_only"])
def test_adam_matches_oracle_each_mode(monkeypatch, mode):
    _, observed, _ = crowd_scene(n_persons=4, seed=43)
    ocfg = OptimConfig(iterations=300, objective=ObjectiveConfig(mode=mode))
    assert_matches_oracle(monkeypatch, lambda: optimize(observed, ocfg))


def test_adam_matches_oracle_behind_camera(monkeypatch):
    scene = ragged_scene(seed=3, behind=True)
    cfg = ObjectiveConfig(lam=1.0)
    assert np.any(posed_joints(scene.persons[1])[:, 2] < Z_EPSILON)  # the penalty runs
    ocfg = OptimConfig(iterations=200, objective=cfg)
    assert_matches_oracle(monkeypatch, lambda: optimize(scene, ocfg))


def test_adam_matches_oracle_ragged_zero_confidence(monkeypatch):
    scene = ragged_scene(seed=5)
    persons = scene.persons
    persons[2].confidences = np.zeros(persons[2].n_joints)
    ocfg = OptimConfig(iterations=200)
    assert_matches_oracle(monkeypatch, lambda: optimize(scene, ocfg))
    reproj = OptimConfig(iterations=200, objective=ObjectiveConfig(mode="reprojection_only"))
    report = assert_matches_oracle(monkeypatch, lambda: optimize(scene, reproj))
    # the zero-confidence person has no gradient and never moves
    assert np.array_equal(report.final_scene.persons[2].translation, persons[2].translation)


def test_adam_matches_oracle_frozen_z_baseline(monkeypatch):
    gt, observed, _ = baseline_scene(rng_seed=19, factors=(1.2, 0.9, 1.4))
    depths = [1.1 * float(p.translation[2]) for p in gt.persons]
    ocfg = OptimConfig(iterations=300)
    report = assert_matches_oracle(monkeypatch, lambda: optimize_baseline(observed, depths, ocfg))
    assert [p.translation[2] for p in report.final_scene.persons] == depths


def test_adam_matches_oracle_at_kinks(monkeypatch):
    # both terms start at exactly zero: every residual and ankle distance
    # sits below KINK_EPS, where the gradient takes the zero subgradient
    scene = exact_optimum_scene(seed=4)
    ocfg = OptimConfig(iterations=100, objective=ObjectiveConfig(lam=1.0))
    assert_matches_oracle(monkeypatch, lambda: optimize(scene, ocfg))


def test_evaluate_matches_oracle_with_nan_theta():
    # a nan depth must not hide another person's behind-camera penalty or
    # ankle kink: every entry, nan or not, equals the oracle's
    scene = ragged_scene(seed=7, behind=True)
    for mode in ("full", "reprojection_only", "plane_only"):
        cfg = ObjectiveConfig(lam=2.0, mode=mode)
        packed = PackedScene(scene, cfg)
        theta = packed.theta
        theta[2] = np.nan
        if packed.normal is not None:
            # person 2's left ankle 1e-12 m off the plane, inside KINK_EPS
            ankle = theta[3 * 3 + 2] * packed.ankles[2, 0] + theta[6:9]
            packed.offset = float(ankle @ packed.normal) - 1e-12
        got = [a.copy() for a in _evaluate_theta(packed)]
        expected = oracle_evaluate_theta(packed, theta, cfg)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b, equal_nan=True)


def kink_sources(packed, theta):
    """Smallest residual norm and smallest |ankle distance| at theta (nan if any
    is nan), in the oracle's arithmetic; inf for a term the packing left out."""
    rotated = np.ascontiguousarray(packed.rotated)
    keypoints = np.ascontiguousarray(packed.keypoints)
    n = rotated.shape[0]
    t, s = theta[: 3 * n].reshape(n, 1, 3), theta[3 * n :].reshape(n, 1, 1)
    pixels, _ = project_clamped(s * rotated + t, packed.camera, Z_EPSILON)
    norms = np.linalg.norm(keypoints - pixels, axis=-1)
    if packed.normal is None:
        return norms.min(), np.inf
    dist = (s * packed.ankles + t) @ packed.normal - packed.offset
    return norms.min(), np.abs(dist).min()


def exact_keypoint_scene(seed):
    """A ragged scene whose person 1 has one keypoint on its joint's exact
    projection, so that one residual norm is 0 and every other is above KINK_EPS."""
    scene = ragged_scene(seed)
    person = scene.persons[1]
    person.ref_keypoints[5] = project_clamped(posed_joints(person)[5], scene.camera, Z_EPSILON)[0]
    return scene


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", ["residual", "ankle", "nan_ankles", "nan_ankles_and_residual"])
def test_evaluate_matches_oracle_for_each_kink_source(mode, case):
    # the residual norms and the |ankle distances| share one KINK_EPS test:
    # a kink in either, or a nan in the ankle distances alone, must take
    # both masked paths, and the masked paths must change nothing else
    scene = exact_keypoint_scene(11) if "residual" in case else ragged_scene(11)
    cfg = ObjectiveConfig(lam=3.0, mode=mode)
    packed = PackedScene(scene, cfg)
    theta = packed.theta
    if packed.normal is not None:
        if case == "ankle":
            # person 0's right ankle 1e-12 m off the plane, inside KINK_EPS
            ankle = theta[3 * 3] * packed.ankles[0, 1] + theta[0:3]
            packed.offset = float(ankle @ packed.normal) - 1e-12
        elif case.startswith("nan_ankles"):
            packed.offset = np.nan
    residual, ankle = kink_sources(packed, theta)
    uses_rep, uses_plane = mode != "plane_only", mode != "reprojection_only"
    assert (residual < KINK_EPS) == (uses_rep and "residual" in case)
    assert (ankle < KINK_EPS) == (uses_plane and case == "ankle")
    assert np.isnan(ankle) == (uses_plane and case.startswith("nan_ankles"))
    assert np.isfinite(theta).all()
    got = [a.copy() for a in _evaluate_theta(packed)]
    expected = oracle_evaluate_theta(packed, theta, cfg)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b, equal_nan=True)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_persons=st.integers(1, 6),
    mode=st.sampled_from(["full", "reprojection_only", "plane_only"]),
    noise_px=st.sampled_from([0.0, 1.0, 3.0]),
)
def test_adam_matches_oracle_random_synth(seed, n_persons, mode, noise_px):
    rng = np.random.default_rng(seed)
    cfg = SynthConfig(n_persons=n_persons, rng_seed=seed, keypoint_noise_px=noise_px,
                      ambiguity_factors=tuple(rng.uniform(0.6, 1.6, n_persons)))
    _, observed, _ = generate_scene(cfg)
    ocfg = OptimConfig(iterations=150, objective=ObjectiveConfig(mode=mode))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_oracle(monkeypatch, lambda: optimize(observed, ocfg))
