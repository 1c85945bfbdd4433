"""Acceptance gate: one test per shipping criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines inline.
The heavy shared work (the 50-scene suite of `synth.ambiguity_suite` and its
full-mode optimization) lives in the session-scoped `ambiguity_suite` fixture in
conftest.
"""
import subprocess
import sys
import time

import numpy as np

from conftest import exact_optimum_scene, random_scene
from test_objective import fd_gradient, residual_floor

from scenescale import (
    ObjectiveConfig,
    OptimConfig,
    RansacConfig,
    evaluate_scenes,
    loss_and_gradients,
    optimize,
    optimize_baseline,
    ransac_plane,
    synth,
)


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2024)
    cfg = ObjectiveConfig(lam=1.0)
    t0 = time.monotonic()
    checked, worst = 0, 0.0
    for _ in range(500):
        scene = random_scene(rng, n_persons=2, n_joints=16)
        if residual_floor(scene) < 1e-8:
            continue
        _, grad_t, grad_s = loss_and_gradients(scene, cfg)
        fd_t, fd_s = fd_gradient(scene, cfg)
        norm = max(np.abs(fd_t).max(), np.abs(fd_s).max(), 1.0)
        rel = max(np.abs(grad_t - fd_t).max(), np.abs(grad_s - fd_s).max()) / norm
        worst = max(worst, rel)
        checked += 1
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 1 (gradient correctness)",
        worst < 1e-4 and checked >= 450 and elapsed < 30.0,
        f"worst rel {worst:.2e} over {checked} scenes in {elapsed:.1f}s "
        f"(bounds 1e-4, >=450, 30s)",
    )


def test_criterion_2_ambiguity_resolution(ambiguity_suite):
    errs = []
    for (gt, _, _), rep in zip(ambiguity_suite["scenes"], ambiguity_suite["full"]):
        for g, e in zip(gt.persons, rep.final_scene.persons):
            errs.append(abs(e.scale - g.scale) / g.scale)
            errs.append(abs(e.translation[2] - g.translation[2]) / g.translation[2])
    errs = np.array(errs)
    med, p95 = float(np.median(errs)), float(np.percentile(errs, 95))
    elapsed = ambiguity_suite["elapsed"]
    verdict(
        "criterion 2 (ambiguity resolution)",
        med < 0.03 and p95 < 0.08 and elapsed < 120.0,
        f"median {med:.4f} p95 {p95:.4f} over {errs.size} params in {elapsed:.1f}s "
        f"(bounds 0.03, 0.08, 120s)",
    )


def test_criterion_3_ablation_ordering(ambiguity_suite):
    scenes = ambiguity_suite["scenes"]
    gt_scenes = [gt for gt, _, _ in scenes]
    r_full = evaluate_scenes(
        [r.final_scene for r in ambiguity_suite["full"]], gt_scenes
    )

    def ablation(mode):
        cfg = OptimConfig(objective=ObjectiveConfig(mode=mode))
        return evaluate_scenes([optimize(obs, cfg).final_scene for _, obs, _ in scenes], gt_scenes)

    r_plane, r_rep = ablation("plane_only"), ablation("reprojection_only")
    ok = (
        r_full.d_ord >= r_plane.d_ord >= r_rep.d_ord
        and r_full.h_ord >= r_plane.h_ord
    )
    verdict(
        "criterion 3 (ablation ordering)",
        ok,
        f"d_ord full {r_full.d_ord:.2f} >= plane {r_plane.d_ord:.2f} "
        f">= reproj {r_rep.d_ord:.2f}; h_ord full {r_full.h_ord:.2f} "
        f">= plane {r_plane.h_ord:.2f}",
    )


def test_criterion_4_baseline_inferiority(ambiguity_suite):
    scenes = ambiguity_suite["scenes"]
    gt_scenes = [gt for gt, _, _ in scenes]
    base_final = [optimize_baseline(obs, depths).final_scene
                  for (_, obs, _), depths in zip(scenes, synth.pinned_depths(gt_scenes))]
    r_base = evaluate_scenes(base_final, gt_scenes)
    r_full = evaluate_scenes(
        [r.final_scene for r in ambiguity_suite["full"]], gt_scenes
    )
    verdict(
        "criterion 4 (depth-pinned baseline inferiority)",
        r_base.d_ord < r_full.d_ord,
        f"baseline d_ord {r_base.d_ord:.2f} < full {r_full.d_ord:.2f} "
        f"(20% multiplicative depth noise)",
    )


def test_criterion_5_ransac_robustness():
    t0 = time.monotonic()

    def grid(n_side=26, half=5.0):
        xs = np.linspace(-half, half, n_side)
        zs = np.linspace(2.0, 12.0, n_side)
        gx, gz = np.meshgrid(xs, zs)
        return np.column_stack([gx.ravel(), np.zeros(gx.size), gz.ravel()])

    clean = grid()
    plane, _ = ransac_plane(clean, RansacConfig(rng_seed=0))
    exact_angle = float(
        np.arccos(min(1.0, abs(plane.normal @ np.array([0.0, 1.0, 0.0]))))
    )

    angles = []
    n_out = int(0.3 / 0.7 * clean.shape[0])  # 30% of the combined cloud
    noise_rng = np.random.default_rng(4242)
    for seed in range(20):
        outliers = noise_rng.uniform([-6, -4, 1], [6, 4, 13], (n_out, 3))
        pts = np.vstack([clean, outliers])
        fitted, _ = ransac_plane(pts, RansacConfig(rng_seed=seed))
        cos = min(1.0, abs(fitted.normal @ np.array([0.0, 1.0, 0.0])))
        angles.append(np.degrees(np.arccos(cos)))
    mean_angle = float(np.mean(angles))
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 5 (plane fit robustness)",
        exact_angle < 1e-6 and mean_angle < 2.0 and elapsed < 10.0,
        f"noiseless {exact_angle:.2e} rad, mean {mean_angle:.3f} deg over 20 "
        f"seeds at 30% outliers, {elapsed:.1f}s (bounds 1e-6, 2deg, 10s)",
    )


def test_criterion_6_metric_self_consistency():
    rng = np.random.default_rng(606)
    scenes = [random_scene(rng, n_persons=int(rng.integers(2, 5))) for _ in range(20)]
    report = evaluate_scenes(scenes, scenes)
    self_ok = (
        report.d_ord == 100.0 and report.d_norm == 0.0 and report.h_ord == 100.0
    )

    est = [s.copy() for s in scenes]
    for s in est:
        for p in s.persons:
            p.translation = p.translation * 3.7
    drift = abs(
        evaluate_scenes(est, scenes).d_norm
        - evaluate_scenes(scenes, scenes).d_norm
    )
    verdict(
        "criterion 6 (metric self-consistency)",
        self_ok and drift < 1e-12,
        f"self d_ord {report.d_ord} d_norm {report.d_norm} h_ord {report.h_ord}; "
        f"translation-scaling drift {drift:.2e} (bound 1e-12)",
    )


def test_criterion_7_cli_determinism(tmp_path):
    def run(*args):
        res = subprocess.run(
            [sys.executable, "-m", "scenescale.cli", *map(str, args)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        return res

    def pipeline(root):
        root.mkdir()
        run("synth", "--out", root, "--n-persons", "2", "--seed", "21",
            "--factors", "1.3,0.8", "--noise-px", "1.0")
        fitted = root / "fitted.json"
        run("fit-plane", root / "depth_000.f32", root / "mask_000.u8",
            root / "scene_000.json", "--out", fitted, "--seed", "3")
        optimized = root / "optimized.json"
        run("optimize", fitted, "--out", optimized, "--trace", root / "trace.csv",
            "--iterations", "150")
        run("evaluate", "--est", optimized, "--gt", root / "gt_000.json",
            "--json", root / "report.json")
        return sorted(p for p in root.iterdir() if p.is_file())

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    names_match = [p.name for p in first] == [p.name for p in second]
    all_equal = names_match and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(first, second)
    )
    verdict(
        "criterion 7 (CLI determinism)",
        all_equal,
        f"{len(first)} artifacts byte-identical across reruns of "
        f"synth/fit-plane/optimize/evaluate",
    )


def test_criterion_8_fixed_point_stability():
    scene = exact_optimum_scene(seed=2)
    before_t = np.stack([p.translation for p in scene.persons])
    before_s = np.array([p.scale for p in scene.persons])
    report = optimize(scene, OptimConfig(objective=ObjectiveConfig(lam=1.0)))
    after_t = np.stack([p.translation for p in report.final_scene.persons])
    after_s = np.array([p.scale for p in report.final_scene.persons])
    moved = max(
        float(np.abs(after_t - before_t).max()),
        float(np.abs(after_s - before_s).max()),
    )
    verdict(
        "criterion 8 (fixed-point stability)",
        moved <= 1e-6,
        f"max parameter change {moved:.2e} over 600 iterations (bound 1e-6)",
    )
