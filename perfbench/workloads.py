"""Workload inputs, per-item pipelines and output checks.

Every workload is a small pool of items made by ``scenescale.synth``.
``generate`` writes the pool to files with ``scenescale.sceneio`` (outside
any timed region); the worker process loads it back and runs it in a
closed loop.

Each workload's item mix is a fixed list of slots (person counts, outlier
fractions).  Half the slots are drawn from the run's ``--seed``; the other
half, the reference items, are drawn from ``REFERENCE_SEED`` in every run.
Both halves are timed and checked.  The quality metrics are computed on the
reference items only: measured across seeds they move by up to 50x (d_norm
of a 3-frame pool), so only a fixed set can tell a worse result from a
different input.  Quality on the seed items is reported beside them.

The bounds the checks apply are the ones the repository already states:
criterion 5 (plane normal within 2 degrees), criterion 2 (median relative
scale/depth error under 3 %, p95 under 8 %), criterion 7 (byte-identical
CLI artifacts on rerun) and the CLI's exit code 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("ground-1080p", "crowd", "suite-ablation", "cli-chain")
REFERENCE_SEED = 20211101
PROBE_PERSONS = (2, 5, 10, 20)

LAM = 500.0                  # plane weight used by the tests and the scripts
PLANE_TOL_DEG = 2.0          # criterion 5
SUITE_MEDIAN_BOUND = 0.03    # criterion 2
SUITE_P95_BOUND = 0.08       # criterion 2
SCALE_CONSISTENCY_TOL = 0.03
MODES = ("reprojection_only", "plane_only", "full")
CLI_ARTIFACTS = ("fitted.json", "optimized.json", "report.json")

# (n_persons, outlier_fraction) per slot; even slots come from --seed, odd
# slots are the reference items
SLOTS = {
    "ground-1080p": [(2, 0.0), (3, 0.0), (3, 0.15), (2, 0.15), (2, 0.3), (3, 0.3)],
    "crowd": [(10, 0.15), (12, 0.15), (16, 0.15), (14, 0.15), (18, 0.15), (20, 0.15)],
    "suite-ablation": [(2, 0.0), (3, 0.0), (3, 0.0), (2, 0.0),
                       (4, 0.0), (5, 0.0), (5, 0.0), (4, 0.0)],
    "cli-chain": [(3, 0.0), (3, 0.3), (3, 0.15), (3, 0.15)],
}


class CheckFailed(Exception):
    """An item's output broke one of the stated bounds."""


# --------------------------------------------------------------------------
# input generation (parent process, untimed)


def synth_kwargs(workload: str, seed: int, slot: int, n_persons: int, outliers: float) -> dict:
    """SynthConfig fields for one item of a workload."""
    rng = np.random.default_rng([seed % 2**32, WORKLOADS.index(workload), slot])
    kwargs = dict(
        n_persons=n_persons,
        rng_seed=int(rng.integers(2**31)),
        ambiguity_factors=tuple(float(f) for f in rng.uniform(0.6, 1.6, n_persons)),
        keypoint_noise_px=1.0,
        plane_tilt_deg=float(rng.uniform(3.0, 10.0)),
        outlier_fraction=outliers,
    )
    if workload == "crowd" or n_persons > 5:
        kwargs.update(depth_range=(3.5, 12.0), mask_stride=12)
    return kwargs


def _baseline_depths(gt, synth_seed: int) -> list[float]:
    """Depth-pinned baseline input as in scripts/run_suite.py: 20 %
    multiplicative noise on the true depths, clipped at 0.5 m."""
    noise = np.random.default_rng([synth_seed, 777]).standard_normal(len(gt.persons))
    depths = np.array([p.translation[2] for p in gt.persons]) * (1.0 + 0.2 * noise)
    return [float(d) for d in np.clip(depths, 0.5, None)]


def _write_item(out_dir: Path, name: str, kwargs: dict, with_depth: bool) -> dict:
    from scenescale import SynthConfig, generate_scene, save_depth_observation, save_scene

    gt, observed, obs = generate_scene(SynthConfig(**kwargs))
    entry = {"scene": f"{name}_scene.json", "gt": f"{name}_gt.json",
             "baseline_depths": _baseline_depths(gt, kwargs["rng_seed"])}
    if with_depth:
        observed.plane = None  # the pipeline has to recover it
        entry["depth"], entry["mask"] = f"{name}_depth.f32", f"{name}_mask.u8"
        save_depth_observation(obs, out_dir / entry["depth"], out_dir / entry["mask"])
    save_scene(observed, out_dir / entry["scene"])
    save_scene(gt, out_dir / entry["gt"])
    return entry


def generate(workload: str, seed: int, out_dir: Path) -> None:
    """Write the workload's item pool, probe inputs and manifest under out_dir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    planefit = workload != "suite-ablation"
    items = []
    for slot, (n, outliers) in enumerate(SLOTS[workload]):
        reference = slot % 2 == 1
        kwargs = synth_kwargs(workload, REFERENCE_SEED if reference else seed, slot, n, outliers)
        entry = _write_item(out_dir, f"item{slot:02d}", kwargs, planefit)
        entry.update(id=slot, reference=reference)
        items.append(entry)
    # probe inputs for the traced run: one frame with a depth map from this
    # workload's generator, and one scene per probed person count
    n, outliers = SLOTS[workload][0]
    probe = {"frame": _write_item(out_dir, "probe", synth_kwargs(workload, seed, 100, n, outliers), True)}
    for n in PROBE_PERSONS:
        probe[f"n{n}"] = _write_item(out_dir, f"probe_n{n:02d}",
                                     synth_kwargs(workload, seed, 100 + n, n, 0.0), False)
    manifest = {"workload": workload, "seed": seed, "items": items, "probe": probe}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


# --------------------------------------------------------------------------
# loaded inputs (worker process)


@dataclass
class Item:
    id: int
    reference: bool
    scene: object            # observed Scene
    gt: object               # ground-truth Scene
    obs: object = None       # DepthObservation, in-process planefit workloads only
    baseline_depths: list | None = None
    paths: dict = field(default_factory=dict)


def load_item(in_dir: Path, entry: dict, tracer, with_depth: bool = True) -> Item:
    """Load one manifest entry through sceneio, one span per call."""
    from scenescale import load_depth_observation, load_scene

    paths = {k: in_dir / entry[k] for k in ("scene", "gt", "depth", "mask") if k in entry}
    with tracer.span("sceneio.load_scene"):
        scene = load_scene(paths["scene"])
    with tracer.span("sceneio.load_scene"):
        gt = load_scene(paths["gt"])
    files = [paths["scene"], paths["gt"]]
    obs = None
    if with_depth and "depth" in paths:
        with tracer.span("sceneio.load_depth_observation"):
            obs = load_depth_observation(paths["depth"], paths["mask"])
        files += [paths["depth"], Path(str(paths["depth"]) + ".json"), paths["mask"]]
    tracer.count("sceneio.bytes_read", sum(os.path.getsize(p) for p in files))
    return Item(entry.get("id", -1), entry.get("reference", False), scene, gt, obs,
                entry["baseline_depths"], paths)


def load_items(in_dir: Path, tracer, workload: str) -> list[Item]:
    manifest = json.loads((in_dir / "manifest.json").read_text())
    # the CLI reads the depth maps itself
    with_depth = workload != "cli-chain"
    return [load_item(in_dir, e, tracer, with_depth) for e in manifest["items"]]


# --------------------------------------------------------------------------
# one item of each workload


@dataclass
class Outcome:
    """What an item produced, for its checks and the quality metrics."""

    finals: dict = field(default_factory=dict)  # method -> final Scene
    fitted_normal: np.ndarray | None = None
    ground_points: int = 0
    iterations: int = 0      # optimizer iterations, summed over methods
    digest: str = ""         # hash of everything the item output
    report: dict | None = None  # evaluate --json report (cli-chain)
    out_dir: Path | None = None  # CLI artifacts (cli-chain)


def optim_config(mode: str = "full"):
    from scenescale import ObjectiveConfig, OptimConfig

    return OptimConfig(objective=ObjectiveConfig(lam=LAM, mode=mode))


def run_frame(item: Item, tracer) -> Outcome:
    """unproject_ground -> ransac_plane -> anchor_plane -> optimize -> evaluate_scenes."""
    from scenescale import (
        RansacConfig,
        anchor_plane,
        evaluate_scenes,
        optimize,
        ransac_plane,
        unproject_ground,
    )

    cfg = RansacConfig()
    with tracer.span("planefit.unproject_ground"):
        points = unproject_ground(item.obs, item.scene.camera)
    with tracer.span("planefit.ransac_plane"):
        plane, inliers = ransac_plane(points, cfg)
    m = points.shape[0]
    tracer.count("planefit.ground_points", m)
    tracer.count("planefit.ransac_plane.point_evals", cfg.iterations * m)
    tracer.count("planefit.ransac_plane.inlier_ratio", inliers.size / m)
    with tracer.span("planefit.anchor_plane"):
        anchored = anchor_plane(plane, item.scene)
    scene = item.scene.copy()
    scene.plane = anchored
    with tracer.span("optimizer.optimize"):
        report = optimize(scene, optim_config())
    _count_optimize(tracer, scene, report)
    with tracer.span("metrics.evaluate_scenes"):
        metrics = evaluate_scenes([report.final_scene], [item.gt])
    tracer.count("metrics.pairs", metrics.pairs_evaluated)
    finals = {"full": report.final_scene}
    return Outcome(finals, plane.normal, m, report.converged_iteration, _digest(finals, plane.normal))


def run_suite_scene(item: Item, tracer) -> Outcome:
    """One scene under every objective mode and the depth-pinned baseline."""
    from scenescale import OptimConfig, evaluate_scenes, optimize, optimize_baseline

    finals, iterations = {}, 0
    for mode in MODES:
        with tracer.span("optimizer.optimize"):
            report = optimize(item.scene, optim_config(mode))
        _count_optimize(tracer, item.scene, report)
        finals[mode] = report.final_scene
        iterations += report.converged_iteration
    with tracer.span("optimizer.optimize_baseline"):
        report = optimize_baseline(item.scene, item.baseline_depths, OptimConfig())
    finals["baseline"] = report.final_scene
    iterations += report.converged_iteration
    with tracer.span("metrics.evaluate_scenes"):
        metrics = evaluate_scenes(list(finals.values()), [item.gt] * len(finals))
    tracer.count("metrics.pairs", metrics.pairs_evaluated)
    return Outcome(finals, None, 0, iterations, _digest(finals, None))


def _count_optimize(tracer, scene, report) -> None:
    tracer.count("optimizer.optimize.iterations", report.converged_iteration)
    tracer.count("optimizer.person_iterations", len(scene.persons) * report.converged_iteration)


def run_chain(item: Item, tracer, out_dir: Path) -> Outcome:
    """fit-plane -> optimize -> evaluate as three CLI processes writing to out_dir.

    out_dir must be new.  The artifacts are read back by ``collect_chain``,
    outside the item's timing.
    """
    out_dir.mkdir(parents=True)
    fitted, optimized, report = (out_dir / name for name in CLI_ARTIFACTS)
    p = item.paths
    steps = (
        ("cli.fit_plane", ["fit-plane", p["depth"], p["mask"], p["scene"], "--out", fitted]),
        ("cli.optimize", ["optimize", fitted, "--out", optimized, "--lambda", str(LAM)]),
        ("cli.evaluate", ["evaluate", "--est", optimized, "--gt", p["gt"], "--json", report]),
    )
    points = iterations = 0
    for name, args in steps:
        with tracer.span(name):
            res = subprocess.run([sys.executable, "-m", "scenescale.cli", *map(str, args)],
                                 capture_output=True, text=True, check=False)
        if res.returncode != 0:
            raise CheckFailed(f"{name} exited {res.returncode}: {res.stderr.strip()}")
        if name == "cli.fit_plane":
            points = int(res.stdout.split()[1])  # "points: M  inliers: ..."
        elif name == "cli.optimize":
            iterations = int(res.stdout.split()[1])  # "iterations: I  loss: ..."
    return Outcome(ground_points=points, iterations=iterations, out_dir=out_dir)


def collect_chain(out: Outcome) -> None:
    """Fill a chain's outcome from its artifacts."""
    from scenescale import load_scene

    blobs = {name: (out.out_dir / name).read_bytes() for name in CLI_ARTIFACTS}
    out.finals = {"full": load_scene(out.out_dir / "optimized.json")}
    out.fitted_normal = load_scene(out.out_dir / "fitted.json").plane.normal
    out.report = json.loads(blobs["report.json"])
    out.digest = hashlib.sha256(b"".join(blobs[n] for n in CLI_ARTIFACTS)).hexdigest()


def _digest(finals: dict, normal) -> str:
    h = hashlib.sha256()
    for name in sorted(finals):
        for p in finals[name].persons:
            h.update(np.asarray(p.translation, dtype=np.float64).tobytes())
            h.update(np.float64(p.scale).tobytes())
    if normal is not None:
        h.update(np.asarray(normal, dtype=np.float64).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# output checks


def plane_error_deg(fitted_normal, true_normal) -> float:
    """Angle between the normals, orientation included: a flipped normal reads 180.

    The half-angle form keeps its precision at the tiny angles a good fit has.
    """
    a, b = np.asarray(fitted_normal, dtype=float), np.asarray(true_normal, dtype=float)
    return float(np.degrees(2.0 * np.arctan2(np.linalg.norm(a - b), np.linalg.norm(a + b))))


def suite_errors(final, gt) -> np.ndarray:
    """Criterion 2's relative scale and depth errors of one scene."""
    errs = []
    for g, e in zip(gt.persons, final.persons):
        errs.append(abs(e.scale - g.scale) / g.scale)
        errs.append(abs(e.translation[2] - g.translation[2]) / g.translation[2])
    return np.array(errs)


def check(workload: str, item: Item, out: Outcome, first: Outcome | None) -> None:
    """Raise CheckFailed if the item's output breaks a stated bound.

    ``first`` is the outcome of the same item earlier in the run, if any:
    a rerun must reproduce it exactly.
    """
    if "full" not in out.finals:
        raise CheckFailed("no full-mode result")
    for name, final in out.finals.items():
        if len(final.persons) != len(item.gt.persons):
            raise CheckFailed(f"{name}: {len(final.persons)} persons, expected {len(item.gt.persons)}")
        for p in final.persons:
            if not (np.all(np.isfinite(p.translation)) and np.isfinite(p.scale)):
                raise CheckFailed(f"{name}: non-finite translation or scale")
    if workload != "suite-ablation":
        err = plane_error_deg(out.fitted_normal, item.gt.plane.normal)
        if not err < PLANE_TOL_DEG:
            raise CheckFailed(f"plane normal off by {err:.3f} deg (bound {PLANE_TOL_DEG})")
    if workload == "cli-chain" and (out.report or {}).get("frames_evaluated") != 1:
        raise CheckFailed("evaluate report does not cover the frame")
    if first is not None and out.digest != first.digest:
        raise CheckFailed("rerun of the same item produced different output")


def check_pool(workload: str, items: list[Item], outcomes: list[Outcome]) -> None:
    """Criterion 2 as the repository states it: pooled over a suite of scenes.

    The criterion pools 50 scenes.  On the 4 scenes of a pool half its p95
    is nearly the maximum: seed 1's seed scenes read 0.14 from one badly
    placed person, which 50 scenes absorb in their 5 % tail.  The worker
    applies it to the fixed reference scenes only, where a change that
    moves them past it fails every run.
    """
    if workload != "suite-ablation":
        return
    errs = np.concatenate([suite_errors(o.finals["full"], it.gt) for it, o in zip(items, outcomes)])
    med, p95 = float(np.median(errs)), float(np.percentile(errs, 95))
    if not (med < SUITE_MEDIAN_BOUND and p95 < SUITE_P95_BOUND):
        raise CheckFailed(f"full-mode errors over {len(items)} scenes: median {med:.4f} "
                          f"p95 {p95:.4f} (bounds {SUITE_MEDIAN_BOUND}, {SUITE_P95_BOUND})")


# --------------------------------------------------------------------------
# quality metrics


def quality(items: list[Item], outcomes: list[Outcome]) -> dict:
    """The paper's metrics from full mode, pooled over the given items."""
    from scenescale import evaluate_scenes

    finals = [o.finals["full"] for o in outcomes]
    gts = [it.gt for it in items]
    report = evaluate_scenes(finals, gts)
    consistent = total = 0
    for final, gt in zip(finals, gts):
        ratios = np.array([e.scale / g.scale for e, g in zip(final.persons, gt.persons)])
        consistent += int(np.sum(np.abs(ratios / np.median(ratios) - 1.0) <= SCALE_CONSISTENCY_TOL))
        total += ratios.size
    out = {
        "d_ord_pct": float(report.d_ord),
        "d_norm": float(report.d_norm),
        "h_ord_pct": float(report.h_ord),
        "scale_consistency_pct": 100.0 * consistent / total,
    }
    errs = [plane_error_deg(o.fitted_normal, it.gt.plane.normal)
            for it, o in zip(items, outcomes) if o.fitted_normal is not None]
    if errs:
        out["plane_err_deg_max"] = max(errs)
    return out
