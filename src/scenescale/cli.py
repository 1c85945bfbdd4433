"""Batch command-line front end.

Subcommands:
  fit-plane  depth + mask + scene -> plane written into the scene file
  optimize   refine per-person translation/scale in a scene file
  evaluate   score estimated scenes against ground-truth scenes
  synth      emit a seeded synthetic test set

Exit codes:
  0  success
  1  unexpected internal error
  2  invalid arguments or input file (schema), or a file that cannot be
     read or written (missing input, output directory that does not exist)
  3  too few ground pixels to unproject
  4  plane consensus below the inlier threshold
  5  objective needs a plane but the scene file has none
  6  evaluation finished with skipped or degenerate frames
  7  non-finite loss during optimization
  8  synthetic person placement failed
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import SceneScaleError, SchemaError, check_int
from .metrics import evaluate_scenes
from .objective import MODES, ObjectiveConfig
from .optimizer import OptimConfig, lift_translations, optimize, optimize_baseline
from .planefit import RansacConfig, anchor_plane, fit_rms, ransac_plane, unproject_ground
from .sceneio import (
    check_storable,
    dumps_canonical,
    load_depth_observation,
    load_scene,
    read_json,
    save_depth_observation,
    save_scene,
)
from .synth import SynthConfig, generate_scene

def _float_list(text: str, where: str) -> list[float]:
    """Every comma-separated entry as a float; an empty entry is an error."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise SchemaError(f"{where} must be comma-separated numbers, none empty, "
                          f"got {text!r}") from None


def cmd_fit_plane(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    obs = load_depth_observation(args.depth, args.mask, args.metric_scale)
    points = unproject_ground(obs, scene.camera)
    del obs  # its samples are half a cloud: free them before RANSAC's workspaces
    cfg = RansacConfig(
        iterations=args.iterations,
        inlier_threshold=args.threshold,
        min_inlier_fraction=args.min_inlier_fraction,
        rng_seed=args.seed,
    )
    plane, inliers = ransac_plane(points, cfg)
    rms = fit_rms(plane, points, inliers)
    anchored = anchor_plane(plane, scene)
    scene.plane = anchored
    out = args.out or args.scene
    save_scene(scene, out)
    print(f"points: {points.shape[0]}  inliers: {inliers.size}  rms: {rms:.6f} m")
    print(f"normal: [{anchored.normal[0]:.6f}, {anchored.normal[1]:.6f}, {anchored.normal[2]:.6f}]")
    print(f"anchor: [{anchored.point[0]:.6f}, {anchored.point[1]:.6f}, {anchored.point[2]:.6f}]")
    print(f"wrote {out}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    given = {key: value for key, value in (("lam", args.lam), ("mode", args.mode))
             if value is not None}
    if args.depths is not None and given:
        raise SchemaError("--mode and --lambda do not apply to --depths, "
                          "whose baseline fits reprojection only")
    scene = load_scene(args.scene)
    if args.reset:
        scene = lift_translations(scene)
    cfg = OptimConfig(
        learning_rate=args.lr,
        iterations=args.iterations,
        objective=ObjectiveConfig(**given),
    )
    if args.depths is not None:
        report = optimize_baseline(scene, _float_list(args.depths, "--depths"), cfg)
    else:
        report = optimize(scene, cfg)

    # the trace goes first: if it cannot be written, the scene is untouched
    if args.trace:
        lines = ["iteration,reprojection,plane,total"]
        for i, (rep, plane, total) in enumerate(report.loss_trace.tolist()):
            lines.append(f"{i},{rep!r},{plane!r},{total!r}")
        Path(args.trace).write_text("\n".join(lines) + "\n")
    out = args.out or args.scene
    save_scene(report.final_scene, out)

    final = report.final_loss
    print(
        f"iterations: {report.converged_iteration}  "
        f"loss: {report.loss_trace[0, 2]:.6f} -> {final.total:.6f}  "
        f"(reprojection {final.reprojection:.6f}, plane {final.plane:.6f})"
    )
    for i, person in enumerate(report.final_scene.persons):
        t = person.translation
        print(
            f"person {i}: t=[{t[0]:.6f}, {t[1]:.6f}, {t[2]:.6f}]  s={person.scale:.6f}"
        )
    print(f"wrote {out}")
    return 0


def _nan_to_none(value):
    """A JSON-ready copy of a report document: nan becomes null, at any depth."""
    if isinstance(value, dict):
        return {key: _nan_to_none(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_nan_to_none(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def cmd_evaluate(args: argparse.Namespace) -> int:
    if len(args.est) != len(args.gt):
        raise SchemaError(f"{len(args.est)} --est files vs {len(args.gt)} --gt files")
    est_all = [load_scene(p) for p in args.est]
    gt_all = [load_scene(p) for p in args.gt]

    est, gt, skipped = [], [], 0
    for i, (e, g) in enumerate(zip(est_all, gt_all)):
        if len(e.persons) != len(g.persons):
            print(
                f"frame {i} ({args.est[i]}): {len(e.persons)} persons vs "
                f"{len(g.persons)} in ground truth; skipping",
                file=sys.stderr,
            )
            skipped += 1
            continue
        if len(g.persons) < 2:
            print(f"frame {i} ({args.est[i]}): fewer than 2 persons, no pairs", file=sys.stderr)
        est.append(e)
        gt.append(g)

    report = evaluate_scenes(est, gt)
    report.frames_skipped = skipped
    print(f"frames: {report.frames_evaluated} evaluated, {skipped} skipped")
    print(f"pairs: {report.pairs_evaluated}")
    print(f"d_ord: {report.d_ord:.4f}")
    print(f"d_norm: {report.d_norm:.6f}")
    print(f"h_ord: {report.h_ord:.4f}")
    if args.json:
        Path(args.json).write_text(dumps_canonical(_nan_to_none(asdict(report))))
    return 6 if skipped or report.frames_evaluated == 0 else 0


def cmd_synth(args: argparse.Namespace) -> int:
    doc: dict = {}
    if args.config:
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise SchemaError(f"{args.config}: config must be a JSON object")
    n_scenes = doc.pop("n_scenes", 1)
    if args.n_scenes is not None:
        n_scenes = args.n_scenes
    factors = None if args.factors is None else _float_list(args.factors, "--factors")
    for key, flag in (("n_persons", args.n_persons), ("rng_seed", args.seed),
                      ("plane_tilt_deg", args.tilt), ("keypoint_noise_px", args.noise_px),
                      ("ambiguity_factors", factors), ("outlier_fraction", args.outlier_fraction)):
        if flag is not None:
            doc[key] = flag
    check_int(n_scenes, "n_scenes", 1)
    try:
        base = SynthConfig(**doc)
    except (TypeError, ValueError) as exc:  # SceneScaleErrors are ValueErrors
        raise SchemaError(f"synth config: {exc}") from None

    out_dir = Path(args.out)
    for i in range(n_scenes):
        cfg = SynthConfig(**{**doc, "rng_seed": base.rng_seed + i})
        gt, observed, obs = generate_scene(cfg)
        check_storable(obs, out_dir / f"depth_{i:03d}.f32")  # before any file of the scene
        out_dir.mkdir(parents=True, exist_ok=True)  # not before a scene is ready
        save_scene(observed, out_dir / f"scene_{i:03d}.json")
        save_scene(gt, out_dir / f"gt_{i:03d}.json")
        save_depth_observation(
            obs, out_dir / f"depth_{i:03d}.f32", out_dir / f"mask_{i:03d}.u8"
        )
    manifest = dict(doc)
    manifest["n_scenes"] = n_scenes
    manifest["base_seed"] = base.rng_seed
    (out_dir / "generation_config.json").write_text(dumps_canonical(manifest))
    print(f"wrote {n_scenes} scene(s) to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenescale",
        description="Resolve body-size/depth ambiguity in multi-person scenes "
        "with a feet-on-ground constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ransac, optim = RansacConfig(), OptimConfig()
    p = sub.add_parser("fit-plane", help="fit and anchor a ground plane from a depth map")
    p.add_argument("depth", help="raw float32 depth file (sidecar at <depth>.json)")
    p.add_argument("mask", help="raw uint8 ground mask, nonzero = ground")
    p.add_argument("scene", help="scene JSON to read and update")
    p.add_argument("--out", help="write here instead of updating the scene in place")
    p.add_argument("--iterations", type=int, default=ransac.iterations)
    p.add_argument("--threshold", type=float, default=ransac.inlier_threshold,
                   help="inlier distance, meters")
    p.add_argument("--min-inlier-fraction", type=float, default=ransac.min_inlier_fraction)
    p.add_argument("--metric-scale", type=float, default=None, help="override depth sidecar")
    p.add_argument("--seed", type=int, default=ransac.rng_seed)
    p.set_defaults(func=cmd_fit_plane)

    p = sub.add_parser("optimize", help="refine per-person translation and scale")
    p.add_argument("scene", help="scene JSON to read and update")
    p.add_argument("--out", help="write here instead of updating the scene in place")
    p.add_argument("--trace", help="write per-iteration loss CSV here")
    p.add_argument("--lr", type=float, default=optim.learning_rate)
    p.add_argument("--iterations", type=int, default=optim.iterations)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mode", choices=MODES)
    p.add_argument(
        "--depths", help="comma-separated per-person depths: run the depth-pinned "
        "baseline (not with --mode or --lambda)"
    )
    p.add_argument("--reset", action="store_true", help="reset scales to 1 and re-lift translations")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="score estimated scenes against ground truth")
    p.add_argument("--est", nargs="+", required=True, help="estimated scene files")
    p.add_argument("--gt", nargs="+", required=True, help="ground-truth scene files")
    p.add_argument("--json", help="write the structured report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a seeded synthetic test set")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config (fields of the synth generator)")
    p.add_argument("--n-scenes", type=int, default=None)
    p.add_argument("--n-persons", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tilt", type=float, default=None, help="plane tilt, degrees")
    p.add_argument("--noise-px", type=float, default=None, help="keypoint noise, pixels")
    p.add_argument("--factors", default=None, help="comma-separated ambiguity factors")
    p.add_argument("--outlier-fraction", type=float, default=None)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SceneScaleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
