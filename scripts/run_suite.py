"""Ablation and baseline comparison on a seeded synthetic suite.

Generates N scenes with randomized person counts, size factors, and plane
tilt, then optimizes each under the three objective modes and a depth-pinned
baseline fed noisy ground-truth depths. Prints one metrics row per method.

Usage:
    python scripts/run_suite.py [--n-scenes 50] [--seed 1000] [--lam 500]
"""
import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from scenescale import (
    ObjectiveConfig,
    OptimConfig,
    SceneScaleError,
    SchemaError,
    SynthConfig,
    evaluate_scenes,
    generate_scene,
    optimize,
    optimize_baseline,
)
from scenescale.errors import check_int, number_in


def build_suite(n_scenes, base_seed, rng):
    scenes = []
    for i in range(n_scenes):
        n = int(rng.integers(2, 6))
        cfg = SynthConfig(
            n_persons=n,
            rng_seed=base_seed + i,
            ambiguity_factors=tuple(rng.uniform(0.6, 1.6, n)),
            keypoint_noise_px=1.0,
            plane_tilt_deg=float(rng.uniform(3.0, 10.0)),
        )
        scenes.append(generate_scene(cfg))
    return scenes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-scenes", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--lam", type=float, default=500.0,
                    help="plane weight; pixel-unit reprojection wants hundreds")
    ap.add_argument("--depth-noise", type=float, default=0.2,
                    help="multiplicative noise on the baseline's input depths")
    ap.add_argument("--json", type=str, default=None,
                    help="also write the numbers to this path")
    args = ap.parse_args(argv)
    try:
        run(args)
    except (SceneScaleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


def run(args):
    """Build the suite, run every method on it and report; a flag it cannot
    honour raises SceneScaleError before any scene is built."""
    check_int(args.n_scenes, "n-scenes", 1)
    check_int(args.seed, "seed", 0)
    number_in(args.depth_noise, "depth-noise", 0, math.inf, hi_open=True)
    if args.json and not Path(args.json).absolute().parent.is_dir():
        raise SchemaError(f"json: {args.json} is not in a directory that exists")
    configs = {mode: OptimConfig(objective=ObjectiveConfig(lam=args.lam, mode=mode))
               for mode in ("reprojection_only", "plane_only", "full")}

    rng = np.random.default_rng(args.seed)
    suite = build_suite(args.n_scenes, args.seed, rng)
    gt_scenes = [gt for gt, _, _ in suite]
    print(f"built {len(suite)} scenes "
          f"({sum(len(g.persons) for g in gt_scenes)} persons)")

    rows = {}
    for mode, cfg in configs.items():
        t0 = time.monotonic()
        finals = [optimize(obs, cfg).final_scene for _, obs, _ in suite]
        report = evaluate_scenes(finals, gt_scenes)
        rows[mode] = report
        print(f"{mode:>18}: d_ord {report.d_ord:6.2f}  d_norm {report.d_norm:.4f}  "
              f"h_ord {report.h_ord:6.2f}  ({time.monotonic() - t0:.1f}s)")

    noise_rng = np.random.default_rng(777)
    base_finals = []
    for gt, obs, _ in suite:
        depths = np.array([p.translation[2] for p in gt.persons])
        noisy = depths * (1.0 + args.depth_noise * noise_rng.standard_normal(depths.size))
        base_finals.append(optimize_baseline(obs, list(np.clip(noisy, 0.5, None))).final_scene)
    base = evaluate_scenes(base_finals, gt_scenes)
    rows["baseline"] = base
    print(f"{'depth baseline':>18}: d_ord {base.d_ord:6.2f}  d_norm {base.d_norm:.4f}  "
          f"h_ord {base.h_ord:6.2f}  (depth noise {args.depth_noise:.0%})")

    if args.json:
        doc = {
            name: {"d_ord": r.d_ord, "d_norm": r.d_norm, "h_ord": r.h_ord}
            for name, r in rows.items()
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    sys.exit(main())
