"""Ablation and baseline comparison on the seeded ambiguity suite.

Builds the suite of scenescale.synth.ambiguity_suite, the one home of the
evaluation protocol, optimizes each scene under the three objective modes,
and runs the depth-pinned baseline on the noisy true depths of
synth.pinned_depths. Prints one metrics row per method.

Usage:
    python scripts/run_suite.py [--n-scenes N] [--seed S] [--lam L]
                                [--depth-noise F] [--json PATH]

Each default is the protocol's own (the suite's size, seed and depth noise)
or ObjectiveConfig's plane weight; --help prints them.
"""
import argparse
import inspect
import json
import math
import sys
import time
from pathlib import Path

from scenescale import (
    ObjectiveConfig,
    OptimConfig,
    SceneScaleError,
    SchemaError,
    evaluate_scenes,
    generate_scene,
    optimize,
    optimize_baseline,
    synth,
)
from scenescale.errors import check_int, number_in


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ap.add_argument("--n-scenes", type=int, default=default_of(synth.ambiguity_suite, "n_scenes"),
                    help="scenes in the suite")
    ap.add_argument("--seed", type=int, default=default_of(synth.ambiguity_suite, "seed"),
                    help="the suite's seed")
    ap.add_argument("--lam", type=float, default=ObjectiveConfig().lam,
                    help="plane weight; the default is ObjectiveConfig's")
    ap.add_argument("--depth-noise", type=float, default=default_of(synth.pinned_depths, "noise"),
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

    suite = [generate_scene(cfg) for cfg in synth.ambiguity_suite(args.n_scenes, args.seed)]
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

    depths = synth.pinned_depths(gt_scenes, args.depth_noise)
    base_finals = [optimize_baseline(obs, z).final_scene for (_, obs, _), z in zip(suite, depths)]
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
