"""End-to-end file pipeline demo driven through the CLI.

Generates one synthetic scene, recovers the ground plane from its depth map,
optimizes person placement, and scores the result against ground truth. All
intermediate artifacts land in --workdir so they can be inspected afterwards.

Usage:
    python scripts/demo_pipeline.py [--workdir demo_out] [--seed 42]
"""
import argparse
import json
import pathlib
import subprocess
import sys


def cli(*args):
    cmd = [sys.executable, "-m", "scenescale.cli", *map(str, args)]
    print("$", " ".join(cmd[2:]))
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.stdout:
        print(res.stdout, end="")
    if res.returncode != 0:
        print(res.stderr, end="", file=sys.stderr)
        raise SystemExit(res.returncode)
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=pathlib.Path, default=pathlib.Path("demo_out"))
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    work = args.workdir
    try:
        work.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its place, say
        print(f"error: workdir: {exc}", file=sys.stderr)
        return 2

    cli("synth", "--out", work, "--n-persons", "3", "--seed", args.seed,
        "--factors", "1.0,1.5,0.7", "--noise-px", "1.0", "--tilt", "7.0")

    fitted = work / "fitted.json"
    cli("fit-plane", work / "depth_000.f32", work / "mask_000.u8",
        work / "scene_000.json", "--out", fitted)

    optimized = work / "optimized.json"
    cli("optimize", fitted, "--out", optimized, "--trace", work / "trace.csv")

    report = work / "report.json"
    cli("evaluate", "--est", optimized, "--gt", work / "gt_000.json",
        "--json", report)

    doc = json.loads(report.read_text())
    print(f"\nd_ord {doc['d_ord']:.2f}  d_norm {doc['d_norm']:.4f}  "
          f"h_ord {doc['h_ord']:.2f}  ({doc['frames_evaluated']} frame)")
    print(f"artifacts in {work}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
