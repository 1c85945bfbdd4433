"""scenescale benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It generates the workload's inputs
from the seed with scenescale.synth, measures set-up in fresh interpreters,
runs the closed loop in a worker process, checks every item's output and
prints a table, then one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything it
writes goes under ``.perfbench-work/`` in the checkout; the full result,
with provenance and the spans of a traced run, stays in
``.perfbench-work/results/``.
"""

from __future__ import annotations

import os

# Fixed for both commits of a comparison, before numpy is imported anywhere:
# the loop is one single-threaded client.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 7
TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest rank with at
    least 10 samples beyond it, but never below the median's rank."""
    ordered = sorted(values)
    n = len(ordered)
    k = min(n - 1, max(n - 11, n // 2))
    return 100.0 * (k + 1) / n, ordered[k], n - 1 - k


def provenance(seed: int) -> dict:
    import numpy

    git = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "scenescale").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": BLAS_THREADS,
        "git_head": git,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def _spawn(args: list[str]) -> subprocess.Popen:
    # own process group, so that _stop also ends the CLI processes it started
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, start_new_session=True)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _wait_ready(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        _stop(proc)
        raise RuntimeError("worker failed during set-up")
    return time.perf_counter() - t0


def measure(workload: str, in_dir: Path, seconds: float, trace: int, results: Path,
            deadline: float) -> tuple:
    """Set-up samples and the main worker's result."""
    common = ["--workload", workload, "--inputs", str(in_dir)]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        t0 = time.perf_counter()
        proc = _spawn(common + ["--setup-only"])
        setup.append(_wait_ready(proc, t0))
        proc.wait(timeout=30)
    t0 = time.perf_counter()
    proc = _spawn(common + ["--seconds", str(seconds), "--trace", str(trace),
                            "--results", str(results)])
    try:
        setup.append(_wait_ready(proc, t0))
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return setup, json.loads(results.read_text())


def end_to_end(res: dict, setup: list[float], workload: str) -> tuple[dict, dict]:
    """The end-to-end metrics, and details printed beside them."""
    plain = [r for r in res["records"] if r["mode"] == "plain"]
    ok = [r["seconds"] for r in plain if r["error"] is None]
    failed = len(plain) - len(ok)
    pct, tail_s, beyond = tail(ok) if ok else (0.0, 0.0, 0)
    by_pass = {}
    for r in plain:
        by_pass.setdefault(r["pass"], []).append(r["seconds"])
    quality = res["quality_reference"] or {}
    rss_kb = res["peak_rss_kb"]["children" if workload == "cli-chain" else "self"]
    metrics = {
        # median over passes: one slow stretch of the host moves one pass
        "items_per_s": (statistics.median(len(t) / sum(t) for t in by_pass.values()), "1/s"),
        "item_p50_s": (statistics.median(ok) if ok else 0.0, "s"),
        "item_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "passed_frac": ((len(plain) - failed) / len(plain), "frac"),
        "d_ord_pct": (quality.get("d_ord_pct", 0.0), "%"),
        "d_norm": (quality.get("d_norm", 0.0), "ratio"),
        "h_ord_pct": (quality.get("h_ord_pct", 0.0), "%"),
        "scale_consistency_pct": (quality.get("scale_consistency_pct", 0.0), "%"),
    }
    details = {
        "failed_frac": failed / len(plain),
        "item_tail_percentile": pct,
        "item_tail_samples_beyond": beyond,
        "items": len(plain),
        "passes": res["passes"],
        "setup_samples_s": setup,
        "plane_err_deg_max": quality.get("plane_err_deg_max"),
        "quality_seed_items": res["quality_seed"],
    }
    return metrics, details


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(res: dict) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and details printed beside them."""
    loop, every = res["spans"]["loop"], res["spans"]["all"]
    counts, probe = res["trace_counts"], res["probe"]
    item_total = sum(r["seconds"] for r in res["records"] if r["mode"] == "traced")

    def busy(name):
        return _mean(every.get(name, []))

    def share(*names):
        return sum(sum(loop.get(n, [])) for n in names) / item_total

    pairs = {}
    for r in res["records"]:
        if r["error"] is None:
            pairs.setdefault((r["pass"], r["item"]), {})[r["mode"]] = r["seconds"]
    # median over back-to-back pairs of the same item; the host's own noise
    # (+-10 % per item) is far larger than the tracer's cost
    both = [p for p in pairs.values() if len(p) == 2]
    overhead = statistics.median(p["traced"] / p["plain"] for p in both) - 1.0 if both else 0.0
    person_iters = sum(counts.get("optimizer.person_iterations", []))
    opt_s = sum(every.get("optimizer.optimize", []))
    metrics = {
        "planefit.unproject_ground.busy_s": (busy("planefit.unproject_ground"), "s"),
        "planefit.ransac_plane.busy_s": (busy("planefit.ransac_plane"), "s"),
        "planefit.ransac_plane.point_evals": (_mean(counts.get("planefit.ransac_plane.point_evals", [])), "count"),
        "planefit.ransac_plane.inlier_ratio": (_mean(counts.get("planefit.ransac_plane.inlier_ratio", [])), "frac"),
        "planefit.ransac_plane.share": (share("planefit.ransac_plane"), "frac"),
        "planefit.anchor_plane.busy_s": (busy("planefit.anchor_plane"), "s"),
        "planefit.ground_points": (_mean(counts.get("planefit.ground_points", [])), "count"),
        "planefit.plane_err_deg": (probe["planefit.plane_err_deg"], "deg"),
        **{f"objective.loss_and_gradients.us_n{n}": (probe[f"objective.loss_and_gradients.us_n{n}"], "us")
           for n in W.PROBE_PERSONS},
        "optimizer.optimize.busy_s": (busy("optimizer.optimize"), "s"),
        "optimizer.optimize.iterations": (_mean(counts.get("optimizer.optimize.iterations", [])), "count"),
        "optimizer.us_per_person_iter": (1e6 * opt_s / person_iters, "us"),
        "optimizer.adam_step_us": (probe["optimizer.adam_step_us"], "us"),
        "optimizer.optimize_baseline.busy_s": (busy("optimizer.optimize_baseline"), "s"),
        "optimizer.share": (share("optimizer.optimize", "optimizer.optimize_baseline"), "frac"),
        "metrics.evaluate_scenes.busy_s": (busy("metrics.evaluate_scenes"), "s"),
        "metrics.pairs": (_mean(counts.get("metrics.pairs", [])), "count"),
        "sceneio.load_scene.busy_s": (busy("sceneio.load_scene"), "s"),
        "sceneio.save_scene.busy_s": (busy("sceneio.save_scene"), "s"),
        "sceneio.load_depth_observation.busy_s": (busy("sceneio.load_depth_observation"), "s"),
        "sceneio.bytes_read": (sum(counts.get("sceneio.bytes_read", [])), "bytes"),
        "sceneio.bytes_written": (sum(counts.get("sceneio.bytes_written", [])), "bytes"),
        "cli.startup_s": (probe["cli.startup_s"], "s"),
        "cli.fit_plane.wall_s": (busy("cli.fit_plane"), "s"),
        "cli.optimize.wall_s": (busy("cli.optimize"), "s"),
        "cli.evaluate.wall_s": (busy("cli.evaluate"), "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    self_s = {name: sum(v) for name, v in loop.items()}
    details = {"loop_self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
               "overhead_pairs": len(both)}
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "scenescale" / "__init__.py").is_file():
        print(f"error: no scenescale sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    in_dir = WORK / f"{run_name}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = results_dir / f"{run_name}.json"
    try:
        prov = provenance(args.seed)
        W.generate(args.workload, args.seed, in_dir)
        setup, res = measure(args.workload, in_dir, args.seconds, args.trace, results,
                             deadline=started + TIMEOUT_S)
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    failures = sorted({r["error"] for r in res["records"] if r["error"]}) + res["pool_failures"]
    attempted = len(res["records"])
    failed = sum(r["error"] is not None for r in res["records"])
    metrics, details = per_layer(res) if args.trace else end_to_end(res, setup, args.workload)
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    correct = (failed == 0 and not res["pool_failures"] and finite
               and res["quality_reference"] is not None)
    doc = {"provenance": prov, "counts": res["counts"], "metrics": metrics, "details": details,
           "failures": failures}
    (results_dir / f"{run_name}.summary.json").write_text(json.dumps(doc, indent=1))

    print(f"# {run_name}: {attempted} items in {res['passes']} passes, {failed} failed")
    print("# provenance: " + json.dumps(prov, sort_keys=True))
    print("# inputs: " + json.dumps(res["counts"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in details.items():
        print(f"# {name}: {json.dumps(value)}")
    for message in failures:
        print(f"# FAILED: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value) if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
