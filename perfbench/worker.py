"""Benchmark worker: one fresh interpreter that loads a pool and runs it.

Started by run.py, never by hand.  It imports scenescale, loads the
generated inputs, prints ``ready`` (the end of set-up), then runs whole
passes over the pool in a closed loop (one client, one item at a time)
for about ``--seconds``, and writes what it measured as JSON.

With ``--trace 1`` every item runs twice back to back, once untraced and
once traced, in alternating order; the traced runs give the per-layer
numbers and the pairs give the tracing overhead.  A probe of every layer
follows the loop.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from spans import NullTracer, Tracer

RUNNERS = {
    "ground-1080p": W.run_frame,
    "crowd": W.run_frame,
    "suite-ablation": W.run_suite_scene,
}


def run_item(workload: str, item, tracer, scratch: Path):
    if workload == "cli-chain":
        return W.run_chain(item, tracer, scratch)
    return RUNNERS[workload](item, tracer)


def closed_loop(workload, items, seconds, tracer, scratch: Path) -> dict:
    min_passes = 2 if workload == "cli-chain" else 1  # a rerun for every chain
    null = NullTracer()
    first: dict[int, W.Outcome] = {}
    records = []
    serial = 0
    start = time.perf_counter()
    passes = 0
    # whole passes keep the item mix of every run the same; stop at the pass
    # boundary nearest to the requested duration
    while passes < min_passes or (time.perf_counter() - start) * (1 + 0.5 / passes) < seconds:
        for item in items:
            modes = ("plain", "traced") if tracer else ("plain",)
            if passes % 2:
                modes = modes[::-1]
            for mode in modes:
                tr = tracer if mode == "traced" else null
                tr.item = item.id
                serial += 1
                out_dir = scratch / f"chain{serial:05d}"
                error = elapsed = None
                t0 = time.perf_counter()
                try:
                    with tr.span("item"):
                        out = run_item(workload, item, tr, out_dir)
                    elapsed = time.perf_counter() - t0
                    if workload == "cli-chain":
                        W.collect_chain(out)
                    W.check(workload, item, out, first.get(item.id))
                    first.setdefault(item.id, out)
                except Exception as exc:  # any failure counts against the item
                    if elapsed is None:
                        elapsed = time.perf_counter() - t0
                    error = f"{type(exc).__name__}: {exc}"
                if out_dir.exists():
                    shutil.rmtree(out_dir)
                records.append({"item": item.id, "reference": item.reference, "mode": mode,
                                "pass": passes, "seconds": elapsed, "error": error})
        passes += 1

    result = {"records": records, "passes": passes, "pool_failures": []}
    for group, want in (("reference", True), ("seed", False)):
        group_items = [it for it in items if it.reference == want]
        result[f"quality_{group}"] = None
        if all(it.id in first for it in group_items):
            outcomes = [first[it.id] for it in group_items]
            if want:
                try:
                    W.check_pool(workload, group_items, outcomes)
                except W.CheckFailed as exc:
                    result["pool_failures"].append(f"reference items: {exc}")
            result[f"quality_{group}"] = W.quality(group_items, outcomes)
    outs = [first[it.id] for it in items if it.id in first]
    result["counts"] = {
        "persons_per_pass": sum(len(it.gt.persons) for it in items),
        "ground_points_per_pass": sum(o.ground_points for o in outs),
        "iterations_per_pass": sum(o.iterations for o in outs),
    }
    return result


def _per_call(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _reps_for(fn, min_seconds: float = 0.05) -> int:
    """Calls per batch so that one batch takes at least min_seconds."""
    reps = 1
    while _per_call(fn, reps) * reps < min_seconds:
        reps *= 2
    return reps


def probe(workload: str, in_dir: Path, tracer: Tracer, scratch: Path) -> dict:
    """Call every layer on inputs from this workload's generator."""
    from scenescale import (
        OptimConfig,
        load_scene,
        loss_and_gradients,
        optimize,
        optimize_baseline,
        save_scene,
    )

    manifest = json.loads((in_dir / "manifest.json").read_text())
    tracer.item = "probe"
    out = {}

    # the objective alone, and one optimizer iteration around it: batches of
    # the two alternate so that a change in machine load hits both alike
    cfg = W.optim_config()
    for n in W.PROBE_PERSONS:
        scene = W.load_item(in_dir, manifest["probe"][f"n{n}"], tracer).scene

        def objective():
            loss_and_gradients(scene, cfg.objective)

        reps = _reps_for(objective)
        iters = OptimConfig(iterations=reps, objective=cfg.objective)
        lag, step = [], []
        for _ in range(5):
            lag.append(_per_call(objective, reps))
            if n == 10:
                step.append(_per_call(lambda: optimize(scene, iters), 1) / reps - lag[-1])
        out[f"objective.loss_and_gradients.us_n{n}"] = 1e6 * statistics.median(lag)
        if n == 10:
            out["optimizer.adam_step_us"] = 1e6 * statistics.median(step)

    # one frame through every in-process layer and a sceneio round trip
    frame = W.load_item(in_dir, manifest["probe"]["frame"], tracer)
    with tracer.span("item"):
        res = W.run_frame(frame, tracer)
    out["planefit.plane_err_deg"] = W.plane_error_deg(res.fitted_normal, frame.gt.plane.normal)
    with tracer.span("optimizer.optimize_baseline"):
        optimize_baseline(frame.scene, frame.baseline_depths, OptimConfig())
    saved = scratch / "probe_saved.json"
    with tracer.span("sceneio.save_scene"):
        save_scene(res.finals["full"], saved)
    tracer.count("sceneio.bytes_written", saved.stat().st_size)
    with tracer.span("sceneio.load_scene"):
        load_scene(saved)
    tracer.count("sceneio.bytes_read", saved.stat().st_size)

    # the same frame through the CLI, and bare CLI start-up
    with tracer.span("item"):
        W.run_chain(frame, tracer, scratch / "probe_chain")
    startups = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import scenescale.cli"], check=True)
        startups.append(time.perf_counter() - t0)
    out["cli.startup_s"] = statistics.median(startups)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    import scenescale  # noqa: F401  (set-up includes the import)

    items = W.load_items(args.inputs, tracer or NullTracer(), args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    scratch = args.inputs / "scratch"
    scratch.mkdir(exist_ok=True)
    result = closed_loop(args.workload, items, args.seconds, tracer, scratch)
    if tracer:
        result["probe"] = probe(args.workload, args.inputs, tracer, scratch)
        result["spans"] = {"loop": tracer.self_times(lambda item: isinstance(item, int)),
                           "all": tracer.self_times()}
        result["trace_counts"] = dict(tracer.counts)
        tracer.write(args.results.with_suffix(".spans.jsonl"))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = {"self": self_kb, "children": child_kb}
    args.results.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
