"""Tests of the benchmark itself: metric names, and that its checks bite.

    python3 -m pytest perfbench -q

The name tests run the real benchmark once per trace mode on the cheapest
workload (about half a minute together).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as W  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def _declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc, {m["name"]: m["unit"] for m in doc["end_to_end"]}, \
        {m["name"]: m["unit"] for m in doc["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    doc, e2e, layers = _declared()
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suite-ablation", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = layers if trace else e2e
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def test_workload_names_match_benchmark_json():
    doc, _, _ = _declared()
    assert {w["name"] for w in doc["workloads"]} <= set(W.WORKLOADS)


@pytest.fixture(scope="module")
def ground(tmp_path_factory):
    """One ground-1080p item and its correct outcome."""
    in_dir = tmp_path_factory.mktemp("ground")
    W.generate("ground-1080p", 3, in_dir)
    item = W.load_items(in_dir, NullTracer(), "ground-1080p")[0]
    out = W.run_frame(item, NullTracer())
    W.check("ground-1080p", item, out, None)
    return item, out


def test_check_rejects_flipped_normal(ground):
    item, out = ground
    out = W.Outcome(out.finals, -out.fitted_normal, out.ground_points, out.iterations, out.digest)
    with pytest.raises(W.CheckFailed, match="plane normal"):
        W.check("ground-1080p", item, out, None)


def test_check_rejects_changed_rerun(ground):
    item, out = ground
    moved = out.finals["full"].copy()
    moved.persons[0].scale *= 1.0 + 1e-12
    rerun = W.Outcome({"full": moved}, out.fitted_normal, out.ground_points, out.iterations,
                      W._digest({"full": moved}, out.fitted_normal))
    with pytest.raises(W.CheckFailed, match="rerun"):
        W.check("ground-1080p", item, rerun, out)


def test_check_rejects_non_finite_result(ground):
    item, out = ground
    broken = out.finals["full"].copy()
    broken.persons[0].translation[2] = np.nan
    with pytest.raises(W.CheckFailed, match="non-finite"):
        W.check("ground-1080p", item, W.Outcome({"full": broken}, out.fitted_normal), None)


def test_pool_check_rejects_perturbed_suite(tmp_path):
    W.generate("suite-ablation", 5, tmp_path)
    items = [it for it in W.load_items(tmp_path, NullTracer(), "suite-ablation") if it.reference]
    outs = [W.Outcome({"full": it.gt.copy()}) for it in items]
    W.check_pool("suite-ablation", items, outs)  # the ground truth itself passes
    for out in outs:
        for p in out.finals["full"].persons:
            p.scale *= 1.1
    with pytest.raises(W.CheckFailed, match="median"):
        W.check_pool("suite-ablation", items, outs)


def test_chain_check_rejects_perturbed_scene_file(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # as run.py sets it for the CLI
    W.generate("cli-chain", 2, tmp_path / "in")
    item = W.load_items(tmp_path / "in", NullTracer(), "cli-chain")[0]
    first = W.run_chain(item, NullTracer(), tmp_path / "a")
    W.collect_chain(first)
    W.check("cli-chain", item, first, None)

    second = W.run_chain(item, NullTracer(), tmp_path / "b")
    optimized = second.out_dir / "optimized.json"
    text = optimized.read_text()
    optimized.write_text(text.replace('"scale": ', '"scale": 1', 1))
    W.collect_chain(second)
    with pytest.raises(W.CheckFailed, match="rerun"):
        W.check("cli-chain", item, second, first)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.item = 0
    with tracer.span("item"):
        with tracer.span("child"):
            sum(range(10000))
    times = tracer.self_times()
    (name, start, end, parent, item), (_, c0, c1, cparent, _) = tracer.spans
    assert cparent == 0 and parent is None and item == 0
    assert times["item"][0] == pytest.approx((end - start) - (c1 - c0))
    assert times["child"][0] == pytest.approx(c1 - c0)
