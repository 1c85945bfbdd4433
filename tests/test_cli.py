import argparse
import contextlib
import csv
import dataclasses
import io
import json
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenescale
from conftest import plane_term
from scenescale import (
    DepthObservation,
    InsufficientGroundError,
    LowConsensusError,
    MetricsReport,
    MissingPlaneError,
    NonFiniteLossError,
    PlacementError,
    SceneScaleError,
    SchemaError,
    SynthConfig,
    cli,
    generate_scene,
    load_depth_observation,
    load_scene,
    planefit,
    save_depth_observation,
    save_scene,
)
from scenescale.errors import BehindCameraError
from scenescale.sceneio import scene_to_dict


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args) -> CliRun:
    """cli.main in-process on args: its exit code, stdout and stderr.

    argparse's SystemExit becomes its code.  Warnings are errors (see
    pyproject.toml) and an uncaught exception fails the test, where a
    process would have turned it into exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """One generated scene set shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("synth")
    res = run_cli(
        "synth", "--out", out, "--n-scenes", "1", "--n-persons", "3",
        "--seed", "7", "--factors", "1.0,1.4,0.7", "--noise-px", "1.0",
        "--tilt", "6.0",
    )
    assert res.returncode == 0, res.stderr
    return out


def test_synth_writes_expected_files(synth_dir):
    names = sorted(p.name for p in synth_dir.iterdir())
    assert names == [
        "depth_000.f32",
        "depth_000.f32.json",
        "generation_config.json",
        "gt_000.json",
        "mask_000.u8",
        "scene_000.json",
    ]


def test_synth_deterministic(tmp_path, synth_dir):
    res = run_cli(
        "synth", "--out", tmp_path, "--n-scenes", "1", "--n-persons", "3",
        "--seed", "7", "--factors", "1.0,1.4,0.7", "--noise-px", "1.0",
        "--tilt", "6.0",
    )
    assert res.returncode == 0, res.stderr
    for name in ("scene_000.json", "gt_000.json", "depth_000.f32", "mask_000.u8"):
        assert (tmp_path / name).read_bytes() == (synth_dir / name).read_bytes()


def test_synth_config_file(tmp_path):
    cfg = tmp_path / "configs" / "tiny.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({"n_persons": 2, "rng_seed": 3, "plane_tilt_deg": 4.0}))
    out = tmp_path / "out"
    res = run_cli("synth", "--out", out, "--config", cfg)
    assert res.returncode == 0, res.stderr
    assert (out / "scene_000.json").exists()


def test_synth_config_is_read_from_its_path_only(tmp_path, monkeypatch):
    """A relative --config path is not looked up anywhere else, whatever the
    environment: SCENESCALE_CONFIG_DIR is no setting."""
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    (cfg_dir / "tiny.json").write_text(json.dumps({"n_persons": 2, "rng_seed": 3}))
    monkeypatch.setenv("SCENESCALE_CONFIG_DIR", str(cfg_dir))
    monkeypatch.chdir(tmp_path)
    res = run_cli("synth", "--out", tmp_path / "out", "--config", "tiny.json")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert "tiny.json" in res.stderr
    assert not (tmp_path / "out").exists()


def test_synth_placement_failure_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n_persons": 1, "depth_range": [0.5, 0.5]}))
    res = run_cli("synth", "--out", tmp_path / "out", "--config", cfg)
    assert res.returncode == 8
    assert "placement" in res.stderr.lower()


def test_fit_plane_recovers_synthetic_normal(synth_dir, tmp_path):
    fitted = tmp_path / "fitted.json"
    res = run_cli(
        "fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
        synth_dir / "scene_000.json", "--out", fitted, "--seed", "0",
    )
    assert res.returncode == 0, res.stderr
    est = load_scene(fitted)
    true = load_scene(synth_dir / "gt_000.json")
    cos = abs(est.plane.normal @ true.plane.normal)
    assert np.degrees(np.arccos(min(1.0, cos))) < 0.5
    inliers, rms = re.search(r"inliers: (\d+)  rms: (\S+) m", res.stdout).groups()
    assert int(inliers) > 1000
    assert float(rms) < 0.01


def test_fit_plane_deterministic(synth_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli(
            "fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
            synth_dir / "scene_000.json", "--out", out, "--seed", "5",
        )
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_fit_plane_insufficient_ground(synth_dir, tmp_path):
    mask_bytes = (synth_dir / "mask_000.u8").read_bytes()
    ground = [i for i, v in enumerate(mask_bytes) if v][:2]
    lean = bytearray(len(mask_bytes))
    for i in ground:
        lean[i] = 1
    bad_mask = tmp_path / "mask.u8"
    bad_mask.write_bytes(bytes(lean))
    res = run_cli(
        "fit-plane", synth_dir / "depth_000.f32", bad_mask,
        synth_dir / "scene_000.json", "--out", tmp_path / "o.json",
    )
    assert res.returncode == 3


def test_fit_plane_low_consensus(synth_dir, tmp_path):
    res = run_cli(
        "fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
        synth_dir / "scene_000.json", "--out", tmp_path / "o.json",
        "--threshold", "1e-9", "--min-inlier-fraction", "0.99",
    )
    assert res.returncode == 4


def test_fit_plane_schema_error(tmp_path, synth_dir):
    broken = tmp_path / "broken.json"
    broken.write_text("{\"persons\": []}")
    res = run_cli(
        "fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
        broken, "--out", tmp_path / "o.json",
    )
    assert res.returncode == 2


@pytest.fixture(scope="module")
def fitted_scene(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitted") / "scene.json"
    res = run_cli(
        "fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
        synth_dir / "scene_000.json", "--out", out, "--seed", "0",
    )
    assert res.returncode == 0, res.stderr
    return out


def test_optimize_emits_trace_and_improves(fitted_scene, tmp_path):
    out = tmp_path / "opt.json"
    trace = tmp_path / "trace.csv"
    res = run_cli("optimize", fitted_scene, "--out", out, "--trace", trace)
    assert res.returncode == 0, res.stderr
    with trace.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 601  # per-iteration rows plus the final state
    assert [int(r["iteration"]) for r in rows][:3] == [0, 1, 2]
    first, last = float(rows[0]["total"]), float(rows[-1]["total"])
    assert last < first
    plane_first = float(rows[0]["plane"])
    plane_last = float(rows[-1]["plane"])
    assert plane_last < plane_first


def test_optimize_deterministic_at_the_default_lambda(fitted_scene, tmp_path):
    """A run without --lambda writes, byte for byte, what a rerun with
    --lambda 500 writes: 500 is the default, and --help says so."""
    outs = []
    for tag, flags in (("a", ()), ("b", ("--lambda", "500"))):
        out, trace = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        res = run_cli("optimize", fitted_scene, "--out", out, "--trace", trace,
                      "--iterations", "120", *flags)
        assert res.returncode == 0, res.stderr
        outs.append((out.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]
    assert "(default 500)" in " ".join(run_cli("optimize", "--help").stdout.split())


def test_optimize_plane_only_lands_on_ground(fitted_scene, tmp_path):
    out = tmp_path / "opt.json"
    res = run_cli(
        "optimize", fitted_scene, "--out", out, "--mode", "plane_only",
        "--lr", "1e-3", "--iterations", "3000",
    )
    assert res.returncode == 0, res.stderr
    scene = load_scene(out)
    assert plane_term(scene) < 1e-3


def test_optimize_freeze_z_keeps_depths(fitted_scene, tmp_path):
    scene = load_scene(fitted_scene)
    depths = [4.0, 5.5, 6.25]
    out = tmp_path / "opt.json"
    res = run_cli(
        "optimize", fitted_scene, "--out", out,
        "--depths", ",".join(str(d) for d in depths), "--iterations", "50",
    )
    assert res.returncode == 0, res.stderr
    optimized = load_scene(out)
    assert len(optimized.persons) == len(scene.persons)
    for person, depth in zip(optimized.persons, depths):
        assert person.translation[2] == depth


def test_optimize_missing_plane_exit_code(synth_dir, tmp_path):
    scene = load_scene(synth_dir / "scene_000.json")
    scene.plane = None
    bare = tmp_path / "bare.json"
    save_scene(scene, bare)
    res = run_cli("optimize", bare, "--out", tmp_path / "o.json")
    assert res.returncode == 5


def test_evaluate_self_is_perfect(synth_dir, tmp_path):
    report = tmp_path / "report.json"
    res = run_cli(
        "evaluate", "--est", synth_dir / "gt_000.json",
        "--gt", synth_dir / "gt_000.json", "--json", report,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(report.read_text())
    assert doc["d_ord"] == 100.0
    assert doc["h_ord"] == 100.0
    assert doc["d_norm"] == 0.0
    assert doc["frames_evaluated"] == 1
    assert "d_ord: 100.0000" in res.stdout


def test_evaluate_swapped_depths(synth_dir, tmp_path):
    gt = load_scene(synth_dir / "gt_000.json")
    est = gt.copy()
    z0 = est.persons[0].translation[2]
    z1 = est.persons[1].translation[2]
    est.persons[0].translation[2] = z1
    est.persons[1].translation[2] = z0
    est.persons[2].translation[2] = 1000.0  # breaks its two pairs as well
    est_path = tmp_path / "est.json"
    save_scene(est, est_path)
    res = run_cli(
        "evaluate", "--est", est_path, "--gt", synth_dir / "gt_000.json",
        "--json", tmp_path / "r.json",
    )
    assert res.returncode == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["d_ord"] < 100.0


def test_evaluate_mismatch_skips_frame(synth_dir, tmp_path):
    gt = load_scene(synth_dir / "gt_000.json")
    est = gt.copy()
    est.persons = est.persons[:2]
    est_path = tmp_path / "est.json"
    save_scene(est, est_path)
    res = run_cli("evaluate", "--est", est_path, "--gt", synth_dir / "gt_000.json")
    assert res.returncode == 6
    assert "skip" in res.stderr.lower()


def test_evaluate_single_person_frames_warn(tmp_path):
    res = run_cli("synth", "--out", tmp_path / "solo", "--n-persons", "1", "--seed", "2")
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "evaluate", "--est", tmp_path / "solo" / "gt_000.json",
        "--gt", tmp_path / "solo" / "gt_000.json",
    )
    assert res.returncode == 6


def test_evaluate_single_person_frame_beside_a_scored_one_exits_six(synth_dir, tmp_path):
    """A frame of fewer than two persons is degenerate even when another
    frame is scored: exit 6, and the report is as it was."""
    res = run_cli("synth", "--out", tmp_path, "--n-persons", "1", "--seed", "2")
    assert res.returncode == 0, res.stderr
    trio, solo, report = synth_dir / "gt_000.json", tmp_path / "gt_000.json", tmp_path / "r.json"
    res = run_cli("evaluate", "--est", trio, solo, "--gt", trio, solo, "--json", report)
    assert res.returncode == 6
    assert "fewer than 2 persons" in res.stderr
    assert res.stdout.startswith("frames: 1 evaluated, 0 skipped\n")
    doc = json.loads(report.read_text())
    assert (doc["frames_evaluated"], doc["frames_skipped"], doc["pairs_evaluated"]) == (1, 0, 3)


def test_evaluate_report_round_trips(synth_dir, tmp_path):
    report = tmp_path / "report.json"
    res = run_cli(
        "evaluate", "--est", synth_dir / "scene_000.json",
        "--gt", synth_dir / "gt_000.json", "--json", report,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(report.read_text())
    rerun = tmp_path / "again.json"
    res2 = run_cli(
        "evaluate", "--est", synth_dir / "scene_000.json",
        "--gt", synth_dir / "gt_000.json", "--json", rerun,
    )
    assert res2.returncode == 0
    assert json.loads(rerun.read_text()) == doc


def test_evaluate_json_is_the_report(tmp_path):
    """--json writes every MetricsReport field, frames_skipped set, nan as null."""
    res = run_cli("synth", "--out", tmp_path, "--n-scenes", "2", "--n-persons", "1", "--seed", "2")
    assert res.returncode == 0, res.stderr
    solo = tmp_path / "scene_001.json"
    trio = load_scene(solo)
    trio.persons = trio.persons * 3
    save_scene(trio, tmp_path / "trio.json")
    report = tmp_path / "report.json"
    res = run_cli(
        "evaluate", "--est", tmp_path / "gt_000.json", tmp_path / "trio.json",
        "--gt", tmp_path / "gt_000.json", solo, "--json", report,
    )
    assert res.returncode == 6
    doc = json.loads(report.read_text())
    assert sorted(doc) == sorted(f.name for f in dataclasses.fields(MetricsReport))
    assert doc["frames_skipped"] == 1
    assert doc["frames_evaluated"] == 0 and doc["per_frame"] == []
    assert doc["d_ord"] is None and doc["d_norm"] is None and doc["h_ord"] is None


def test_full_pipeline_round_trip(tmp_path):
    """synth -> fit-plane -> optimize -> evaluate, end to end."""
    res = run_cli(
        "synth", "--out", tmp_path, "--n-persons", "2", "--seed", "42",
        "--factors", "1.0,1.5", "--noise-px", "1.0",
    )
    assert res.returncode == 0, res.stderr
    fitted = tmp_path / "fitted.json"
    res = run_cli(
        "fit-plane", tmp_path / "depth_000.f32", tmp_path / "mask_000.u8",
        tmp_path / "scene_000.json", "--out", fitted,
    )
    assert res.returncode == 0, res.stderr
    optimized = tmp_path / "optimized.json"
    res = run_cli("optimize", fitted, "--out", optimized)
    assert res.returncode == 0, res.stderr
    report = tmp_path / "report.json"
    res = run_cli(
        "evaluate", "--est", optimized, "--gt", tmp_path / "gt_000.json",
        "--json", report,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(report.read_text())
    assert doc["d_ord"] == 100.0  # relative arrangement restored


@pytest.mark.parametrize("outliers", [0.0, 0.15, 0.3])
def test_fit_plane_writes_the_in_process_plane(tmp_path, outliers):
    """fit-plane on a synth frame's files writes, to the bit, the plane that
    the library calls fit to the same frame in memory: an observation holds
    what its depth file holds."""
    res = run_cli("synth", "--out", tmp_path, "--seed", "5", "--outlier-fraction", outliers)
    assert res.returncode == 0, res.stderr
    fitted = tmp_path / "fitted.json"
    res = run_cli("fit-plane", tmp_path / "depth_000.f32", tmp_path / "mask_000.u8",
                  tmp_path / "scene_000.json", "--out", fitted)
    assert res.returncode == 0, res.stderr
    _, observed, obs = generate_scene(SynthConfig(rng_seed=5, outlier_fraction=outliers))
    points = planefit.unproject_ground(obs, observed.camera)
    plane, _ = planefit.ransac_plane(points, planefit.RansacConfig())
    anchored = planefit.anchor_plane(plane, observed)
    written = json.loads(fitted.read_text())["plane"]
    assert written == {"normal": anchored.normal.tolist(), "point": anchored.point.tolist()}


def test_usage_error_exits_two():
    res = run_cli("optimize")  # missing required scene argument
    assert res.returncode == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("optimize", "--lambda", "nan"),
        ("optimize", "--lr", "inf"),
        ("fit-plane", "--threshold", "nan"),
        ("fit-plane", "--metric-scale", "nan"),
        ("synth", "--noise-px", "nan"),
        ("optimize", "--depths", "nan,5,5"),
        ("optimize", "--depths", "inf,5,5"),
        ("fit-plane", "--seed", "-1"),
        ("synth", "--seed", "-1"),
    ],
)
def test_non_finite_flag_exits_two(synth_dir, fitted_scene, tmp_path, command, flag, value):
    out = tmp_path / "out"
    args = {
        "optimize": ["optimize", fitted_scene, "--out", out],
        "fit-plane": ["fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
                      synth_dir / "scene_000.json", "--out", out],
        "synth": ["synth", "--out", out],
    }[command]
    res = run_cli(*args, flag, value)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert not out.exists()


NAN = float("nan")
BAD_FIELDS = [
    ("scene", {"persons.1.scale": "abc"}, "persons[1]"),
    ("scene", {"persons.1.scale": NAN}, "persons[1]"),
    ("scene", {"persons.1.ankle_left_idx": "x"}, "persons[1]"),
    ("scene", {"persons.1.ankle_left_idx": 7.9}, "ankle_left_idx"),
    ("scene", {"persons.1.ankle_right_idx": 8.5}, "ankle_right_idx"),
    ("scene", {"persons.1.head_idx": 15.2}, "head_idx"),
    ("scene", {"persons.1.foot_chain": [12, 1, 4.5, 7]}, "foot_chain"),
    ("scene", {"persons.1.foot_chain": 5}, "persons[1]"),
    ("scene", {"persons.1.weak_cam": {"sigma": NAN}}, "persons[1]"),
    ("scene", {"camera.focal": NAN}, "camera"),
    ("scene", {"camera.image_size": [1920.5, 1080]}, "image_size"),
    ("scene", {"camera.focal": True}, "focal"),
    ("scene", {"camera.focal": "1000"}, "focal"),
    ("scene", {"persons.1.scale": "1.5"}, "scale"),
    ("scene", {"persons.1.scale": True}, "scale"),
    ("scene", {"persons.1.confidences": [True] * 24}, "confidences"),
    ("scene", {"persons.1.translation": [True, False, "5"]}, "translation"),
    ("scene", {"persons.1.weak_cam": {"sigma": "2"}}, "sigma"),
    ("scene", {"plane.normal": [0, "1", 0]}, "plane.normal"),
    ("sidecar", {"metric_scale": "abc"}, "depth.f32.json"),
    ("sidecar", {"width": "abc"}, "depth.f32.json"),
    ("sidecar", {"height": None}, "depth.f32.json"),
    ("sidecar", {"width": -1920, "height": -1080}, "depth.f32.json"),
    ("sidecar", {"width": 1920.5}, "width"),
    ("sidecar", {"height": 1080.5}, "height"),
    ("sidecar", {"metric_scale": True}, "metric_scale"),
    ("synth config", {"n_persons": 2.5}, "n_persons"),
    ("synth config", {"mask_stride": 2.5}, "mask_stride"),
    ("synth config", {"rng_seed": 1.5}, "rng_seed"),
    ("synth config", {"n_scenes": 2.5}, "n_scenes"),
    ("synth config", {"n_scenes": True}, "n_scenes"),
    ("synth config", {"n_scenes": "abc"}, "n_scenes"),
    ("synth config", {"height_range": 5}, "height_range"),
    ("synth config", {"height_range": [1.5]}, "height_range"),
    ("synth config", {"image_size": [1920]}, "image_size"),
    ("synth config", {"image_size": [1920.5, 1080]}, "image_size"),
    ("synth config", {"ambiguity_factors": 3}, "ambiguity_factors"),
    ("synth config", {"metric_scale": -1}, "metric_scale"),
    ("synth config", {"camera_focal": "abc"}, "synth config"),
    ("synth config", {"camera_focal": True}, "camera_focal"),
    ("synth config", {"camera_focal": "1000"}, "camera_focal"),
    ("synth config", {"plane_tilt_deg": True}, "plane_tilt_deg"),
    ("synth config", {"plane_tilt_deg": "5"}, "plane_tilt_deg"),
    ("synth config", {"keypoint_noise_px": True}, "keypoint_noise_px"),
    ("synth config", {"keypoint_noise_px": "1.5"}, "keypoint_noise_px"),
    ("synth config", {"outlier_fraction": False}, "outlier_fraction"),
    ("synth config", {"camera_height": True}, "camera_height"),
    ("synth config", {"metric_scale": True}, "metric_scale"),
    ("synth config", {"metric_scale": "6"}, "metric_scale"),
    ("synth config", {"height_range": [True, 2]}, "height_range"),
    ("synth config", {"depth_range": ["4", "6"]}, "depth_range"),
    ("synth config", {"ambiguity_factors": [True, 1, 1]}, "ambiguity_factors"),
    ("sidecar", {"dtype": "int32"}, "dtype"),
    ("sidecar", {"dtype": ["x"]}, "dtype"),
    ("sidecar", {"metric_scale": 1e308}, "metric_scale"),
    ("synth config", {"image_size": [1e308, 1e308]}, "image_size"),
    ("synth config", {"keypoint_noise_px": 1e308}, "keypoint_noise_px"),
    ("synth config", {"ambiguity_factors": [1e308, 1e308, 1e308]}, "ambiguity_factors"),
    ("synth config", {"depth_range": [1e308, 1e308]}, "depth_range"),
    ("scene", {"persons.1.joint_convention": []}, "joint_convention"),
    ("scene", {"persons.1.joint_convention": {}}, "joint_convention"),
    ("scene", {"persons.1.weak_cam": {"sigma": 1, "tx": NAN}}, "tx"),
    ("synth config", {"metric_scale": 1e308}, "metric_scale"),
    ("scene", {"persons.1.translation": None}, "translation"),
    ("scene", {"persons.1.translation": None, "persons.1.weak_cam": {"sigma": 1e-310}},
     "weak_cam"),
    ("synth config", {"camera_focal": 1e-308}, "camera_focal"),
    ("synth config", {"metric_scale": 1e-308}, "metric_scale"),
    *(("sidecar", {"metric_scale": m}, "metric_scale") for m in (1e200, 1e300, 1e80, 1e100)),
]


def set_field(doc, dotted, value):
    """doc with the field at a dotted path ("persons.1.scale") set to value."""
    *parents, last = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "kind, edits, named",
    BAD_FIELDS,
    ids=[f"{kind}-{'-'.join(f'{k}={v}' for k, v in edits.items())}"
         for kind, edits, _ in BAD_FIELDS],
)
def test_bad_input_file_field_exits_two(
    synth_dir, fitted_scene, tmp_path, kind, edits, named
):
    """A bad field in a scene file, depth sidecar or synth config: exit 2, one line."""
    depth, mask = tmp_path / "depth.f32", tmp_path / "mask.u8"
    depth.write_bytes((synth_dir / "depth_000.f32").read_bytes())
    mask.write_bytes((synth_dir / "mask_000.u8").read_bytes())
    source = {
        "scene": fitted_scene,
        "sidecar": synth_dir / "depth_000.f32.json",
        "synth config": None,
    }[kind]
    doc = json.loads(source.read_text()) if source else {}
    for dotted, value in edits.items():
        set_field(doc, dotted, value)
    edited = tmp_path / ("depth.f32.json" if kind == "sidecar" else "edited.json")
    edited.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = {
        "scene": ["optimize", edited, "--out", out, "--iterations", "5"],
        "sidecar": ["fit-plane", depth, mask, synth_dir / "scene_000.json", "--out", out],
        "synth config": ["synth", "--out", out, "--config", edited],
    }[kind]
    code, _, err = run_cli(*args)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert named in err
    assert not out.exists()


# Junk for one field of a valid document: booleans, numeric strings, nan, +-inf,
# 1e308, an integer too long for a float, lists, objects and null.
JUNK_SCALARS = [True, False, "1000", "1.5", NAN, float("inf"), -float("inf"), 1e308, 10**400, None]
JUNK = st.one_of(
    st.sampled_from(JUNK_SCALARS),
    st.lists(st.sampled_from(JUNK_SCALARS), max_size=3),
    st.dictionaries(st.sampled_from(["a", "width"]), st.sampled_from(JUNK_SCALARS), max_size=2),
)


def every_junk_scalar(test):
    """Run test on each junk scalar, and on the one junk pair whose entries are
    both valid numbers, on top of the examples hypothesis draws."""
    for value in [*JUNK_SCALARS, [1e308, 1e308]]:
        test = example(value=value)(test)
    return test


# A small valid synth config that sets every field, so each can be mutated.
SYNTH_DOC = {
    "n_persons": 2, "height_range": [1.5, 1.9], "depth_range": [3.5, 7.0],
    "plane_tilt_deg": 5.0, "keypoint_noise_px": 0.5, "ambiguity_factors": [1.0, 1.2],
    "outlier_fraction": 0.1, "rng_seed": 3, "camera_focal": 500.0, "image_size": [480, 320],
    "camera_height": 1.55, "metric_scale": 6.0, "mask_stride": 4, "n_scenes": 1,
}


def assert_closed_outcome(code, err, field, loads_back, documented=(8,)):
    """Exit 0 with output that loads back, or exit 2 with one error line naming
    the field, or a documented other code with one error line.  For a synth
    config that is 8 (no placement): its numbers are valid but its persons do
    not fit the frame.  For a scene it is 5 (no plane) or 7 (non-finite loss):
    its numbers are valid but overflow the objective."""
    if code == 0:
        assert err == ""
        loads_back()
        return
    assert err.startswith("error: ") and len(err.splitlines()) == 1, (field, err)
    assert code in (2, *documented), (field, code, err)
    if code == 2:
        assert field in err, (field, err)


def synth_loads_back(out):
    scenes = sorted(out.glob("scene_*.json")) + sorted(out.glob("gt_*.json"))
    assert len(scenes) == 2
    for scene in scenes:
        load_scene(scene)
    load_depth_observation(out / "depth_000.f32", out / "mask_000.u8")


def test_fuzz_base_synth_config_is_valid(tmp_path):
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text(json.dumps(SYNTH_DOC))
    code, _, err = run_cli("synth", "--out", out, "--config", config)
    assert (code, err) == (0, "")
    synth_loads_back(out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(value=JUNK)
@every_junk_scalar
def test_fuzz_synth_config_field(tmp_path_factory, value):
    """value in each field of a synth config in turn: a closed outcome, never a
    traceback."""
    for field in sorted(SYNTH_DOC):
        work = tmp_path_factory.mktemp("fuzz-synth")
        config, out = work / "c.json", work / "out"
        config.write_text(json.dumps({**SYNTH_DOC, field: value}))
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 arithmetic, before exit 8
            code, _, err = run_cli("synth", "--out", out, "--config", config)
        assert_closed_outcome(code, err, field, lambda: synth_loads_back(out))


@pytest.fixture(scope="module")
def small_frame(tmp_path_factory):
    """A 480x320 frame as files: depth, sidecar, mask and scene."""
    work = tmp_path_factory.mktemp("small-frame")
    cfg = {k: v for k, v in SYNTH_DOC.items() if k != "n_scenes"}
    _, observed, obs = generate_scene(SynthConfig(**cfg))
    save_depth_observation(obs, work / "depth.f32", work / "mask.u8")
    save_scene(observed, work / "scene.json")
    return work


@settings(max_examples=40, deadline=None, derandomize=True)
@given(value=JUNK)
@every_junk_scalar
def test_fuzz_sidecar_field(small_frame, tmp_path_factory, value):
    """value in each field of a depth sidecar in turn: a closed outcome, never
    a traceback."""
    sidecar = json.loads((small_frame / "depth.f32.json").read_text())
    for field in sorted(sidecar):
        work = tmp_path_factory.mktemp("fuzz-sidecar")
        for name in ("depth.f32", "mask.u8"):
            (work / name).symlink_to(small_frame / name)
        (work / "depth.f32.json").write_text(json.dumps({**sidecar, field: value}))
        out = work / "out.json"
        code, _, err = run_cli("fit-plane", work / "depth.f32", work / "mask.u8",
                               small_frame / "scene.json", "--out", out)
        assert_closed_outcome(code, err, field, lambda: load_scene(out))


# Every field a fitted scene file has for person 0, the camera and the plane,
# plus a weak-perspective camera and the joint convention, which it may have.
SCENE_FIELDS = [
    "camera", "camera.focal", "camera.image_size", "camera.principal_point",
    "plane", "plane.normal", "plane.point",
    *(f"persons.0.{key}" for key in (
        "joints", "rotation", "translation", "scale", "ref_keypoints", "confidences",
        "ankle_left_idx", "ankle_right_idx", "head_idx", "foot_chain", "joint_convention",
        "weak_cam", "weak_cam.sigma", "weak_cam.tx", "weak_cam.ty")),
]


@pytest.fixture(scope="module")
def scene_doc(fitted_scene):
    """The fitted scene as a document, person 0 with a weak-perspective camera."""
    doc = json.loads(fitted_scene.read_text())
    focal, (tx, ty, tz) = doc["camera"]["focal"], doc["persons"][0]["translation"]
    doc["persons"][0]["weak_cam"] = {"sigma": focal / tz, "tx": tx, "ty": ty}
    return doc


def test_fuzz_base_scene_is_valid(scene_doc, tmp_path):
    scene, out = tmp_path / "s.json", tmp_path / "out.json"
    scene.write_text(json.dumps(scene_doc))
    code, _, err = run_cli("optimize", scene, "--out", out, "--iterations", "2")
    assert (code, err) == (0, "")
    assert load_scene(out).persons[0].weak_cam is not None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(value=JUNK)
@every_junk_scalar
def test_fuzz_scene_field(scene_doc, tmp_path_factory, value):
    """value in each field of a fitted scene in turn: a closed outcome, never a
    traceback or a warning."""
    work = tmp_path_factory.mktemp("fuzz-scene")
    scene, out = work / "s.json", work / "out.json"
    for field in SCENE_FIELDS:
        out.unlink(missing_ok=True)
        scene.write_text(json.dumps(set_field(json.loads(json.dumps(scene_doc)), field, value)))
        code, _, err = run_cli("optimize", scene, "--out", out, "--iterations", "2")
        assert_closed_outcome(code, err, field.rsplit(".", 1)[-1], lambda: load_scene(out),
                              documented=(5, 7))


@pytest.mark.parametrize(
    "field, code",
    [("camera.focal", 7), ("persons.0.joints.3.1", 7), ("persons.0.rotation.0.0", 2),
     ("plane.normal.1", 2)],
)
def test_huge_number_ends_in_one_error_line(scene_doc, tmp_path, field, code):
    """A finite 1e308 that overflows a computation: its exit code and one
    error line, with no numpy warning before it (warnings are errors)."""
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(set_field(json.loads(json.dumps(scene_doc)), field, 1e308)))
    got, _, err = run_cli("optimize", scene, "--out", tmp_path / "out.json")
    assert got == code
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, fields, code",
    [("fit-plane", ["persons.0.scale"], 0),
     ("fit-plane", ["persons.0.scale", "persons.1.scale", "persons.2.scale"], 2),
     ("evaluate", ["persons.0.scale"], 2), ("evaluate", ["persons.0.translation.2"], 2)],
    ids=["fit-plane-one-scale", "fit-plane-every-scale", "evaluate-scale", "evaluate-depth"],
)
def test_huge_number_in_fit_plane_and_evaluate(
    synth_dir, scene_doc, tmp_path, command, fields, code
):
    """A finite 1e308 that overflows the reference-person choice or a metric:
    exit 0 with nothing on stderr, or its exit code and one error line, with
    no numpy warning (warnings are errors).  The reference person is one
    whose reprojection error is finite, and with none the plane is not
    anchored."""
    doc = json.loads(json.dumps(scene_doc))
    for field in fields:
        set_field(doc, field, 1e308)
    scene, out = tmp_path / "s.json", tmp_path / "out.json"
    scene.write_text(json.dumps(doc))
    args = {
        "fit-plane": [synth_dir / "depth_000.f32", synth_dir / "mask_000.u8", scene,
                      "--out", out],
        "evaluate": ["--est", scene, "--gt", synth_dir / "gt_000.json", "--json", out],
    }[command]
    got, _, err = run_cli(command, *args)
    assert got == code
    if code == 0:
        assert err == ""
        assert load_scene(out).persons[0].scale == 1e308
    else:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()


def test_fit_plane_refuses_a_scene_with_no_confident_joint(synth_dir, scene_doc, tmp_path):
    """With every confidence 0 no person is observed, so none can anchor the
    plane: exit 2 and one error line, and nothing written."""
    doc = json.loads(json.dumps(scene_doc))
    for person in doc["persons"]:
        person["confidences"] = [0.0] * len(person["confidences"])
    scene, out = tmp_path / "s.json", tmp_path / "out.json"
    scene.write_text(json.dumps(doc))
    code, _, err = run_cli("fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
                           scene, "--out", out)
    assert code == 2
    assert err.startswith("error: ") and "confident joint" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [*(("camera.focal", f) for f in (1e-308, 5e-324, 1e-290, 1e-200, 1e-150, 1e-100)),
     *(("camera.principal_point.0", c) for c in (1e308, -1e308, 1e200))],
)
def test_fit_plane_refuses_a_camera_beyond_its_bound(synth_dir, scene_doc, tmp_path, field, value):
    """A finite camera that would put a ground point where RANSAC's products
    overflow: exit 2 and one error line naming the camera, before any point
    is made and with no numpy warning (warnings are errors).  BAD_FIELDS has
    the same for a sidecar's metric_scale."""
    scene, out = tmp_path / "s.json", tmp_path / "out.json"
    scene.write_text(json.dumps(set_field(json.loads(json.dumps(scene_doc)), field, value)))
    code, _, err = run_cli("fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
                           scene, "--out", out)
    assert code == 2
    assert err.startswith("error: camera ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [NAN, float("inf"), 0.0, -1.0])
def test_bad_depth_value_names_the_depth_payload(small_frame, tmp_path, value):
    """A bad value at one ground pixel is blamed on the depth payload that
    holds it, not on its sidecar."""
    depth = tmp_path / "depth.f32"
    values = np.fromfile(small_frame / "depth.f32", dtype="<f4")
    values[np.flatnonzero(np.fromfile(small_frame / "mask.u8", dtype=np.uint8))[7]] = value
    values.tofile(depth)
    (tmp_path / "depth.f32.json").symlink_to(small_frame / "depth.f32.json")
    code, _, err = run_cli("fit-plane", depth, small_frame / "mask.u8",
                           small_frame / "scene.json", "--out", tmp_path / "out.json")
    assert code == 2
    assert err == f"error: {depth}: masked depth values must be finite and > 0\n"


def test_fit_plane_refuses_a_depth_map_of_another_size(small_frame, tmp_path):
    """A half-resolution map of the frame (every other row and column) would
    unproject through the full-size camera to a tilted plane: exit 2, naming
    both sizes."""
    w, h = json.loads((small_frame / "scene.json").read_text())["camera"]["image_size"]
    depth = np.fromfile(small_frame / "depth.f32", dtype="<f4").reshape(h, w)[::2, ::2]
    mask = np.fromfile(small_frame / "mask.u8", dtype=np.uint8).reshape(h, w)[::2, ::2]
    save_depth_observation(DepthObservation(depth, mask), tmp_path / "d.f32", tmp_path / "m.u8")
    out = tmp_path / "out.json"
    code, _, err = run_cli("fit-plane", tmp_path / "d.f32", tmp_path / "m.u8",
                           small_frame / "scene.json", "--out", out)
    assert code == 2
    assert err == (f"error: depth map is {w // 2}x{h // 2} pixels but the camera's image "
                   f"is {w}x{h}\n")
    assert not out.exists()


def test_fit_plane_refuses_a_sidecar_of_2_31_pixels(small_frame, tmp_path):
    """A sidecar declaring 65536x32768 pixels, 2**31, whose indices int32
    cannot hold: exit 2 naming the sidecar, before either payload is opened
    (here neither exists)."""
    sidecar = json.loads((small_frame / "depth.f32.json").read_text())
    (tmp_path / "d.f32.json").write_text(json.dumps({**sidecar, "width": 65536, "height": 32768}))
    code, _, err = run_cli("fit-plane", tmp_path / "d.f32", tmp_path / "m.u8",
                           small_frame / "scene.json", "--out", tmp_path / "out.json")
    assert code == 2
    assert err == (f"error: {tmp_path / 'd.f32.json'}: width x height 65536x32768: a depth map "
                   "must have W, H >= 0 and fewer than 2**31 pixels, so that a pixel index "
                   "fits int32\n")


UNREADABLE_JSON = {
    "bad-bytes": b"\xff\xfe",
    "deep-nesting": b'{"width": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    "not-an-object": b"5",
}


@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
@pytest.mark.parametrize("kind", ["scene", "sidecar", "synth config"])
def test_unreadable_json_file_exits_two(small_frame, tmp_path, kind, content):
    """A scene file, depth sidecar or synth config that is not UTF-8, nests
    deeper than the parser recurses, or is not an object: exit 2 and one
    error line naming the file, never a traceback."""
    depth, mask = tmp_path / "depth.f32", tmp_path / "mask.u8"
    for path in (depth, mask):
        path.write_bytes((small_frame / path.name).read_bytes())
    bad = tmp_path / ("depth.f32.json" if kind == "sidecar" else "bad.json")
    bad.write_bytes(content)
    out = tmp_path / "out"
    args = {
        "scene": ["optimize", bad, "--out", out],
        "sidecar": ["fit-plane", depth, mask, small_frame / "scene.json", "--out", out],
        "synth config": ["synth", "--out", out, "--config", bad],
    }[kind]
    code, _, err = run_cli(*args)
    assert code == 2
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_fit_plane_does_not_depend_on_the_ransac_batch_cap(small_frame, tmp_path, monkeypatch):
    """One hypothesis a batch writes the bytes and prints the lines that the
    default batches do: the winner does not depend on where batches end."""
    runs = []
    for cap in (planefit._MAX_BATCH, 1):
        monkeypatch.setattr(planefit, "_MAX_BATCH", cap)
        out = tmp_path / f"out_{cap}.json"
        code, stdout, err = run_cli("fit-plane", small_frame / "depth.f32",
                                    small_frame / "mask.u8", small_frame / "scene.json",
                                    "--out", out, "--iterations", "700")
        assert (code, err) == (0, "")
        runs.append((out.read_bytes(), stdout.replace(str(out), "OUT")))
    assert runs[0] == runs[1]


def test_optimize_refuses_an_iteration_count_its_trace_cannot_hold(fitted_scene, tmp_path):
    """10**20 iterations: one error line naming iterations, exit 2, without
    allocating anything."""
    out = tmp_path / "out.json"
    code, _, err = run_cli("optimize", fitted_scene, "--out", out, "--iterations", 10**20)
    assert code == 2
    assert err.startswith("error: iterations=") and len(err.splitlines()) == 1
    assert not out.exists()


def test_fit_plane_refuses_an_iteration_count_beyond_the_ceiling(small_frame, tmp_path,
                                                                  monkeypatch):
    """10**20 hypotheses would run for ever: one error line naming iterations
    and the ceiling, exit 2, before any hypothesis is drawn."""
    def no_draws(*args):
        raise AssertionError("a hypothesis was drawn")

    monkeypatch.setattr(planefit, "_draw_samples", no_draws)
    out = tmp_path / "out.json"
    code, _, err = run_cli("fit-plane", small_frame / "depth.f32", small_frame / "mask.u8",
                           small_frame / "scene.json", "--out", out, "--iterations", 10**20)
    assert code == 2
    assert err == ("error: iterations must be at most 100000, "
                   "got 100000000000000000000\n")
    assert not out.exists()


# Edits of a frame's payloads, (kind, value, position): a resized payload, a
# junk depth at a ground pixel (1e-45 is float32's least subnormal), nan off
# the mask, a mask value other than 1 at a ground pixel, and a filled mask.
PAYLOAD_EDITS = st.one_of(
    st.tuples(st.sampled_from(["depth size", "mask size"]),
              st.sampled_from([-5, -4, -1, 1, 4, 5]), st.just(0)),
    st.tuples(st.just("ground depth"),
              st.sampled_from([NAN, float("inf"), -float("inf"), 0.0, -2.5, 3e38, 1e-45]),
              st.integers(0, 2**16)),
    st.tuples(st.just("off-mask depth"), st.just(NAN), st.integers(0, 2**16)),
    st.tuples(st.just("ground mask"), st.integers(2, 255), st.integers(0, 2**16)),
    st.tuples(st.just("whole mask"), st.sampled_from([0, 1, 255]), st.just(0)),
)


def edited_payloads(depth, mask, edits):
    """The depth and mask payload bytes of a frame after edits."""
    depth, mask = depth.copy(), mask.copy()
    ground, off = np.flatnonzero(mask), np.flatnonzero(mask == 0)
    resize = {"depth size": 0, "mask size": 0}
    for kind, value, at in edits:
        if kind in resize:
            resize[kind] += value
        elif kind == "whole mask":
            mask[:] = value
        else:
            target, pixels = {"ground depth": (depth, ground), "off-mask depth": (depth, off),
                              "ground mask": (mask, ground)}[kind]
            target[pixels[at % pixels.size]] = value
    return [data[:len(data) + extra] if extra < 0 else data + bytes(extra)
            for data, extra in ((depth.tobytes(), resize["depth size"]),
                                (mask.tobytes(), resize["mask size"]))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(edits=st.lists(PAYLOAD_EDITS, min_size=1, max_size=3))
@example(edits=[("depth size", -4, 0)])
@example(edits=[("mask size", 5, 0)])
@example(edits=[("ground depth", 3e38, 0)])
@example(edits=[("ground depth", 1e-45, 0)])
@example(edits=[("off-mask depth", NAN, 0)])
@example(edits=[("ground mask", 255, 0)])
@example(edits=[("whole mask", 0, 0)])
@example(edits=[("whole mask", 255, 0)])
def test_fuzz_depth_and_mask_payloads(small_frame, tmp_path_factory, edits):
    """Junk in the depth and mask payloads: exit 0, or 2 (naming a file of
    the frame), 3 or 4 with one error line, never a traceback or a warning."""
    work = tmp_path_factory.mktemp("fuzz-payload")
    payloads = edited_payloads(np.fromfile(small_frame / "depth.f32", dtype="<f4"),
                               np.fromfile(small_frame / "mask.u8", dtype=np.uint8), edits)
    for name, data in zip(("depth.f32", "mask.u8"), payloads):
        (work / name).write_bytes(data)
    (work / "depth.f32.json").symlink_to(small_frame / "depth.f32.json")
    out = work / "out.json"
    code, _, err = run_cli("fit-plane", work / "depth.f32", work / "mask.u8",
                           small_frame / "scene.json", "--out", out)
    assert_closed_outcome(code, err, str(work), lambda: load_scene(out), documented=(3, 4))


def test_tiny_tilt_synthesizes_without_warnings(tmp_path):
    """A subnormal tilt puts the horizon's depth beyond a float: those pixels
    are dropped like any other off the ground, with no numpy warning."""
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text(json.dumps({"plane_tilt_deg": 1e-308}))
    code, _, err = run_cli("synth", "--out", out, "--config", config)
    assert (code, err) == (0, "")
    load_scene(out / "scene_000.json")


def key_paths(value, prefix=""):
    """The set of key paths of a JSON document (".persons[].weak_cam.sigma")."""
    if isinstance(value, dict):
        return {path for key, v in value.items() for path in key_paths(v, f"{prefix}.{key}")}
    if isinstance(value, list):
        return set().union(*(key_paths(v, f"{prefix}[]") for v in value)) or {prefix}
    return {prefix}


def test_written_scene_holds_only_what_the_reader_reads(synth_dir, scene_doc, tmp_path):
    """Every key that fit-plane and optimize write is one the reader reads:
    the keys of a written file are those of the loaded scene written again.
    Keys only, because loading renormalises the plane normal, which may move
    its last bit."""
    with_weak_cam = tmp_path / "weak.json"
    with_weak_cam.write_text(json.dumps(scene_doc))
    fitted, optimized, reset = (tmp_path / name for name in ("f.json", "o.json", "r.json"))
    for args in (
        ["fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
         synth_dir / "scene_000.json", "--out", fitted],
        ["optimize", fitted, "--out", optimized, "--iterations", "5"],
        ["optimize", with_weak_cam, "--out", reset, "--iterations", "5", "--reset"],
    ):
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
    for path in (fitted, optimized, reset):
        written = json.loads(path.read_text())
        assert key_paths(written) == key_paths(scene_to_dict(load_scene(path))), path
    assert ".persons[].weak_cam.sigma" in key_paths(json.loads(reset.read_text()))


def test_missing_input_file_exits_two(synth_dir, tmp_path):
    res = run_cli(
        "fit-plane", synth_dir / "depth_000.f32", tmp_path / "no_such_mask.u8",
        synth_dir / "scene_000.json", "--out", tmp_path / "o.json",
    )
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert "no_such_mask.u8" in res.stderr


def test_unwritable_output_exits_two(synth_dir, tmp_path):
    res = run_cli(
        "fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8",
        synth_dir / "scene_000.json", "--out", tmp_path / "no_such_dir" / "o.json",
    )
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert str(tmp_path / "no_such_dir" / "o.json") in res.stderr


def test_unwritable_trace_leaves_scene_untouched(fitted_scene, tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_bytes(fitted_scene.read_bytes())
    trace = tmp_path / "no_such_dir" / "trace.csv"
    res = run_cli("optimize", scene, "--iterations", "5", "--trace", trace)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert scene.read_bytes() == fitted_scene.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]


@pytest.mark.parametrize(
    "error, code",
    [
        (SchemaError, 2),
        (InsufficientGroundError, 3),
        (LowConsensusError, 4),
        (MissingPlaneError, 5),
        (NonFiniteLossError, 7),
        (PlacementError, 8),
        (SceneScaleError, 2),
        (BehindCameraError, 2),
        (OSError, 2),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_exit_code_table(monkeypatch, error, code):
    def fail(args):
        raise error("bad input")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    res = run_cli("synth", "--out", "unused")
    assert res.returncode == code
    assert res.stderr == "error: bad input\n"
    assert f"\n  {code}  " in cli.__doc__  # the module docstring documents the code


@pytest.mark.parametrize(
    "flags, code",
    [
        ((), 0),
        (("--mode", "plane_only"), 2),
        (("--lambda", "900"), 2),
        (("--mode", "full"), 2),
        (("--mode", "plane_only", "--lambda", "900"), 2),
    ],
    ids=lambda v: "-".join(v) or "alone" if isinstance(v, tuple) else str(v),
)
def test_optimize_depths_exit_code_table(fitted_scene, tmp_path, flags, code):
    """The depth-pinned baseline fits reprojection only, so an objective flag
    next to --depths is refused rather than silently ignored."""
    out = tmp_path / "o.json"
    res = run_cli("optimize", fitted_scene, "--out", out, "--iterations", "5",
                  "--depths", "4,5.5,6.25", *flags)
    assert res.returncode == code, res.stderr
    if code:
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
        assert "--depths" in res.stderr
    assert out.exists() == (code == 0)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("optimize", "--depths", "4,,5.5,6.25"),
        ("optimize", "--depths", "4,5.5,6.25,"),
        ("optimize", "--depths", ""),
        ("synth", "--factors", "1.0,,1.4,0.7"),
        ("synth", "--factors", "1.0,1.4,0.7,"),
    ],
)
def test_list_flag_refuses_empty_entries(fitted_scene, tmp_path, command, flag, value):
    """An empty entry of a comma-separated flag is an error, not a skipped
    entry that would shift every later person's value."""
    out = tmp_path / "out"
    args = {
        "optimize": ["optimize", fitted_scene, "--out", out, "--iterations", "5"],
        "synth": ["synth", "--out", out, "--n-persons", "3"],
    }[command]
    res = run_cli(*args, flag, value)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert flag in res.stderr
    assert not out.exists()


def test_public_surface_is_pinned():
    """A new export or CLI option is a deliberate edit of this list."""
    assert sorted(scenescale.__all__) == [
        "CameraModel", "DepthObservation", "GroundPlane",
        "InsufficientGroundError", "LossBreakdown",
        "LowConsensusError", "MetricsReport", "MissingPlaneError", "NonFiniteLossError",
        "ObjectiveConfig", "OptimConfig", "OptimReport", "Person", "PlacementError",
        "RansacConfig", "Scene", "SceneScaleError", "SchemaError", "SynthConfig",
        "WeakPerspectiveCam", "anchor_plane", "evaluate_scenes", "generate_scene",
        "lift_translations", "load_depth_observation", "load_scene", "loss_and_gradients",
        "optimize", "optimize_baseline", "ransac_plane", "save_depth_observation",
        "save_scene", "unproject_ground",
    ]
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

    def options(command):
        actions = sub.choices[command]._actions
        return sorted(s for a in actions for s in a.option_strings if s not in ("-h", "--help"))

    assert options("optimize") == [
        "--depths", "--iterations", "--lambda", "--lr", "--mode", "--out", "--reset", "--trace",
    ]
    assert options("evaluate") == ["--est", "--gt", "--json"]


def test_in_place_rewrite_leaves_no_temp_file(synth_dir, tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_bytes((synth_dir / "scene_000.json").read_bytes())
    res = run_cli("fit-plane", synth_dir / "depth_000.f32", synth_dir / "mask_000.u8", scene)
    assert res.returncode == 0, res.stderr
    res = run_cli("optimize", scene, "--iterations", "5")
    assert res.returncode == 0, res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]
    assert load_scene(scene).plane is not None


def test_fit_plane_memory_stays_near_the_raster(tmp_path):
    """fit-plane's traced peak on a 1080p frame: at most 2.85 point clouds.

    The loader reads both payloads through one 1 MB buffer and keeps only
    the ground samples, never the raster.  RANSAC fills one (4, M) workspace
    in place and holds it beside the cloud, 2.33 clouds, and scores without
    another block buffer.  The refits gather their inliers straight into the
    workspace, and fit_rms computes its distances chunk by chunk, so the
    peak (~2.75 clouds) is the refill of each new leader's scan order,
    through its argsort index, an int64 per point.  It was fit_rms's
    gathered inliers and their differences from the plane point (~2.9
    clouds) while fit_rms gathered every inlier at once, and ~3.4 clouds
    while the refits gathered through np.compress, which writes through a
    temporary.  tracemalloc sees numpy's arrays but not LAPACK's or
    OpenBLAS's workspaces, so the figure does not depend on the BLAS build.
    """
    _, observed, obs = generate_scene(
        SynthConfig(n_persons=2, outlier_fraction=0.3, rng_seed=5)
    )
    w, h = obs.image_size
    assert (w, h) == (1920, 1080)
    cloud = obs.ground_index.size * 3 * 8
    depth, mask, scene = tmp_path / "d.f32", tmp_path / "m.u8", tmp_path / "s.json"
    save_depth_observation(obs, depth, mask)
    save_scene(observed, scene)
    del obs, observed
    tracemalloc.start()
    try:
        res = run_cli("fit-plane", depth, mask, scene, "--out", tmp_path / "o.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.returncode == 0, res.stderr
    assert peak <= 2.85 * cloud, (
        f"peak {peak / 1e6:.2f} MB = {peak / cloud:.2f} x cloud {cloud / 1e6:.2f} MB"
    )
