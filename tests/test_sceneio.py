import json

import numpy as np
import pytest

from conftest import random_scene
from scenescale import (
    DepthObservation,
    SchemaError,
    SynthConfig,
    dumps_canonical,
    generate_scene,
    load_depth_observation,
    load_scene,
    save_depth_observation,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)


def test_scene_round_trip_structural(tmp_path):
    rng = np.random.default_rng(0)
    scene = random_scene(rng, n_persons=3)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    save_scene(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_scene_round_trip_values(tmp_path):
    rng = np.random.default_rng(1)
    scene = random_scene(rng, n_persons=2)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert loaded.camera.focal == scene.camera.focal
    assert loaded.camera.image_size == scene.camera.image_size
    for a, b in zip(scene.persons, loaded.persons):
        assert np.allclose(a.joints, b.joints, atol=0, rtol=0) or np.allclose(
            a.joints, b.joints, rtol=1e-15
        )
        assert np.allclose(a.translation, b.translation, rtol=1e-15)
        assert a.scale == b.scale
    assert np.allclose(scene.plane.normal, loaded.plane.normal, rtol=1e-15)


def test_dict_validation_paths():
    with pytest.raises(SchemaError, match="camera"):
        scene_from_dict({"persons": []})
    doc = {
        "camera": {"focal": 1000.0, "image_size": [1920, 1080]},
        "persons": [],
    }
    with pytest.raises(SchemaError):
        scene_from_dict(doc)
    doc["persons"] = [{"joints": [[0, 0, 0]]}]
    with pytest.raises(SchemaError):
        scene_from_dict(doc)


def test_person_needs_translation_or_weak_cam():
    doc = {
        "camera": {"focal": 1000.0, "image_size": [100, 100]},
        "persons": [
            {
                "joints": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "ankle_left_idx": 0,
                "ankle_right_idx": 1,
                "head_idx": 1,
                "foot_chain": [0],
            }
        ],
    }
    with pytest.raises(SchemaError, match="translation|weak_cam"):
        scene_from_dict(doc)
    doc["persons"][0]["weak_cam"] = {"sigma": 2.0, "tx": 0.1, "ty": -0.2}
    scene = scene_from_dict(doc)
    assert scene.persons[0].weak_cam.sigma == 2.0


def test_joint_convention_expands_indices():
    joints = [[0.0, 0.0, 0.0]] * 24
    doc = {
        "camera": {"focal": 1000.0, "image_size": [100, 100]},
        "persons": [
            {
                "joints": joints,
                "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "translation": [0.0, 0.0, 5.0],
                "joint_convention": "smpl24",
            }
        ],
    }
    person = scene_from_dict(doc).persons[0]
    assert (person.ankle_left_idx, person.ankle_right_idx) == (7, 8)
    assert person.head_idx == 15
    with pytest.raises(SchemaError, match="convention"):
        doc["persons"][0]["joint_convention"] = "coco17"
        scene_from_dict(doc)


def test_canonical_json_shape():
    doc = {"b": 1, "a": [1.5, 2.0]}
    text = dumps_canonical(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc
    assert text.index('"a"') < text.index('"b"')
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_plane_info_merged(tmp_path):
    rng = np.random.default_rng(2)
    scene = random_scene(rng, n_persons=1)
    path = tmp_path / "scene.json"
    save_scene(scene, path, plane_info={"inlier_count": 42, "fit_rms": 0.003})
    doc = json.loads(path.read_text())
    assert doc["plane"]["inlier_count"] == 42
    assert doc["plane"]["fit_rms"] == 0.003
    loaded = load_scene(path)  # extra keys must not break parsing
    assert np.allclose(loaded.plane.normal, scene.plane.normal)


def test_depth_round_trip(tmp_path):
    _, _, obs = generate_scene(SynthConfig(n_persons=2, rng_seed=0))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    loaded = load_depth_observation(dpath, mpath)
    assert np.allclose(loaded.depth, obs.depth, atol=1e-7)  # f32 storage
    assert np.array_equal(loaded.ground_mask, obs.ground_mask)
    assert loaded.metric_scale == obs.metric_scale
    sidecar = json.loads((tmp_path / "d.f32.json").read_text())
    assert sidecar["dtype"] == "float32"
    assert sidecar["byte_order"] == "little"
    assert dpath.stat().st_size == sidecar["width"] * sidecar["height"] * 4


def test_depth_payload_size_checked(tmp_path):
    _, _, obs = generate_scene(SynthConfig(n_persons=1, rng_seed=1))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    dpath.write_bytes(dpath.read_bytes()[:-4])
    with pytest.raises(SchemaError, match="size|bytes"):
        load_depth_observation(dpath, mpath)


def test_depth_mask_size_checked(tmp_path):
    _, _, obs = generate_scene(SynthConfig(n_persons=1, rng_seed=1))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    mpath.write_bytes(mpath.read_bytes() + b"\x00")
    with pytest.raises(SchemaError, match="size|bytes"):
        load_depth_observation(dpath, mpath)


def test_scene_to_dict_keeps_weak_cam():
    doc = {
        "camera": {"focal": 500.0, "image_size": [640, 480]},
        "persons": [
            {
                "joints": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "weak_cam": {"sigma": 1.5, "tx": 0.2, "ty": 0.3},
                "ankle_left_idx": 0,
                "ankle_right_idx": 1,
                "head_idx": 1,
                "foot_chain": [0],
            }
        ],
    }
    scene = scene_from_dict(doc)
    out = scene_to_dict(scene)
    wc = out["persons"][0]["weak_cam"]
    assert (wc["sigma"], wc["tx"], wc["ty"]) == (1.5, 0.2, 0.3)


def test_save_scene_is_atomic(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    path = tmp_path / "scene.json"
    save_scene(random_scene(rng), path)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr("scenescale.sceneio.os.replace", interrupted)
    with pytest.raises(OSError):
        save_scene(random_scene(rng), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]
