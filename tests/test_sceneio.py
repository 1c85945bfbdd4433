import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_scene
from scenescale import (
    CameraModel,
    DepthObservation,
    GroundPlane,
    Person,
    Scene,
    SchemaError,
    SynthConfig,
    generate_scene,
    load_depth_observation,
    load_scene,
    save_depth_observation,
    save_scene,
    unproject_ground,
)
from scenescale import sceneio
from scenescale.geometry import WeakPerspectiveCam
from scenescale.sceneio import dumps_canonical, scene_from_dict, scene_to_dict

coords = st.floats(-1e4, 1e4, allow_nan=False)
positive = st.floats(1e-3, 1e4)


@st.composite
def persons(draw):
    k = draw(st.integers(2, 30))
    index = st.integers(0, k - 1)
    left, right = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(3, 3)))
    weak_cam = draw(st.none() | st.builds(WeakPerspectiveCam, positive, coords, coords))
    translation = arrays(float, 3, elements=coords)
    if weak_cam is not None:  # a person needs a translation or a weak camera
        translation = st.none() | translation
    return Person(
        joints=draw(arrays(float, (k, 3), elements=coords)),
        rotation=q,
        translation=draw(translation),
        scale=draw(positive),
        ref_keypoints=draw(st.none() | arrays(float, (k, 2), elements=coords)),
        confidences=draw(arrays(float, k, elements=st.floats(0.0, 1.0))),
        weak_cam=weak_cam,
        ankle_left_idx=left,
        ankle_right_idx=right,
        head_idx=draw(index),
        foot_chain=tuple(draw(st.lists(index, max_size=6))),
    )


@st.composite
def scenes(draw):
    camera = CameraModel(
        focal=draw(positive),
        image_size=(draw(st.integers(1, 8192)), draw(st.integers(1, 8192))),
        principal_point=draw(st.none() | arrays(float, 2, elements=coords)),
    )
    plane = draw(
        st.none()
        | st.builds(
            GroundPlane,
            arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(
                lambda n: np.linalg.norm(n) > 1e-3
            ),
            arrays(float, 3, elements=coords),
        )
    )
    return Scene(draw(st.lists(persons(), min_size=1, max_size=4)), camera, plane)


def _same(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.dtype == b.dtype and np.array_equal(a, b)
    )


@settings(max_examples=60, deadline=None)
@given(scene=scenes())
def test_scene_dict_round_trip_is_exact(scene):
    back = scene_from_dict(json.loads(dumps_canonical(scene_to_dict(scene))))
    assert back.camera.focal == scene.camera.focal
    assert back.camera.image_size == scene.camera.image_size
    assert _same(back.camera.principal_point, scene.camera.principal_point)
    assert (back.plane is None) == (scene.plane is None)
    if scene.plane is not None:
        # GroundPlane divides the loaded normal by its norm again, which can
        # move a unit normal's last bit, so the normal is only exact up to
        # that one renormalization
        renormalized = GroundPlane(scene.plane.normal, scene.plane.point).normal
        assert _same(back.plane.normal, renormalized)
        assert _same(back.plane.point, scene.plane.point)
    assert len(back.persons) == len(scene.persons)
    for b, p in zip(back.persons, scene.persons):
        for name in ("joints", "rotation", "translation", "ref_keypoints", "confidences"):
            assert _same(getattr(b, name), getattr(p, name)), name
        assert b.scale == p.scale
        assert b.weak_cam == p.weak_cam
        assert (b.ankle_left_idx, b.ankle_right_idx, b.head_idx, b.foot_chain) == (
            p.ankle_left_idx, p.ankle_right_idx, p.head_idx, p.foot_chain
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


@pytest.mark.parametrize(
    "path, named",
    [(("camera", "focal"), "focal"), (("persons", 0, "scale"), "scale"),
     (("persons", 0, "translation", 2), "translation")],
)
def test_numbers_too_large_for_a_float_are_refused(path, named):
    """JSON reads a long integer literal as an int that no float holds."""
    doc = json.loads(json.dumps(scene_to_dict(generate_scene(SynthConfig(n_persons=1))[1])))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = 10**400
    with pytest.raises(SchemaError, match=named):
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


def test_extra_plane_keys_still_load(tmp_path):
    """Files written before the writer dropped fit-plane's diagnostics still load."""
    rng = np.random.default_rng(2)
    scene = random_scene(rng, n_persons=1)
    doc = scene_to_dict(scene)
    doc["plane"].update(inlier_count=42, fit_rms=0.003)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    loaded = load_scene(path)
    assert np.allclose(loaded.plane.normal, scene.plane.normal)
    assert "inlier_count" not in scene_to_dict(loaded)["plane"]


def test_depth_round_trip(tmp_path):
    _, _, obs = generate_scene(SynthConfig(n_persons=2, rng_seed=0))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    loaded = load_depth_observation(dpath, mpath)
    assert loaded.image_size == obs.image_size
    assert np.array_equal(loaded.ground_index, obs.ground_index)
    assert np.allclose(loaded.ground_depth, obs.ground_depth, atol=1e-7)  # f32 storage
    assert loaded.metric_scale == obs.metric_scale
    sidecar = json.loads((tmp_path / "d.f32.json").read_text())
    assert sidecar["dtype"] == "float32"
    assert sidecar["byte_order"] == "little"
    assert (sidecar["width"], sidecar["height"]) == obs.image_size
    assert dpath.stat().st_size == sidecar["width"] * sidecar["height"] * 4
    # the payloads are full grids: the samples on the mask, 0 everywhere else
    depth, mask = np.fromfile(dpath, "<f4"), np.fromfile(mpath, np.uint8)
    assert np.array_equal(np.flatnonzero(mask), obs.ground_index)
    assert set(np.unique(mask)) == {0, 1}
    assert np.array_equal(depth[obs.ground_index], obs.ground_depth.astype(np.float32))
    depth[obs.ground_index] = 0
    assert not depth.any()


def grid_payloads(obs):
    """The depth and mask payloads as whole (H, W) grids would give them."""
    w, h = obs.image_size
    depth, mask = np.zeros(h * w, dtype="<f4"), np.zeros(h * w, dtype=np.uint8)
    depth[obs.ground_index] = obs.ground_depth
    mask[obs.ground_index] = 1
    return depth.tobytes(), mask.tobytes()


def sparse_observation(w, h, fraction):
    """A (w, h) observation with about fraction of its pixels on the ground,
    the first and last pixel and both sides of the first block edge among them."""
    rng = np.random.default_rng(4)
    edges = [0, sceneio._BLOCK_PIXELS - 1, sceneio._BLOCK_PIXELS, w * h - 1] if fraction else []
    index = np.union1d(np.flatnonzero(rng.random(w * h) < fraction), edges)
    return DepthObservation.from_ground((w, h), index, rng.uniform(0.5, 9.0, index.size), 4.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_scene(SynthConfig(n_persons=4, outlier_fraction=0.15, rng_seed=5))[2],
        lambda: sparse_observation(1001, 613, 0.3),  # W * H not a multiple of the block
        lambda: sparse_observation(1001, 613, 0.0),  # empty mask
    ],
    ids=["1080p", "1001x613", "empty-mask"],
)
def test_block_writer_writes_the_grids_bytes(tmp_path, make):
    """save_depth_observation writes block by block the bytes whole grids
    give, and holds no frame-sized array: under 3 MB traced at 1080p, where
    the depth grid alone is 8.3 MB."""
    obs = make()
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    tracemalloc.start()
    try:
        save_depth_observation(obs, dpath, mpath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dpath.read_bytes(), mpath.read_bytes()) == grid_payloads(obs)
    w, h = obs.image_size
    assert json.loads((tmp_path / "d.f32.json").read_text()) == {
        "width": w, "height": h, "metric_scale": obs.metric_scale,
        "byte_order": "little", "dtype": "float32"}
    assert peak < 3e6, f"traced peak {peak / 1e6:.2f} MB"


def test_loaded_depth_is_one_writable_float32_array(tmp_path):
    _, _, obs = generate_scene(SynthConfig(n_persons=2, rng_seed=0))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    depth = load_depth_observation(dpath, mpath).ground_depth
    m = obs.ground_index.size
    assert depth.dtype == np.float32 and depth.shape == (m,)
    assert depth.nbytes == 4 * m
    assert depth.flags.writeable and depth.flags.c_contiguous and depth.flags.owndata
    assert np.array_equal(depth, obs.ground_depth.astype(np.float32))
    save_depth_observation(load_depth_observation(dpath, mpath), tmp_path / "again.f32", mpath)
    assert (tmp_path / "again.f32").read_bytes() == dpath.read_bytes()


def test_loaded_mask_keeps_its_nonzero_pixels(tmp_path):
    """Mask bytes 0, 1, 2 and 255 load as the flat indices of payload != 0."""
    h, w = 5, 7
    payload = np.random.default_rng(0).choice(
        np.array([0, 1, 2, 255], dtype=np.uint8), size=(h, w)
    )
    payload[0, :4] = [0, 1, 2, 255]
    obs = DepthObservation(np.ones((h, w), dtype=np.float32), payload != 0)
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    mpath.write_bytes(payload.tobytes())
    index = load_depth_observation(dpath, mpath).ground_index
    rows, cols = np.nonzero(payload)
    assert np.array_equal(index, rows * w + cols)
    assert index.dtype == np.int32


def test_loaded_frame_keeps_only_its_ground_samples(tmp_path):
    """A loaded 1080p frame holds M * (4 + 4) bytes of arrays, not its grids.

    The indices are int32 and the samples float32; the (H, W) grids, 10.4 MB
    for depth and mask, are dropped once the samples exist, which tracemalloc
    sees as the memory still held after the load.
    """
    _, _, obs = generate_scene(SynthConfig(n_persons=2, outlier_fraction=0.3, rng_seed=5))
    assert obs.image_size == (1920, 1080)
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    m = obs.ground_index.size
    del obs
    slack = 4096
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_depth_observation(dpath, mpath)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = [v for v in vars(loaded).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == m * (4 + 4)
    assert held <= m * (4 + 4) + slack, f"held {held / 1e6:.2f} MB for M = {m}"


def test_sidecar_whole_float_sizes_load(tmp_path):
    _, _, obs = generate_scene(SynthConfig(n_persons=1, rng_seed=1))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    sidecar = tmp_path / "d.f32.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "width": float(doc["width"])}))
    assert load_depth_observation(dpath, mpath).image_size == obs.image_size


def test_unproject_loaded_float32_equals_float64(tmp_path):
    _, observed, obs = generate_scene(
        SynthConfig(n_persons=2, outlier_fraction=0.3, rng_seed=5)
    )
    assert obs.image_size == (1920, 1080)
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    loaded = load_depth_observation(dpath, mpath)
    # float64 grids read from the written payloads
    w, h = obs.image_size
    depth = np.fromfile(dpath, "<f4").reshape(h, w).astype(np.float64)
    mask = np.fromfile(mpath, np.uint8).reshape(h, w) != 0
    widened = DepthObservation(depth, mask, loaded.metric_scale)
    cam = observed.camera
    pts = unproject_ground(loaded, cam)
    assert pts.dtype == np.float64
    assert np.array_equal(pts, unproject_ground(widened, cam))
    # the 2-D index formula the flat indices replace, on the float64 map
    rows, cols = np.nonzero(mask)
    z = depth[rows, cols] * loaded.metric_scale
    cx, cy = cam.principal_point
    expected = np.column_stack([(cols - cx) * z / cam.focal, (rows - cy) * z / cam.focal, z])
    assert np.array_equal(pts, expected)


def test_depth_payload_size_checked(tmp_path):
    _, _, obs = generate_scene(SynthConfig(n_persons=1, rng_seed=1))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    whole = dpath.read_bytes()
    dpath.write_bytes(whole[:-4])
    with pytest.raises(SchemaError, match="size|bytes"):
        load_depth_observation(dpath, mpath)
    # a mask of the wrong size, a sidecar claiming a 2 GB frame and one
    # claiming a 4 TB frame: refused by the size checks (the last by the
    # sidecar's pixel bound), with no frame-sized allocation
    dpath.write_bytes(whole)
    mask = mpath.read_bytes()
    mpath.write_bytes(mask[:-1])
    with pytest.raises(SchemaError, match="m.u8: payload is"):
        load_depth_observation(dpath, mpath)
    mpath.write_bytes(mask)
    sidecar = tmp_path / "d.f32.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "width": 46340, "height": 46340}))
    with pytest.raises(SchemaError, match="m.u8: payload is 2073600 bytes, expected 2147395600"):
        load_depth_observation(dpath, mpath)
    sidecar.write_text(json.dumps({**doc, "width": 10**6, "height": 10**6}))
    with pytest.raises(SchemaError, match="d.f32.json: width x height 1000000x1000000: a depth"):
        load_depth_observation(dpath, mpath)


def test_metric_scale_override_is_the_rebuilt_observation(tmp_path):
    """The loader's metric_scale override gives, byte for byte, the observation
    rebuilt from the loaded samples at that scale."""
    _, _, obs = generate_scene(SynthConfig(n_persons=2, rng_seed=3, outlier_fraction=0.2))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    loaded = load_depth_observation(dpath, mpath)
    rebuilt = DepthObservation.from_ground(
        loaded.image_size, loaded.ground_index, loaded.ground_depth, 5.5)
    got = load_depth_observation(dpath, mpath, metric_scale=5.5)
    assert got.image_size == rebuilt.image_size
    for name in ("ground_index", "ground_depth"):
        a, b = getattr(got, name), getattr(rebuilt, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (got.metric_scale, got.max_depth) == (rebuilt.metric_scale, rebuilt.max_depth)
    assert load_depth_observation(dpath, mpath, metric_scale=None).metric_scale == 6.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True, "5.5"], ids=repr)
def test_bad_metric_scale_override_is_refused_before_the_payloads(tmp_path, bad):
    """A bad override is judged right after the sidecar: a truncated payload
    is never read.  The sidecar's own metric_scale is still judged."""
    _, _, obs = generate_scene(SynthConfig(n_persons=1, rng_seed=1))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    dpath.write_bytes(dpath.read_bytes()[:-4])
    with pytest.raises(SchemaError, match="^metric_scale must be"):
        load_depth_observation(dpath, mpath, metric_scale=bad)
    with pytest.raises(SchemaError, match="d.f32: payload is"):
        load_depth_observation(dpath, mpath, metric_scale=5.5)
    sidecar = tmp_path / "d.f32.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "metric_scale": bad}))
    with pytest.raises(SchemaError, match=r"d.f32.json: metric_scale must be"):
        load_depth_observation(dpath, mpath, metric_scale=5.5)


def test_payload_that_shrinks_while_read_is_refused(tmp_path, monkeypatch):
    """fstat saw the full size, but the file ends early: the block reads
    come up short and the load fails with the size message."""
    _, _, obs = generate_scene(SynthConfig(n_persons=1, rng_seed=1))
    dpath, mpath = tmp_path / "d.f32", tmp_path / "m.u8"
    save_depth_observation(obs, dpath, mpath)
    full = dpath.stat().st_size
    dpath.write_bytes(dpath.read_bytes()[: full // 2])
    real = sceneio.os.fstat
    monkeypatch.setattr(sceneio.os, "fstat", lambda fd: SimpleNamespace(
        st_size=full if real(fd).st_size == full // 2 else real(fd).st_size))
    with pytest.raises(SchemaError, match=f"d.f32: payload is {full // 2} bytes, expected {full}"):
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
