"""Scene and depth-map file formats.

Scenes are JSON documents (camera, persons, optional plane).  Depth maps
are raw row-major little-endian float32 payloads with a JSON sidecar at
"<depth_path>.json" declaring width, height, metric scale, and byte order;
ground masks are raw uint8 grids of the same shape (nonzero = ground).
A loaded observation keeps only the ground samples: the mask payload is read
block by block for the ground pixels' int32 indices, then the depth payload
block by block for their values, through one 1 MB buffer, so neither grid is
ever in memory whole.  A sidecar declaring 2**31 pixels or more is refused
before either payload is opened.  Writing goes block by block through one
1 MB buffer too, and puts 0 at every pixel off the mask.

Every JSON file (scene, sidecar, synth config) is read by read_json: UTF-8,
and any file that cannot be read or parsed, nested too deep included, is a
SchemaError naming it.

Writers emit canonical JSON (sorted keys, two-space indent, repr floats)
so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import SchemaError, positive_number, whole_number
from .geometry import CameraModel, WeakPerspectiveCam
from .planefit import DepthObservation, check_image_size
from .scene import GroundPlane, Person, Scene

# what a file may set, passed as it is to the constructor; the writer
# writes these keys and no others
_CAMERA_FIELDS = ("focal", "image_size", "principal_point")
_PERSON_FIELDS = ("joints", "rotation", "translation", "scale", "ref_keypoints", "confidences",
                  "ankle_left_idx", "ankle_right_idx", "head_idx", "foot_chain")
_PLANE_FIELDS = ("normal", "point")


def _plain(value):
    """value as JSON holds it: an array as a list of floats, a tuple as a list."""
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).tolist()
    return list(value) if isinstance(value, tuple) else value


def _fields(obj, keys: tuple[str, ...]) -> dict:
    return {key: _plain(getattr(obj, key)) for key in keys}


def scene_to_dict(scene: Scene) -> dict:
    persons = []
    for p in scene.persons:
        entry = _fields(p, _PERSON_FIELDS)
        if p.weak_cam is not None:
            entry["weak_cam"] = asdict(p.weak_cam)
        persons.append(entry)
    return {
        "camera": _fields(scene.camera, _CAMERA_FIELDS),
        "persons": persons,
        "plane": None if scene.plane is None else _fields(scene.plane, _PLANE_FIELDS),
    }


def scene_from_dict(doc: dict, where: str = "scene") -> Scene:
    """The scene a parsed scene file describes.

    Only the structure is checked here.  Each value goes as it is to the
    constructor that judges it (see scenescale.errors), and a refusal is
    raised again with the location of the bad field.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: document must be an object")
    for key in ("camera", "persons"):
        if key not in doc:
            raise SchemaError(f"{where}: missing '{key}'")
    cam_doc = doc["camera"]
    if not isinstance(cam_doc, dict) or "focal" not in cam_doc:
        raise SchemaError(f"{where}.camera: need an object with 'focal'")
    try:
        camera = CameraModel(**{key: cam_doc[key] for key in _CAMERA_FIELDS if key in cam_doc})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}.camera: {exc}") from None

    if not isinstance(doc["persons"], list) or not doc["persons"]:
        raise SchemaError(f"{where}.persons: need a nonempty list")
    persons = []
    for i, entry in enumerate(doc["persons"]):
        ctx = f"{where}.persons[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{ctx}: must be an object")
        convention = entry.get("joint_convention")
        if convention not in (None, "smpl24"):  # smpl24: Person's default indices
            raise SchemaError(f"{ctx}: joint_convention must be 'smpl24', got {convention!r}")
        weak_cam = None
        if entry.get("weak_cam") is not None:
            wc = entry["weak_cam"]
            try:
                weak_cam = WeakPerspectiveCam(wc["sigma"], wc.get("tx", 0.0), wc.get("ty", 0.0))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"{ctx}.weak_cam: {exc}") from None
        fields = {key: entry[key] for key in _PERSON_FIELDS if key in entry}
        try:
            persons.append(Person(**fields, weak_cam=weak_cam))
        except (TypeError, ValueError) as exc:  # SchemaError is a ValueError
            raise SchemaError(f"{ctx}: {exc}") from None

    plane = None
    if doc.get("plane") is not None:
        pd = doc["plane"]
        if not isinstance(pd, dict) or not all(key in pd for key in _PLANE_FIELDS):
            raise SchemaError(f"{where}.plane: need 'normal' and 'point'")
        try:
            plane = GroundPlane(**{key: pd[key] for key in _PLANE_FIELDS})
        except SchemaError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    try:
        return Scene(persons, camera, plane)
    except SchemaError as exc:
        raise SchemaError(f"{where}.{exc}") from None


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def save_scene(scene: Scene, path: str | Path) -> None:
    """Write the scene atomically: a temp file beside path, then a rename.

    An interrupted write leaves the previous file intact, which matters
    because fit-plane and optimize rewrite their input scene by default.
    """
    path = Path(path)
    text = dumps_canonical(scene_to_dict(scene))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def read_json(path: str | Path):
    """The JSON document in the file at path, read as UTF-8.

    SchemaError naming the file if it cannot be read, is not UTF-8, is not
    JSON (ValueError covers both) or nests deeper than the parser recurses.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


def load_scene(path: str | Path) -> Scene:
    return scene_from_dict(read_json(path), where=str(path))


def check_storable(obs: DepthObservation, depth_path: str | Path) -> None:
    """SchemaError unless every ground depth of obs stays > 0 and finite in
    float32, the type of the depth file: what the loader refuses is not written."""
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf: refused
        stored = obs.ground_depth.astype("<f4")
    if stored.size and not (stored.min() > 0 and math.isfinite(stored.max())):
        raise SchemaError(f"{depth_path}: depth values at metric_scale {obs.metric_scale} "
                          "leave float32's range")


def save_depth_observation(
    obs: DepthObservation, depth_path: str | Path, mask_path: str | Path
) -> None:
    depth_path = Path(depth_path)
    check_storable(obs, depth_path)
    w, h = obs.image_size
    buffer = np.empty(4 * _BLOCK_PIXELS, dtype=np.uint8)
    _write_blocks(depth_path, obs, "<f4", obs.ground_depth, buffer)
    sidecar = {
        "width": w,
        "height": h,
        "metric_scale": float(obs.metric_scale),
        "byte_order": "little",
        "dtype": "float32",
    }
    Path(str(depth_path) + ".json").write_text(dumps_canonical(sidecar))
    _write_blocks(Path(mask_path), obs, np.uint8, np.uint8(1), buffer)


def load_depth_observation(
    depth_path: str | Path, mask_path: str | Path, metric_scale: float | None = None
) -> DepthObservation:
    """A depth file's ground samples; metric_scale, if given, overrides the sidecar's."""
    depth_path = Path(depth_path)
    sidecar_path = Path(str(depth_path) + ".json")
    sidecar = read_json(sidecar_path)
    if not isinstance(sidecar, dict):
        raise SchemaError(f"{sidecar_path}: sidecar must be a JSON object")
    for key in ("width", "height", "metric_scale"):
        if key not in sidecar:
            raise SchemaError(f"{sidecar_path}: missing '{key}'")
    w = whole_number(sidecar["width"], f"{sidecar_path}: width")
    h = whole_number(sidecar["height"], f"{sidecar_path}: height")
    if w < 1 or h < 1:
        raise SchemaError(f"{sidecar_path}: width and height must be >= 1, got {w}x{h}")
    check_image_size(w, h, f"{sidecar_path}: width x height")
    scale = positive_number(sidecar["metric_scale"], f"{sidecar_path}: metric_scale")
    for key, only in (("byte_order", "little"), ("dtype", "float32")):
        if sidecar.get(key, only) != only:
            raise SchemaError(f"{sidecar_path}: {key} must be {only!r}, got {sidecar[key]!r}")
    if metric_scale is not None:
        scale = positive_number(metric_scale, "metric_scale")
    # the mask's blocks give the ground pixels, then the depth's their values;
    # each block's indices are int32 (W * H < 2**31) before they are joined
    size = f"for the sidecar's width x height, {w}x{h}"
    buffer = np.empty(4 * _BLOCK_PIXELS, dtype=np.uint8)
    index = np.concatenate([
        (start + np.flatnonzero(np.not_equal(block, 0, out=block.view(bool)))).astype(np.int32)
        for start, block in _read_blocks(Path(mask_path), h * w, np.uint8, f"uint8 {size}", buffer)
    ])
    values = np.empty(index.size, dtype="<f4")
    for start, block in _read_blocks(depth_path, h * w, "<f4", f"float32 {size}", buffer):
        lo, hi = np.searchsorted(index, (start, start + block.size))
        np.take(block, index[lo:hi] - start, out=values[lo:hi])
    try:
        return DepthObservation.from_ground((w, h), index, values, scale)
    except SchemaError as exc:  # a depth value, or metric_scale taking one beyond a float
        raise SchemaError(f"{depth_path}: {exc}") from None


_BLOCK_PIXELS = 1 << 18  # pixels read or written at a time: 1 MB of float32 depth


def _write_blocks(path: Path, obs: DepthObservation, dtype, values, buffer: np.ndarray) -> None:
    """Write obs's raw (H, W) payload of dtype, values at the ground pixels
    (a scalar for all, or an array of one each) and 0 elsewhere, block by
    block through buffer: no frame-sized array."""
    pixels = obs.image_size[0] * obs.image_size[1]
    index, itemsize = obs.ground_index, np.dtype(dtype).itemsize
    with path.open("wb") as f:
        for start in range(0, pixels, _BLOCK_PIXELS):
            block = buffer[: min(_BLOCK_PIXELS, pixels - start) * itemsize].view(dtype)
            block.fill(0)
            lo, hi = np.searchsorted(index, (start, start + block.size))
            block[index[lo:hi] - start] = values[lo:hi] if values.ndim else values
            f.write(block)


def _read_blocks(path: Path, pixels: int, dtype, what: str, buffer: np.ndarray):
    """Yield (first pixel, block) over a raw payload of `pixels` items of
    dtype, read block by block into buffer.

    No frame-sized array and no memory-mapping.  The size is checked before
    the first read, and a file that shrinks while it is read fails the same
    check.
    """
    itemsize = np.dtype(dtype).itemsize
    nbytes = pixels * itemsize
    with path.open("rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == nbytes:
            size = 0
            for start in range(0, pixels, _BLOCK_PIXELS):
                block = buffer[: min(_BLOCK_PIXELS, pixels - start) * itemsize].view(dtype)
                got = f.readinto(block)
                size += got
                if got != block.nbytes:
                    break
                yield start, block
    if size != nbytes:
        raise SchemaError(f"{path}: payload is {size} bytes, expected {nbytes} {what}")
