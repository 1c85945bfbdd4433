import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenescale import (
    CameraModel,
    DepthObservation,
    GroundPlane,
    InsufficientGroundError,
    LowConsensusError,
    Person,
    RansacConfig,
    Scene,
    SchemaError,
    SynthConfig,
    anchor_plane,
    generate_scene,
    ransac_plane,
    unproject_ground,
)
from scenescale import planefit
from scenescale.geometry import project
from scenescale.planefit import fit_rms

CAM = CameraModel(1000.0, (1920, 1080))


def obs_with_pixels(pixels, depths, shape=(1080, 1920), metric_scale=6.0):
    depth = np.ones(shape)
    mask = np.zeros(shape, dtype=bool)
    for (r, c), d in zip(pixels, depths):
        depth[r, c] = d
        mask[r, c] = True
    return DepthObservation(depth=depth, ground_mask=mask, metric_scale=metric_scale)


# --- unprojection ---


def test_unproject_principal_point():
    # needs two filler pixels to clear the 3-pixel floor
    obs = obs_with_pixels([(540, 960), (0, 0), (0, 1)], [1.0, 1.0, 1.0])
    pts = unproject_ground(obs, CAM)
    at_center = pts[np.argmin(np.abs(pts[:, :2]).sum(axis=1))]
    assert np.allclose(at_center, [0.0, 0.0, 6.0])


def test_unproject_offset_pixel():
    obs = obs_with_pixels([(540, 1060), (0, 0), (0, 1)], [0.5, 0.5, 0.5])
    pts = unproject_ground(obs, CAM)
    target = pts[pts[:, 2] == 3.0]
    match = target[np.isclose(target[:, 0], 0.3)]
    assert match.shape[0] == 1
    assert np.allclose(match[0], [0.3, 0.0, 3.0])


def test_unproject_constant_depth_is_coplanar():
    depth = np.full((24, 32), 0.8)
    mask = np.ones((24, 32), dtype=bool)
    obs = DepthObservation(depth=depth, ground_mask=mask, metric_scale=6.0)
    cam = CameraModel(100.0, (32, 24))
    pts = unproject_ground(obs, cam)
    assert np.allclose(pts[:, 2], 4.8)
    plane = GroundPlane(normal=(0.0, 0.0, 1.0), point=pts.mean(axis=0))
    assert np.abs(plane.signed_distance(pts)).max() < 1e-12


def test_unproject_needs_three_pixels():
    obs = obs_with_pixels([(10, 10), (10, 11)], [1.0, 1.0])
    with pytest.raises(InsufficientGroundError):
        unproject_ground(obs, CAM)


def test_unproject_row_major_order():
    obs = obs_with_pixels([(2, 5), (0, 7), (1, 3)], [1.0, 1.0, 1.0], shape=(8, 10))
    cam = CameraModel(100.0, (10, 8))
    pts = unproject_ground(obs, cam)
    # rows scanned top to bottom: pixel (0,7) first, then (1,3), then (2,5)
    v_coords = pts[:, 1] * cam.focal / pts[:, 2] + cam.principal_point[1]
    assert np.allclose(v_coords, [0.0, 1.0, 2.0])


def test_unproject_reproject_round_trip():
    rng = np.random.default_rng(0)
    depth = rng.uniform(0.3, 2.0, (90, 160))
    mask = rng.uniform(size=(90, 160)) < 0.2
    cam = CameraModel(200.0, (160, 90))
    obs = DepthObservation(depth=depth, ground_mask=mask, metric_scale=6.0)
    pts = unproject_ground(obs, cam)
    rows, cols = np.nonzero(mask)
    pix = project(pts, cam)
    assert np.abs(pix[:, 0] - cols).max() < 1e-9
    assert np.abs(pix[:, 1] - rows).max() < 1e-9


def test_unproject_metric_scale_doubles_exactly():
    rng = np.random.default_rng(1)
    depth = rng.uniform(0.3, 2.0, (20, 30))
    mask = np.ones((20, 30), dtype=bool)
    cam = CameraModel(100.0, (30, 20))
    one = unproject_ground(DepthObservation(depth, mask, metric_scale=6.0), cam)
    two = unproject_ground(DepthObservation(depth, mask, metric_scale=12.0), cam)
    assert np.array_equal(two, 2.0 * one)


def test_depth_observation_validation():
    with pytest.raises(SchemaError):
        DepthObservation(np.ones((4, 4)), np.ones((4, 5), dtype=bool))
    with pytest.raises(SchemaError):
        DepthObservation(np.ones((4, 4)), np.ones((4, 4), dtype=bool), metric_scale=0.0)
    bad = np.ones((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(SchemaError):
        DepthObservation(bad, np.ones((4, 4), dtype=bool))


def test_depth_observation_dtypes():
    mask = np.ones((3, 4), dtype=bool)
    f32 = np.arange(1, 13, dtype=np.float32).reshape(3, 4)
    f64 = np.arange(1, 13, dtype=np.float64).reshape(3, 4)
    one = DepthObservation(f32, mask)
    assert one.image_size == (4, 3)
    assert one.ground_depth.dtype == np.float32 and np.array_equal(one.ground_depth, f32.ravel())
    assert DepthObservation(f64, mask).ground_depth.dtype == np.float64
    as_bool = DepthObservation(f32, np.eye(3, 4, dtype=np.uint8) * 7)
    assert np.array_equal(as_bool.ground_index, np.flatnonzero(np.eye(3, 4)))
    assert np.array_equal(as_bool.ground_depth, f32[np.eye(3, 4, dtype=bool)])
    widened = DepthObservation(f64.astype(np.int32), mask).ground_depth
    assert widened.dtype == np.float64 and np.array_equal(widened, f64.ravel())


def test_depth_observation_from_ground_is_the_same_observation():
    rng = np.random.default_rng(4)
    depth = rng.uniform(0.3, 2.0, (9, 13)).astype(np.float32)
    mask = rng.uniform(size=(9, 13)) < 0.4
    obs = DepthObservation(depth, mask, metric_scale=3.0)
    again = DepthObservation.from_ground(
        obs.image_size, obs.ground_index, obs.ground_depth, obs.metric_scale
    )
    cam = CameraModel(50.0, (13, 9))
    assert np.array_equal(unproject_ground(again, cam), unproject_ground(obs, cam))
    for bad in (np.nan, 0.0, -2.0):
        with pytest.raises(SchemaError, match="metric_scale"):
            DepthObservation.from_ground(obs.image_size, obs.ground_index, obs.ground_depth, bad)
    with pytest.raises(SchemaError, match="finite and > 0"):
        DepthObservation.from_ground((13, 9), obs.ground_index, -obs.ground_depth)
    with pytest.raises(SchemaError, match="ground pixels"):
        DepthObservation.from_ground((13, 9), obs.ground_index, obs.ground_depth[1:])


def test_depth_observation_index_is_int32_and_on_the_image():
    """Both builders keep int32 indices, and refuse an index outside
    [0, W * H) before the cast, which would wrap it silently, and indices
    that do not increase."""
    mask = np.eye(3, 4, dtype=bool)
    assert DepthObservation(np.ones((3, 4)), mask).ground_index.dtype == np.int32
    for index in ([0, 11], np.array([0, 11], dtype=np.uint64), np.array([3], dtype=np.int8)):
        obs = DepthObservation.from_ground((4, 3), index, np.ones(len(index)))
        assert obs.ground_index.dtype == np.int32
        assert obs.ground_index.tolist() == np.asarray(index).tolist()
    for index in ([100, -1], [0, 12], [-1], [2**32 + 5], [0.0, 1.0], [True, False]):
        with pytest.raises(SchemaError, match=r"indices must be integers in \[0, 12\) for a 4x3"):
            DepthObservation.from_ground((4, 3), index, np.ones(len(index)))
    for index in ([5, 2], [3, 3]):  # the writer finds each block's pixels by bisection
        with pytest.raises(SchemaError, match="indices must be increasing"):
            DepthObservation.from_ground((4, 3), index, np.ones(len(index)))
    empty = DepthObservation.from_ground((4, 3), [], [])
    assert empty.ground_index.dtype == np.int32 and empty.ground_index.size == 0


def test_depth_observation_refuses_2_31_pixels(monkeypatch):
    """An image of W * H >= 2**31 pixels is refused by both builders; the grid
    constructor refuses it before any frame-sized array exists (the grids
    here are broadcast, and a flat index of one would take 16 GB, so making
    one fails the test instead)."""
    top = 2**31 - 1
    obs = DepthObservation.from_ground((top, 1), [0, top - 1], [1.0, 2.0])
    assert obs.ground_index.tolist() == [0, top - 1]
    for size in ((65536, 32768), (2**31, 1), (10**6, 10**6), (-2, -3)):
        with pytest.raises(SchemaError, match="fewer than 2\\*\\*31"):
            DepthObservation.from_ground(size, [0], [1.0])
    shape = (32768, 65536)  # (H, W)
    monkeypatch.setattr(np, "flatnonzero", lambda a: pytest.fail("made a frame-sized index"))
    with pytest.raises(SchemaError, match="image 65536x32768: a depth map must"):
        DepthObservation(np.broadcast_to(np.float32(1), shape), np.broadcast_to(True, shape))


@settings(max_examples=60, deadline=None)
@given(w=st.integers(1, 2**16), rows=st.integers(1, 2**16), m=st.integers(3, 300),
       seed=st.integers(0, 2**32 - 1))
def test_unproject_int32_index_equals_int64_bytewise(w, rows, m, seed):
    """The cloud from int32 indices is the cloud from the same indices as
    int64, to the byte, over image sizes up to 2**31 - 1 pixels."""
    h = max(1, min(rows, (2**31 - 1) // w))
    rng = np.random.default_rng(seed)
    index = np.unique(rng.integers(0, w * h, size=m))
    assume(index.size >= 3)
    obs = DepthObservation.from_ground((w, h), index, rng.uniform(0.1, 5.0, index.size))
    assert obs.ground_index.dtype == np.int32
    cam = CameraModel(float(max(w, h)), (w, h), rng.uniform(-1.0, 1.0, 2) * (w, h))
    wide = DepthObservation.from_ground((w, h), index, obs.ground_depth)
    wide.ground_index = index.astype(np.int64)
    assert unproject_ground(obs, cam).tobytes() == unproject_ground(wide, cam).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_depth_observation_float32_masked_values_checked(value):
    depth = np.ones((4, 4), dtype=np.float32)
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:, 1:] = True
    depth[0, 0] = value  # unmasked, so allowed
    assert DepthObservation(depth, mask).ground_depth.dtype == np.float32
    depth[2, 3] = value
    with pytest.raises(SchemaError, match="finite and > 0"):
        DepthObservation(depth, mask)


def raster_unproject(depth, mask, metric_scale, cam):
    """Literal copy of unproject_ground from when DepthObservation kept the
    (H, W) grids; the sample form must give the same points bit for bit."""
    depth = np.asarray(depth)
    depth = depth if depth.dtype == np.float32 else depth.astype(np.float64, copy=False)
    mask = np.asarray(mask).astype(bool, copy=False)
    flat = np.flatnonzero(mask)
    points = np.empty((flat.size, 3))
    x, y, z = points.T
    np.multiply(depth.ravel()[flat], metric_scale, out=z, dtype=np.float64)
    np.divmod(flat, depth.shape[1], out=(y, x))
    for col, c in zip((x, y), cam.principal_point):
        np.subtract(col, c, out=col)
        np.multiply(col, z, out=col)
        np.divide(col, cam.focal, out=col)
    return points


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unproject_matches_the_raster_oracle(dtype, seed):
    rng = np.random.default_rng(seed)
    h, w = 37, 53
    depth = rng.uniform(0.2, 3.0, (h, w)).astype(dtype)
    mask = (rng.uniform(size=(h, w)) < 0.3).astype(np.uint8) * 7
    # the first and last row and column all touch the mask
    mask[0, 0] = mask[0, -1] = mask[-1, 0] = mask[-1, -1] = 7
    mask[0, 5] = mask[h // 2, 0] = mask[-1, 9] = mask[h // 3, -1] = 7
    off = np.flatnonzero(mask == 0)[0]
    depth.ravel()[off] = np.nan  # off the mask, so accepted and never read
    cam = CameraModel(61.5, (w, h), principal_point=(26.25, 18.75))
    obs = DepthObservation(depth=depth, ground_mask=mask, metric_scale=5.7)
    pts = unproject_ground(obs, cam)
    oracle = raster_unproject(depth, mask, 5.7, cam)
    assert pts.shape == oracle.shape and pts.tobytes() == oracle.tobytes()


# --- ransac ---


def grid_on_y0(n_side=20, half=5.0, z0=2.0, z1=12.0):
    xs = np.linspace(-half, half, n_side)
    zs = np.linspace(z0, z1, n_side)
    gx, gz = np.meshgrid(xs, zs)
    return np.column_stack([gx.ravel(), np.zeros(gx.size), gz.ravel()])


def test_ransac_exact_plane():
    pts = grid_on_y0()
    plane, inliers = ransac_plane(pts, RansacConfig(rng_seed=0))
    assert abs(plane.normal @ np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert inliers.size == pts.shape[0]


def test_ransac_with_outliers_20_seeds():
    rng = np.random.default_rng(99)
    true_n = np.array([0.0, 1.0, 0.0])
    angles, recalls = [], []
    for seed in range(20):
        inlier_pts = grid_on_y0(n_side=26)  # 676 points on y=0
        outliers = rng.uniform([-5, -5, 0], [5, 5, 10], (290, 3))  # ~30%
        pts = np.vstack([inlier_pts, outliers])
        plane, idx = ransac_plane(pts, RansacConfig(rng_seed=seed))
        angles.append(np.degrees(np.arccos(min(1.0, abs(plane.normal @ true_n)))))
        true_inliers = np.arange(inlier_pts.shape[0])
        recalls.append(np.isin(true_inliers, idx).mean())
    assert max(angles) < 2.0
    assert min(recalls) >= 0.95


def test_ransac_three_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    plane, inliers = ransac_plane(pts, RansacConfig(rng_seed=3))
    assert abs(plane.normal @ np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert sorted(inliers.tolist()) == [0, 1, 2]


def test_ransac_low_consensus():
    """The error names the count ransac_plane required, which is at least 3."""
    rows = [
        (np.random.default_rng(5).uniform(-5, 5, (400, 3)),
         RansacConfig(inlier_threshold=1e-4, min_inlier_fraction=0.3, rng_seed=1),
         "best consensus 4/400 below the 120 required (min_inlier_fraction=0.3)"),
        # every sample of a line is collinear; a zero fraction still needs 3
        (np.outer(np.arange(50.0), [1.0, 2.0, 3.0]), RansacConfig(min_inlier_fraction=0.0),
         "best consensus 0/50 below the 3 required (min_inlier_fraction=0.0)"),
    ]
    for pts, cfg, message in rows:
        with pytest.raises(LowConsensusError) as err:
            ransac_plane(pts, cfg)
        assert str(err.value) == message


def test_ransac_deterministic():
    rng = np.random.default_rng(7)
    pts = np.vstack([grid_on_y0(), rng.uniform([-5, -5, 0], [5, 5, 10], (120, 3))])
    p1, i1 = ransac_plane(pts, RansacConfig(rng_seed=11))
    p2, i2 = ransac_plane(pts, RansacConfig(rng_seed=11))
    assert np.array_equal(p1.normal, p2.normal)
    assert np.array_equal(p1.point, p2.point)
    assert np.array_equal(i1, i2)


def test_ransac_translation_invariant():
    rng = np.random.default_rng(13)
    base = grid_on_y0() + rng.normal(0, 0.01, (400, 3))
    shift = np.array([3.0, -2.0, 7.0])
    p1, i1 = ransac_plane(base, RansacConfig(rng_seed=2))
    p2, i2 = ransac_plane(base + shift, RansacConfig(rng_seed=2))
    assert abs(p1.normal @ p2.normal) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(i1, i2)


def test_ransac_normal_unit_length():
    pts = grid_on_y0(n_side=8)
    plane, _ = ransac_plane(pts, RansacConfig(rng_seed=0))
    assert np.linalg.norm(plane.normal) == pytest.approx(1.0, abs=1e-12)


def test_ransac_orients_camera_positive():
    # ground 1.5 m below a y-down camera: normal must face back up (-y)
    pts = grid_on_y0() + np.array([0.0, 1.5, 0.0])
    plane, _ = ransac_plane(pts, RansacConfig(rng_seed=0))
    assert plane.signed_distance(np.zeros(3)) > 0.0
    assert plane.normal[1] < 0.0


def test_ransac_needs_points():
    with pytest.raises(InsufficientGroundError):
        ransac_plane(np.zeros((2, 3)), RansacConfig())


def test_ransac_config_validation():
    for bad in (0, 2.5, 3.0, True, "5"):
        with pytest.raises(SchemaError, match="iterations"):
            RansacConfig(iterations=bad)
    for beyond in (100_001, np.int64(10**18), 10**20):
        with pytest.raises(SchemaError, match="iterations must be at most 100000"):
            RansacConfig(iterations=beyond)
    assert RansacConfig(iterations=np.int64(7)).iterations == 7
    assert RansacConfig(iterations=planefit._MAX_ITERATIONS).iterations == 100_000


def test_fit_leaves_inputs_untouched():
    """unproject_ground, ransac_plane and fit_rms write only arrays of their own:
    the refits centre in a workspace, never in the caller's cloud."""
    cfg = SynthConfig(n_persons=2, outlier_fraction=0.3, mask_stride=9, rng_seed=3)
    _, observed, obs = generate_scene(cfg)
    index, depth = obs.ground_index.tobytes(), obs.ground_depth.tobytes()
    pts = unproject_ground(obs, observed.camera)
    before = pts.tobytes()
    plane, inliers = ransac_plane(pts, RansacConfig(rng_seed=1))
    fit_rms(plane, pts, inliers)
    assert pts.tobytes() == before
    assert obs.ground_index.tobytes() == index and obs.ground_depth.tobytes() == depth
    # a non-contiguous float64 view of the cloud is read, not written, too
    wide = np.zeros((pts.shape[0], 4))
    wide[:, 1:] = pts
    view = wide[:, 1:]
    again, again_inliers = ransac_plane(view, RansacConfig(rng_seed=1))
    assert np.array_equal(wide[:, 1:], pts) and not wide[:, 0].any()
    assert np.array_equal(again.normal, plane.normal) and np.array_equal(again_inliers, inliers)


def test_unprojected_cloud_is_coordinate_major():
    """unproject_ground returns the transpose of a C-contiguous (3, M) array,
    the layout ransac_plane works in, and a C-ordered (M, 3) copy of it fits
    to the same bytes."""
    cfg = SynthConfig(n_persons=2, outlier_fraction=0.3, mask_stride=9, rng_seed=3)
    _, observed, obs = generate_scene(cfg)
    pts = unproject_ground(obs, observed.camera)
    assert pts.shape == (obs.ground_index.size, 3) and pts.dtype == np.float64
    assert pts.T.flags.c_contiguous and not pts.flags.c_contiguous
    for seed in (0, 7):
        plane, inliers = ransac_plane(pts, RansacConfig(rng_seed=seed))
        again, again_inliers = ransac_plane(np.ascontiguousarray(pts), RansacConfig(rng_seed=seed))
        assert again.normal.tobytes() == plane.normal.tobytes()
        assert again.point.tobytes() == plane.point.tobytes()
        assert again_inliers.tobytes() == inliers.tobytes()


def test_fit_rms():
    pts = grid_on_y0(n_side=6)
    plane, inliers = ransac_plane(pts, RansacConfig(rng_seed=0))
    assert fit_rms(plane, pts, inliers) == pytest.approx(0.0, abs=1e-12)
    noisy = pts + np.array([0.0, 0.02, 0.0])
    assert fit_rms(plane, noisy, inliers) == pytest.approx(0.02, abs=1e-12)
    # bit for bit the literal formula, on a tilted noisy cloud
    rng = np.random.default_rng(3)
    cloud = pts @ np.linalg.qr(rng.normal(size=(3, 3)))[0] + rng.normal(0, 0.01, pts.shape)
    plane, inl = ransac_plane(cloud, RansacConfig(rng_seed=2))
    p, n = plane.point, plane.normal
    assert fit_rms(plane, cloud, inl) == float(np.sqrt(np.mean(((cloud[inl] - p) @ n) ** 2)))


@pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 3 * 8192 + 1])
def test_fit_rms_is_the_literal_formula_across_chunk_edges(count):
    """fit_rms fills its distances 8192 inliers at a time; around each chunk
    edge it still equals the formula over every inlier at once, to the bit,
    on a coordinate-major cloud (as unproject_ground makes) and a C-ordered one."""
    rng = np.random.default_rng(count)
    cloud = rng.normal(0.0, 3.0, (3, count + 5000)).T
    plane = GroundPlane(rng.normal(size=3), rng.normal(size=3))
    inl = np.sort(rng.choice(len(cloud), count, replace=False))
    p, n = plane.point, plane.normal
    for points in (cloud, np.ascontiguousarray(cloud)):
        literal = float(np.sqrt(np.mean(((points[inl] - p) @ n) ** 2)))
        assert fit_rms(plane, points, inl) == literal


# --- ransac against the one-by-one consensus loop ---


def plain_eigh_plane(points, inliers):
    """The refit as a plain formula on a coordinate-major copy of the (M, 3)
    points' inliers: centroid + smallest-eigenvalue eigenvector of the
    centred set's 3x3 scatter matrix."""
    sel = np.ascontiguousarray(points[inliers].T)
    centroid = sel.mean(axis=1)
    sel -= centroid[:, None]
    return np.linalg.eigh(sel @ sel.T)[1][:, 0], centroid


def oracle_ransac(points, cfg):
    """Literal copy of the one-by-one consensus loop that ransac_plane
    replaced, its refits the plain formula of plain_eigh_plane.

    ransac_plane must draw the same hypotheses, pick the same winner and so
    return a bit-identical plane and inlier set.
    """
    m = points.shape[0]
    rng = np.random.default_rng(cfg.rng_seed)
    best_count = 0
    best_inliers = None
    for _ in range(cfg.iterations):
        idx = rng.choice(m, size=3, replace=False)
        p0, p1, p2 = points[idx]
        a, b = p1 - p0, p2 - p0
        normal = np.cross(a, b)
        norm = np.linalg.norm(normal)
        if norm <= 1e-9 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b)):
            continue  # collinear sample
        normal = normal / norm
        dist = np.abs((points - p0) @ normal)
        inliers = dist <= cfg.inlier_threshold
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers

    if best_inliers is None or best_count < max(3, int(np.ceil(cfg.min_inlier_fraction * m))):
        raise LowConsensusError("oracle: low consensus")

    inlier_set = best_inliers
    for _ in range(2):
        normal, centroid = plain_eigh_plane(points, inlier_set)
        dist = np.abs((points - centroid) @ normal)
        inlier_set = dist <= cfg.inlier_threshold
        if inlier_set.sum() < 3:
            inlier_set = best_inliers
            normal, centroid = plain_eigh_plane(points, inlier_set)
            break
    if centroid @ normal > 0:
        normal = -normal
    return GroundPlane(normal, centroid), np.nonzero(inlier_set)[0]


def assert_matches_oracle(points, cfg):
    try:
        expected, expected_inliers = oracle_ransac(points, cfg)
    except LowConsensusError:
        with pytest.raises(LowConsensusError):
            ransac_plane(points, cfg)
        return None
    plane, inliers = ransac_plane(points, cfg)
    assert np.array_equal(plane.normal, expected.normal)
    assert np.array_equal(plane.point, expected.point)
    assert np.array_equal(inliers, expected_inliers)
    return plane


def criterion_5_clouds():
    """The cloud of acceptance criterion 5: a 26x26 grid plus 30% outliers."""
    clean = grid_on_y0(n_side=26)
    n_out = int(0.3 / 0.7 * clean.shape[0])
    noise_rng = np.random.default_rng(4242)
    for seed in range(20):
        outliers = noise_rng.uniform([-6, -4, 1], [6, 4, 13], (n_out, 3))
        yield seed, np.vstack([clean, outliers])


def test_ransac_matches_oracle_criterion_5_cloud():
    for seed, pts in criterion_5_clouds():
        assert_matches_oracle(pts, RansacConfig(rng_seed=seed))


def test_ransac_matches_oracle_synth_frame():
    cfg = SynthConfig(n_persons=2, outlier_fraction=0.3, mask_stride=9, rng_seed=3,
                      plane_tilt_deg=7.0)
    _, observed, obs = generate_scene(cfg)
    pts = unproject_ground(obs, observed.camera)
    assert pts.shape[0] > 10_000
    for seed in (0, 1):
        assert_matches_oracle(pts, RansacConfig(rng_seed=seed))


@pytest.mark.parametrize(
    "cloud",
    [
        grid_on_y0(),
        # six coplanar points repeated: most samples repeat a point and are skipped
        np.repeat(grid_on_y0(n_side=3)[:6], 40, axis=0),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ],
    ids=["clean-grid", "repeated-points", "three-points"],
)
def test_ransac_matches_oracle_special_clouds(cloud):
    assert_matches_oracle(cloud, RansacConfig(rng_seed=5))


@pytest.mark.parametrize("m", [3, 4, 5, 7, 50, 6000, 119_000, 2**31, 2**33])
def test_draw_samples_matches_choice(m):
    """The batched draw gives rng.choice's samples and leaves the stream where
    rng.choice leaves it, batch after batch, so a numpy whose choice changes
    fails here."""
    for seed in range(12):
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for h in (1, 8, 64, 427, 1, 64):
            expected = [expected_rng.choice(m, size=3, replace=False) for _ in range(h)]
            samples = planefit._draw_samples(rng, m, h)
            assert samples.dtype == np.int64 and samples.shape == (h, 3)
            assert np.array_equal(samples, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("block", [7, 512, 1 << 16])
def test_ransac_does_not_depend_on_block_size(monkeypatch, block):
    """Block boundaries move as hypotheses drop out; no boundary moves a plane."""
    synth = SynthConfig(n_persons=2, outlier_fraction=0.3, mask_stride=9, rng_seed=3)
    _, observed, obs = generate_scene(synth)
    clouds = [pts for _, pts in criterion_5_clouds()] + [unproject_ground(obs, observed.camera)]
    expected = [ransac_plane(pts, RansacConfig(rng_seed=1)) for pts in clouds]
    monkeypatch.setattr(planefit, "_BLOCK", block)
    for pts, (plane, inliers) in zip(clouds, expected):
        again, again_inliers = ransac_plane(pts, RansacConfig(rng_seed=1))
        assert np.array_equal(again.normal, plane.normal)
        assert np.array_equal(again.point, plane.point)
        assert np.array_equal(again_inliers, inliers)


@pytest.mark.parametrize("iterations", [1, 7, 73, 500, 5000])
def test_ransac_does_not_depend_on_the_batch_cap(monkeypatch, iterations):
    """Batches stop growing at _MAX_BATCH, and where batches end moves no
    plane and no inlier: one hypothesis a batch gives the same bytes."""
    _, pts = next(criterion_5_clouds())
    cfg = RansacConfig(iterations=iterations, min_inlier_fraction=0.0, rng_seed=7)
    scored = count_scored(monkeypatch)
    plane, inliers = ransac_plane(pts, cfg)
    sizes = [len(corners) for corners, _ in scored]
    assert max(sizes) <= planefit._MAX_BATCH and sum(sizes) == iterations
    if iterations == 500:
        assert sizes == [1, 8, 64, 427]  # the default schedule stays below the cap
    scored.clear()
    monkeypatch.setattr(planefit, "_MAX_BATCH", 1)
    again, again_inliers = ransac_plane(pts, cfg)
    assert [len(corners) for corners, _ in scored] == [1] * iterations
    assert again.normal.tobytes() == plane.normal.tobytes()
    assert again.point.tobytes() == plane.point.tobytes()
    assert again_inliers.tobytes() == inliers.tobytes()


def oracle_counts(points, corners, threshold):
    """Literal copy of _consensus_counts before it bounded hypotheses, given
    each sample's three points: the full inlier count of every non-collinear
    sample, -1 for collinear ones."""
    p0, p1, p2 = corners.transpose(1, 0, 2)
    a, b = p1 - p0, p2 - p0
    normals = np.cross(a, b)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 1e-9 * np.maximum(1.0, np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    normals /= np.where(ok, norms, 1.0)[:, None]
    planes = np.vstack([normals.T, -np.einsum("ij,ij->i", normals, p0)])
    h = len(corners)
    step = max(1, min((1 << 17) // h, 65535))
    rows = min(step, points.shape[0])
    block1, dist, inl = np.empty((rows, 4)), np.empty((rows, h)), np.empty((rows, h), dtype=bool)
    block1[:, 3] = 1.0
    total = np.zeros(h, dtype=np.intp)
    for start in range(0, points.shape[0], step):
        block = points[start:start + step]
        b, d, i = block1[: len(block)], dist[: len(block)], inl[: len(block)]
        b[:, :3] = block
        np.matmul(b, planes, out=d)
        np.abs(d, out=d)
        np.less_equal(d, threshold, out=i)
        total += np.add.reduce(i.view(np.uint8), axis=0, dtype=np.uint16)
    return np.where(ok, total, -1)


def count_scored(monkeypatch):
    """Record (corners, returned counts) of every batch ransac_plane scores."""
    scored = []
    real = planefit._consensus_counts

    def spy(scan, corners, threshold, beat):
        counts = real(scan, corners, threshold, beat)
        scored.append((corners, counts))
        return counts

    monkeypatch.setattr(planefit, "_consensus_counts", spy)
    return scored


def test_ransac_stops_once_one_hypothesis_takes_every_point(monkeypatch):
    scored = count_scored(monkeypatch)
    pts = grid_on_y0()
    _, inliers = ransac_plane(pts, RansacConfig(rng_seed=0))
    assert inliers.size == pts.shape[0]
    assert [len(corners) for corners, _ in scored] == [1]


def test_ransac_scores_every_hypothesis_without_full_consensus(monkeypatch):
    """All 300 hypotheses are drawn, and each gets its full count or -1; some
    non-collinear one gets -1, dropped once it could no longer win."""
    scored = count_scored(monkeypatch)
    _, pts = next(criterion_5_clouds())
    ransac_plane(pts, RansacConfig(iterations=300, rng_seed=0))
    assert sum(len(corners) for corners, _ in scored) == 300
    counts = np.concatenate([c for _, c in scored])
    full = np.concatenate([oracle_counts(pts, corners, 0.05) for corners, _ in scored])
    assert np.all((counts == full) | (counts == -1))
    assert np.any((counts == -1) & (full >= 0))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 2000),
    h=st.integers(1, 80),
    beat=st.integers(-1, 2000),
    block=st.sampled_from([planefit._BLOCK, 512, 7]),
)
def test_consensus_counts_are_exact_or_provably_losing(seed, m, h, beat, block):
    """Over any column order of the scan and any beat, each count is the
    full count or -1; -1 only where the full count is <= beat or below the
    batch maximum; and where the maximum exceeds beat, its first-seen argmax
    is unchanged, so one set of hypotheses picks one winner in every order."""
    rng = np.random.default_rng(seed)
    on_plane = grid_on_y0(n_side=30)[rng.choice(900, size=m - m // 3)]
    pts = np.vstack([on_plane + rng.normal(0, 0.02, on_plane.shape),
                     rng.uniform(-5, 5, (m // 3, 3))])
    pts[rng.uniform(size=m) < 0.05] = pts[0]  # repeated points make collinear samples
    samples = np.array([rng.choice(m, size=3, replace=False) for _ in range(h)])
    full = oracle_counts(pts, pts[samples], 0.05)
    scan = np.vstack([pts.T, np.ones(m)])  # (4, M), last row ones
    for order in (rng.permutation(m), rng.permutation(m), np.arange(m), np.arange(m)[::-1]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planefit, "_BLOCK", block)  # small blocks: many pruning checks
            counts = planefit._consensus_counts(scan[:, order], pts[samples], 0.05, beat)
        kept = counts != -1
        assert np.array_equal(counts[kept], full[kept])
        assert np.all((full[~kept] <= beat) | (full[~kept] < full.max()))
        if full.max() > beat:
            assert np.argmax(counts) == np.argmax(full)


def plain_svd_plane(points, inliers):
    """The least-squares plane as a thin SVD of the centred inliers."""
    sel = points[inliers]
    centroid = sel.mean(axis=0)
    _, _, vh = np.linalg.svd(sel - centroid, full_matrices=False)
    return vh[-1], centroid


def rank_deficient_cloud(rng, m, rank):
    """(m, 3) points spanning a rank-dimensional affine subspace (rank 0: one
    point repeated), offset up to 5 m from the origin."""
    basis = rng.normal(size=(rank, 3)) if rank else np.zeros((1, 3))
    return rng.normal(size=(m, max(rank, 1))) @ basis + rng.uniform(-5, 5, 3)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.one_of(st.integers(3, 12), st.integers(13, 5000)),
    rank=st.sampled_from([0, 1, 2, 3]),
)
def test_lsq_plane_matches_plain_eigh(seed, m, rank):
    """The refit is the plain eigh formula bit for bit, rank-deficient sets
    included."""
    rng = np.random.default_rng(seed)
    pts = rank_deficient_cloud(rng, m, rank)
    inliers = rng.uniform(size=m) < 0.8
    inliers[:3] = True
    normal, centroid = planefit._lsq_plane(np.ascontiguousarray(pts.T), inliers, np.empty((4, m)))
    expected_normal, expected_centroid = plain_eigh_plane(pts, inliers)
    assert normal.tobytes() == expected_normal.tobytes()
    assert centroid.tobytes() == expected_centroid.tobytes()


def test_lsq_plane_matches_plain_eigh_on_a_frame():
    cfg = SynthConfig(n_persons=2, outlier_fraction=0.3, mask_stride=3, rng_seed=5)
    _, observed, obs = generate_scene(cfg)
    pts = unproject_ground(obs, observed.camera)
    inliers = np.abs(observed.plane.signed_distance(pts)) < 0.05
    normal, centroid = planefit._lsq_plane(pts.T, inliers, np.empty((4, len(pts))))
    expected_normal, expected_centroid = plain_eigh_plane(pts, inliers)
    assert normal.tobytes() == expected_normal.tobytes()
    assert centroid.tobytes() == expected_centroid.tobytes()


def noisy_plane(rng, m, sigma):
    """(m, 3) points within ~sigma of a random plane through a point up to
    5 m from the origin, spread over a 10 m square."""
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, rng.normal(size=3))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    uv = rng.uniform(-5, 5, (m, 2))
    return (rng.uniform(-5, 5, 3) + uv[:, :1] * e1 + uv[:, 1:] * e2
            + rng.normal(0, sigma, (m, 1)) * normal)


def angle_deg(n, expected):
    """Angle between two unit normals, either sign."""
    return np.degrees(np.arctan2(np.linalg.norm(np.cross(n, expected)), abs(n @ expected)))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.one_of(st.integers(3, 12), st.integers(13, 5000)),
    sigma=st.sampled_from([0.0, 1e-6, 0.01, 0.1]),
    planar=st.booleans(),
)
def test_lsq_plane_is_the_least_squares_plane(seed, m, sigma, planar):
    """On rank-2 sets and noisy planes the normal is within 1e-9 degrees of
    a plain SVD's, and the centroid within 1e-13 relative, wherever the
    inliers spread in two directions: the second singular value of the
    centred set at least 1/100 of the first.  The scatter matrix squares
    that ratio, so the normal's error grows as its inverse square: ~1e-10
    degrees at 1/100, ~1e-7 at 1/1000 and below."""
    rng = np.random.default_rng(seed)
    pts = rank_deficient_cloud(rng, m, 2) if planar else noisy_plane(rng, m, sigma)
    inliers = rng.uniform(size=m) < 0.8
    inliers[:3] = True
    spread = np.linalg.svd(pts[inliers] - pts[inliers].mean(axis=0), compute_uv=False)
    assume(spread[1] >= 1e-2 * spread[0])
    normal, centroid = planefit._lsq_plane(np.ascontiguousarray(pts.T), inliers, np.empty((4, m)))
    expected_normal, expected_centroid = plain_svd_plane(pts, inliers)
    assert angle_deg(normal, expected_normal) <= 1e-9
    scale = np.linalg.norm(expected_centroid)
    assert np.linalg.norm(centroid - expected_centroid) <= 1e-13 * scale


@pytest.mark.parametrize("k", [-150, -100, -50, -1, 0, 1, 50, 100, 150, 200, 250])
def test_lsq_plane_normal_holds_over_the_coordinate_range(k):
    """A noisy plane scaled by 2**k refits to the unscaled plane's plain-SVD
    normal within 1e-9 degrees: the scatter matrix neither underflows nor
    overflows from 2**-150 to 2**250 m."""
    rng = np.random.default_rng(k + 1000)
    pts = noisy_plane(rng, 2000, 0.01)
    inliers = rng.uniform(size=len(pts)) < 0.9
    expected_normal, _ = plain_svd_plane(pts, inliers)
    scaled = np.ascontiguousarray(pts.T) * 2.0 ** k
    with np.errstate(all="raise"):
        normal, _ = planefit._lsq_plane(scaled, inliers, np.empty((4, len(pts))))
    assert angle_deg(normal, expected_normal) <= 1e-9


def signed_zero_cloud(m, seed):
    """(m, 3) floats over 13 decades, signed zeros (one column all -0.0), and
    coordinates of either sign near planefit._COORD_MAX: from a few hundred
    rows up, summing them in another order than one by one changes bits."""
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-6, 7, (m, 3))
    cloud[rng.uniform(size=(m, 3)) < 0.1] = -0.0
    cloud[rng.uniform(size=(m, 3)) < 0.05] = 0.0
    huge = rng.uniform(size=(m, 3)) < 0.02
    size = huge.sum()
    cloud[huge] = rng.choice([-1.0, 1.0], size) * rng.uniform(0.5, 1, size) * planefit._COORD_MAX
    cloud[:, 2] = -0.0
    return cloud


@pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 773, 5000])
def test_refit_primitives_match_plain_numpy_bytewise(m):
    """The coordinate-major centring is points - point."""
    cloud = signed_zero_cloud(m, seed=m)
    centroid = np.ascontiguousarray(cloud.T).mean(axis=1)
    for point in (centroid, np.array([-0.0, 0.0, -planefit._COORD_MAX]), cloud[m // 2]):
        centred = cloud.T.copy()
        np.subtract(centred, point[:, None], out=centred)
        assert centred.T.tobytes(order="C") == (cloud - point).tobytes()


@pytest.mark.parametrize("h", [1, 2, 64, 427])
def test_cross_matches_numpy_bytewise(h):
    a, b = signed_zero_cloud(h, seed=h), signed_zero_cloud(h, seed=h + 1) * 1e-70
    assert planefit._cross(a, b).tobytes() == np.cross(a, b).tobytes()
    assert planefit._cross(a[0], b[-1]).tobytes() == np.cross(a[0], b[-1]).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 1500),
    outlier_fraction=st.floats(0.0, 0.9),
    threshold=st.floats(0.005, 0.3),
    iterations=st.integers(1, 600),
)
def test_ransac_matches_oracle_random_plane(seed, m, outlier_fraction, threshold, iterations):
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    n_out = int(outlier_fraction * m)
    uv = rng.uniform(-5, 5, (m - n_out, 2))
    on_plane = (rng.uniform(-3, 3, 3) + uv[:, :1] * e1 + uv[:, 1:] * e2
                + rng.normal(0, threshold / 3, (m - n_out, 1)) * normal)
    pts = np.vstack([on_plane, rng.uniform(-8, 8, (n_out, 3))])
    cfg = RansacConfig(iterations=iterations, inlier_threshold=threshold, rng_seed=seed % 1000)
    assert_matches_oracle(pts, cfg)


def test_ransac_low_inlier_ratio():
    # 35% of the cloud on a tilted plane, the rest uniform in a box around it
    true_n = np.array([0.0, np.cos(np.radians(8.0)), np.sin(np.radians(8.0))])
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.cross(true_n, e1)
    data_rng = np.random.default_rng(35)
    for seed in range(10):
        uv = data_rng.uniform(-5, 5, (350, 2))
        on_plane = (np.array([0.0, 1.5, 7.0]) + uv[:, :1] * e1 + uv[:, 1:] * e2
                    + data_rng.normal(0, 0.01, (350, 1)) * true_n)
        outliers = data_rng.uniform([-6, -3, 1], [6, 6, 13], (650, 3))
        plane = assert_matches_oracle(np.vstack([on_plane, outliers]), RansacConfig(rng_seed=seed))
        assert plane is not None
        angle = np.degrees(np.arccos(min(1.0, abs(plane.normal @ true_n))))
        assert angle < 2.0


# --- anchoring ---


def person_with_ankles(left_xyz, right_xyz):
    joints = np.array([left_xyz, right_xyz], dtype=float)
    return Person(
        joints=joints,
        rotation=np.eye(3),
        translation=np.zeros(3),
        ankle_left_idx=0,
        ankle_right_idx=1,
        head_idx=1,
        foot_chain=(0,),
    )


def test_anchor_moves_point_to_reference_ankle():
    plane = GroundPlane(normal=(0.0, 1.0, 0.0), point=(0.0, 0.0, 0.0))
    p = person_with_ankles([1.0, 0.0, 5.0], [1.2, 0.4, 5.0])
    p.ref_keypoints = project(np.array([[1.0, 0.0, 5.0], [1.2, 0.4, 5.0]]), CAM)
    scene = Scene([p], CAM, plane=plane)
    anchored = anchor_plane(plane, scene)
    assert np.array_equal(anchored.point, [1.0, 0.0, 5.0])
    assert np.array_equal(anchored.normal, plane.normal)


def test_anchor_zeroes_support_ankle_distance():
    plane = GroundPlane(normal=(0.0, -1.0, 0.0), point=(0.0, 2.0, 0.0))
    p = person_with_ankles([0.3, 1.2, 4.0], [0.5, 1.5, 4.1])
    p.ref_keypoints = project(np.array([[0.3, 1.2, 4.0], [0.5, 1.5, 4.1]]), CAM)
    scene = Scene([p], CAM, plane=plane)
    anchored = anchor_plane(plane, scene)
    ankle_dists = anchored.signed_distance(
        np.array([[0.3, 1.2, 4.0], [0.5, 1.5, 4.1]])
    )
    assert np.min(np.abs(ankle_dists)) == 0.0


def test_anchor_picks_lower_ankle():
    # normal (0,-1,0): larger y = lower in a y-down camera = smaller signed
    # distance; the support foot is the right ankle here
    plane = GroundPlane(normal=(0.0, -1.0, 0.0), point=(0.0, 2.0, 0.0))
    p = person_with_ankles([0.0, 1.0, 4.0], [0.0, 1.8, 4.0])
    p.ref_keypoints = project(np.array([[0.0, 1.0, 4.0], [0.0, 1.8, 4.0]]), CAM)
    scene = Scene([p], CAM, plane=plane)
    anchored = anchor_plane(plane, scene)
    assert np.array_equal(anchored.point, [0.0, 1.8, 4.0])
