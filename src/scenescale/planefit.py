"""Ground-plane recovery from a masked depth map.

Pipeline: unproject masked ground pixels to a metric point cloud, fit a
plane by RANSAC over 3-point hypotheses, refine the winner on its inliers
by least squares, then re-anchor the plane at the reference person's ankle
so the feet constraint measures distances from a point with trusted depth.

Memory: a DepthObservation keeps only its M ground samples (a flat index
and a depth value each), never the (H, W) grids.  The unprojection writes
the (M, 3) cloud in place and makes no other M-by-3 array; RANSAC scores
through one block-sized buffer and refits in one (M, 3) workspace with one
(M,) distance buffer, and never writes to the caller's cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientGroundError, LowConsensusError, SchemaError, check_int
from .geometry import CameraModel
from .objective import ObjectiveConfig, loss_and_gradients
from .scene import GroundPlane, Scene, posed_ankles


class DepthObservation:
    """The ground samples of a relative depth map; metric_scale converts to meters.

    Built from an (H, W) depth grid and a ground mask of the same shape
    (nonzero = ground), it keeps only what unprojection reads: the image size
    (W, H), the ground pixels' row-major flat indices, increasing, and their
    depth values (float32 kept, any other dtype as float64).  The grids are
    not kept, so pixels off the mask are never read and may hold anything.
    """

    def __init__(self, depth, ground_mask, metric_scale: float = 6.0):
        depth = np.asarray(depth)
        if depth.ndim != 2:
            raise SchemaError(f"depth must be 2-D, got shape {depth.shape}")
        mask = np.asarray(ground_mask)
        if mask.shape != depth.shape:
            raise SchemaError(f"mask shape {mask.shape} != depth shape {depth.shape}")
        index = np.flatnonzero(mask.astype(bool, copy=False))  # bools: nonzero's fast path
        self._keep(depth.shape[::-1], index, np.take(depth, index), metric_scale)

    @classmethod
    def from_ground(cls, image_size, ground_index, ground_depth, metric_scale=6.0):
        """The observation of a (W, H) grid whose ground pixels are ground_index
        (row-major flat indices, increasing, as np.flatnonzero gives them) with
        depth values ground_depth; the constructor's checks apply."""
        obs = cls.__new__(cls)
        obs._keep(image_size, ground_index, ground_depth, metric_scale)
        return obs

    def _keep(self, image_size, index, values, metric_scale) -> None:
        metric_scale = float(metric_scale)
        if not (math.isfinite(metric_scale) and metric_scale > 0):
            raise SchemaError(f"metric_scale must be finite and > 0, got {metric_scale}")
        index, values = np.asarray(index), np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        if values.shape != index.shape:
            raise SchemaError(f"{values.size} depth values for {index.size} ground pixels")
        # min is nan if any value is, so this is "all finite and > 0" without temporaries
        if values.size and not (values.min() > 0 and math.isfinite(values.max())):
            raise SchemaError("masked depth values must be finite and > 0")
        w, h = image_size
        self.image_size = (int(w), int(h))
        self.ground_index = index        # (M,) row-major flat pixel indices, increasing
        self.ground_depth = values       # (M,) relative units
        self.metric_scale = metric_scale


@dataclass
class RansacConfig:
    iterations: int = 500
    inlier_threshold: float = 0.05   # meters
    min_inlier_fraction: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        check_int(self.iterations, "iterations", 1)
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise SchemaError(
                f"inlier_threshold must be finite and > 0, got {self.inlier_threshold}"
            )
        if not 0 <= self.min_inlier_fraction <= 1:
            raise SchemaError(
                f"min_inlier_fraction must be in [0, 1], got {self.min_inlier_fraction}"
            )
        check_int(self.rng_seed, "rng_seed", 0)


def unproject_ground(obs: DepthObservation, cam: CameraModel) -> np.ndarray:
    """Ground samples to camera-frame points, (M, 3), row-major pixel order.

    The points are float64 whatever the depth's dtype; a float32 depth is
    widened exactly before the metric scale multiplies it.  z, then x and y
    are written straight into the columns of the result: the row and column
    of each flat index land there as exact floats, then (i - c) * z / f runs
    in place.
    """
    flat = obs.ground_index
    if flat.size < 3:
        raise InsufficientGroundError(f"need >= 3 ground pixels, mask has {flat.size}")
    points = np.empty((flat.size, 3))
    x, y, z = points.T
    np.multiply(obs.ground_depth, obs.metric_scale, out=z, dtype=np.float64)
    np.divmod(flat, obs.image_size[0], out=(y, x))
    for col, c in zip((x, y), cam.principal_point):
        np.subtract(col, c, out=col)
        np.multiply(col, z, out=col)
        np.divide(col, cam.focal, out=col)
    return points


def _lsq_plane(
    points: np.ndarray, inliers: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares plane through points[inliers]: centroid + smallest-singular
    direction.  The inliers are gathered and centred in the (M, 3) workspace."""
    sel = np.compress(inliers, points, axis=0, out=work[: np.count_nonzero(inliers)])
    centroid = sel.mean(axis=0)
    sel -= centroid
    _, _, vh = np.linalg.svd(sel, full_matrices=False)
    return vh[-1], centroid


_BLOCK = 1 << 17  # distances per scoring block, sized to stay in cache


def _consensus_counts(points: np.ndarray, samples: np.ndarray, threshold: float) -> np.ndarray:
    """Inlier count of the plane through each 3-point sample; -1 if collinear.

    Each block of the (M, 3) cloud is copied into a reused (step, 4) buffer
    whose last column is ones, so one product gives every point's signed
    distance to a batch of planes (n, -n.p0).
    """
    p0, p1, p2 = points[samples].transpose(1, 0, 2)
    a, b = p1 - p0, p2 - p0
    normals = np.cross(a, b)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 1e-9 * np.maximum(1.0, np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    normals /= np.where(ok, norms, 1.0)[:, None]
    planes = np.vstack([normals.T, -np.einsum("ij,ij->i", normals, p0)])
    h = len(samples)
    step = max(1, min(_BLOCK // h, 65535))  # a block's counts fit uint16
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


def ransac_plane(
    points: np.ndarray, cfg: RansacConfig | None = None
) -> tuple[GroundPlane, np.ndarray]:
    """Robust plane fit; returns the plane and the final inlier indices.

    All cfg.iterations 3-point hypotheses are drawn from one rng_seed stream
    and scored; the only early stop is when a hypothesis takes every point,
    since no later one can beat it.  Consensus keeps the first-seen best
    hypothesis (strict >), so results are reproducible for a fixed rng_seed.
    The winner's inliers are recomputed from its three points, refined by
    least squares, inliers are recomputed against the refined plane, and one
    more refinement pass runs on that set.  The normal is flipped, if
    needed, so the camera origin lies on the positive side of the plane.

    Beyond the cloud, the only M-sized arrays are one (M, 3) workspace and
    one (M,) distance buffer, shared by the winner's recount and both refits,
    and the inlier masks; scoring copies one block at a time.  points itself
    is never written.
    """
    if cfg is None:
        cfg = RansacConfig()
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise SchemaError(f"points must be (M, 3), got {points.shape}")
    m = points.shape[0]
    if m < 3:
        raise InsufficientGroundError(f"need >= 3 points, got {m}")

    # Hypotheses are scored in batches of 1, 8, 64, ... in draw order; the
    # first-seen maximum wins within and across batches, as in a one-by-one
    # loop, and no batch starts once one hypothesis has taken every point.
    rng = np.random.default_rng(cfg.rng_seed)
    best_count = 0
    best_sample: np.ndarray | None = None
    drawn, batch = 0, 1
    while drawn < cfg.iterations and best_count < m:
        samples = np.array([
            rng.choice(m, size=3, replace=False)
            for _ in range(min(batch, cfg.iterations - drawn))
        ])
        counts = _consensus_counts(points, samples, cfg.inlier_threshold)
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count, best_sample = int(counts[k]), samples[k]
        drawn += len(samples)
        batch *= 8

    work, dist = np.empty((m, 3)), np.empty(m)

    def within(point: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """|(points - point) @ normal| <= threshold, through work and dist."""
        np.subtract(points, point, out=work)
        np.matmul(work, normal, out=dist)
        np.abs(dist, out=dist)
        return np.less_equal(dist, cfg.inlier_threshold)

    # the winner's inliers in the one-by-one loop's own arithmetic, so the
    # plane does not depend on the rounding of the block scoring
    best_inliers: np.ndarray | None = None
    if best_sample is not None:
        p0, p1, p2 = points[best_sample]
        normal = np.cross(p1 - p0, p2 - p0)
        normal = normal / np.linalg.norm(normal)
        best_inliers = within(p0, normal)
        best_count = int(np.count_nonzero(best_inliers))

    if best_inliers is None or best_count < max(3, int(np.ceil(cfg.min_inlier_fraction * m))):
        raise LowConsensusError(
            f"best consensus {best_count}/{m} below "
            f"min_inlier_fraction={cfg.min_inlier_fraction}"
        )

    inlier_set = best_inliers
    normal = centroid = None
    for _ in range(2):
        normal, centroid = _lsq_plane(points, inlier_set, work)
        inlier_set = within(centroid, normal)
        if np.count_nonzero(inlier_set) < 3:
            # refinement degenerated; fall back to the consensus set
            inlier_set = best_inliers
            normal, centroid = _lsq_plane(points, inlier_set, work)
            break

    # camera origin on the positive side: (0 - centroid) . n >= 0
    if centroid @ normal > 0:
        normal = -normal
    return GroundPlane(normal, centroid), np.nonzero(inlier_set)[0]


def fit_rms(plane: GroundPlane, points: np.ndarray, inliers: np.ndarray) -> float:
    """RMS point-to-plane distance of the inlier set, from one gathered copy."""
    sel = np.asarray(points, dtype=float)[inliers]
    sel -= plane.point
    d = sel @ plane.normal
    np.multiply(d, d, out=d)
    return float(np.sqrt(np.mean(d)))


def select_reference_person(scene: Scene) -> int:
    """Index of the person with lowest initial reprojection error.

    Ties break toward the lowest index (np.argmin picks the first minimum).
    """
    cfg = ObjectiveConfig(mode="reprojection_only")
    breakdown, _, _ = loss_and_gradients(scene, cfg)
    return int(np.argmin([rep for rep, _ in breakdown.per_person]))


def anchor_plane(plane: GroundPlane, scene: Scene) -> GroundPlane:
    """Move the plane point to the reference person's supporting ankle.

    The supporting ankle is the one with the smaller signed distance to the
    fitted plane (the lower one, given the camera-positive orientation).
    The normal is unchanged.
    """
    ref = scene.persons[select_reference_person(scene)]
    ankles = posed_ankles(ref)
    support = ankles[int(np.argmin(plane.signed_distance(ankles)))]
    return GroundPlane(plane.normal.copy(), support.copy())
