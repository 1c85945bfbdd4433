"""Ground-plane recovery from a masked depth map.

Pipeline: unproject masked ground pixels to a metric point cloud, fit a
plane by RANSAC over 3-point hypotheses, refine the winner on its inliers
by least squares, then re-anchor the plane at the reference person's ankle
so the feet constraint measures distances from a point with trusted depth.
RANSAC draws each batch of hypotheses with one call, the same samples
rng.choice would give one by one, and stops scoring a hypothesis as soon as
its count provably cannot win, so it picks the same winner as scoring every
hypothesis in full, with less work.

Memory: a DepthObservation keeps only its M ground samples (a flat index
and a depth value each), never the (H, W) grids.  The unprojection writes
the (M, 3) cloud in place and makes no other M-by-3 array.  RANSAC scores
through a (4, rows) block of coordinates (rows <= 65535) and a distance
block of at most max(65536, hypotheses) values, holds the cloud reordered
for scoring in one (M, 3) workspace that the refits reuse with one (M,)
distance buffer, and never writes to the caller's cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientGroundError, LowConsensusError, SchemaError, check_int,
                     positive_number, real_number)
from .geometry import CameraModel
from .objective import ObjectiveConfig, _evaluate_theta, _pack_scene
from .scene import GroundPlane, Scene, posed_ankles


class DepthObservation:
    """The ground samples of a relative depth map; metric_scale converts to meters.

    Built from an (H, W) depth grid and a ground mask of the same shape
    (nonzero = ground), it keeps only what unprojection reads: the image size
    (W, H), the ground pixels' row-major flat indices, increasing, and their
    depth values (float32 kept, any other dtype as float64).  The grids are
    not kept, so pixels off the mask are never read and may hold anything.
    max_depth is the largest ground depth value, 0.0 with no ground pixel.
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
        metric_scale = positive_number(metric_scale, "metric_scale")
        index, values = np.asarray(index), np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        if values.shape != index.shape:
            raise SchemaError(f"{values.size} depth values for {index.size} ground pixels")
        top = 0.0
        if values.size:
            top = float(values.max())
            # min is nan if any value is, so this is "all finite and > 0" without temporaries
            if not (values.min() > 0 and math.isfinite(top)):
                raise SchemaError("masked depth values must be finite and > 0")
            if not math.isfinite(top * metric_scale):
                raise SchemaError(f"metric_scale {metric_scale} takes depth {top} beyond a float")
        w, h = image_size
        self.image_size = (int(w), int(h))
        self.ground_index = index        # (M,) row-major flat pixel indices, increasing
        self.ground_depth = values       # (M,) relative units
        self.metric_scale = metric_scale
        self.max_depth = top             # relative units, for unproject_ground's bound


@dataclass
class RansacConfig:
    iterations: int = 500
    inlier_threshold: float = 0.05   # meters
    min_inlier_fraction: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        check_int(self.iterations, "iterations", 1)
        self.inlier_threshold = positive_number(self.inlier_threshold, "inlier_threshold")
        self.min_inlier_fraction = real_number(self.min_inlier_fraction, "min_inlier_fraction")
        if not 0 <= self.min_inlier_fraction <= 1:
            raise SchemaError(
                f"min_inlier_fraction must be in [0, 1], got {self.min_inlier_fraction}"
            )
        check_int(self.rng_seed, "rng_seed", 0)


# Largest |coordinate| of a ground point that a plane fit takes.  The largest
# value any step of the fit forms is the squared norm of the cross product of
# two point differences in RANSAC: entries up to 8 x**2, so up to 192 x**4.
# The refits, fit_rms and anchor_plane stay near x**2.  256 x**4 <= the float
# max keeps every one finite: x <= ~2.9e76 m.
_COORD_MAX = (np.finfo(float).max / 256) ** 0.25


def unproject_ground(obs: DepthObservation, cam: CameraModel) -> np.ndarray:
    """Ground samples to camera-frame points, (M, 3), row-major pixel order.

    Before any point is made, SchemaError if a coordinate could pass
    _COORD_MAX: the bound is the largest metric depth times
    max(1, max over the image corners of |pixel - principal point| / focal).

    The points are float64 whatever the depth's dtype; a float32 depth is
    widened exactly before the metric scale multiplies it.  z, then x and y
    are written straight into the columns of the result: the row and column
    of each flat index land there as exact floats, then (i - c) * z / f runs
    in place.
    """
    flat = obs.ground_index
    if flat.size < 3:
        raise InsufficientGroundError(f"need >= 3 ground pixels, mask has {flat.size}")
    zmax = obs.max_depth * obs.metric_scale
    if zmax > _COORD_MAX:
        raise SchemaError(f"metric_scale {obs.metric_scale} puts ground depths up to "
                          f"{zmax:.3g} m, beyond the {_COORD_MAX:.3g} m a plane fit takes")
    (w, h), (cx, cy) = obs.image_size, map(float, cam.principal_point)  # floats overflow to inf
    reach = zmax * (max(abs(cx), abs(w - 1 - cx), abs(cy), abs(h - 1 - cy)) / cam.focal)
    if reach > _COORD_MAX:
        raise SchemaError(f"camera focal {cam.focal} and principal point [{cx}, {cy}] put "
                          f"ground points up to {reach:.3g} m off the optical axis, beyond "
                          f"the {_COORD_MAX:.3g} m a plane fit takes")
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
    direction.  The inliers are gathered and centred in the (M, 3) workspace.

    From 5 rows up the SVD is taken of the 3x3 R of a QR factorization.  That
    is the path LAPACK's gesdd takes itself for 5 or more rows of 3 columns,
    so vh is the same, without the (M, 3) U that gesdd would build and that is
    discarded here.  With 3 or 4 rows gesdd takes another path, which differs
    from QR-first in the last bits, so those go to the SVD as they are.
    """
    sel = np.compress(inliers, points, axis=0, out=work[: np.count_nonzero(inliers)])
    centroid = sel.mean(axis=0)
    sel -= centroid
    if len(sel) >= 5:
        sel = np.linalg.qr(sel, mode="r")
    _, _, vh = np.linalg.svd(sel, full_matrices=False)
    return vh[-1], centroid


_BLOCK = 1 << 16  # distances per scoring block: 512 KB, sized to stay in cache


def _draw_samples(rng: np.random.Generator, m: int, h: int) -> np.ndarray:
    """h samples of 3 distinct indices in [0, m), (h, 3): what h calls of
    rng.choice(m, 3, replace=False) return, leaving rng where they leave it.

    choice runs Floyd's algorithm on bounded draws in [0, m-3], [0, m-2] and
    [0, m-1], then shuffles through draws in [0, 2] and [0, 1]; one int64
    rng.integers call makes all 5h draws, one by one, in that order.  Floyd
    keeps b unless it is a (then m-2), and c unless it is a or b (then m-1);
    the shuffle swaps slot 2 with the first shuffle draw's slot, then slot 1
    with the second's.
    """
    draws = rng.integers(0, np.tile([m - 3, m - 2, m - 1, 2, 1], h), endpoint=True)
    a, b, c, *shuffle = draws.reshape(h, 5).T
    b = np.where(b == a, m - 2, b)
    c = np.where((c == a) | (c == b), m - 1, c)
    samples, rows = np.column_stack([a, b, c]), np.arange(h)
    for slot, other in zip((2, 1), shuffle):
        samples[rows, slot], samples[rows, other] = samples[rows, other], samples[rows, slot]
    return samples


def _consensus_counts(
    scan: np.ndarray, corners: np.ndarray, threshold: float, beat: int
) -> np.ndarray:
    """Inlier count of the plane through each 3-point sample, or -1 where the
    sample is collinear or its count provably cannot win.

    corners is (h, 3, 3): the three points of each sample.  scan is the cloud
    in any row order, as counts do not depend on it.  beat is the best count
    of earlier batches; the batch's winner, as ransac_plane picks it, is its
    first-seen maximum, and only if that exceeds beat.

    Scoring is hypothesis-major.  The planes (n, -n.p0) still in play are an
    (alive, 4) array.  Each block of scan is copied, coordinate-major, into
    the top three rows of a reused (4, rows) buffer whose last row is ones,
    so one product gives an (alive, rows) block of signed distances, and
    each hypothesis counts its inliers along one contiguous row.  rows is
    _BLOCK // alive (at least 1, at most 65535, so a row's count fits
    uint16) and is recomputed as hypotheses drop out, so the blocks grow.
    After each block a hypothesis stays only while
    partial + rows_left >= max(beat + 1, max partial); the others leave the
    product and get -1.  This never changes the winner, wherever the blocks
    end:
    - a dropped hypothesis ends with at most partial + rows_left, so its
      count is <= beat, or below the final count of the hypothesis holding
      the max partial; either way it could never have replaced the winner;
    - the first-seen maximum, with final count F, is never dropped while
      F > beat: its partial + rows_left >= F >= beat + 1, and F is at least
      every other final count, hence at least every partial.
    So the counts returned are exact wherever they are not -1, and where any
    exceeds beat, their first-seen argmax is the unpruned one.
    """
    p0, p1, p2 = corners.transpose(1, 0, 2)
    a, b = p1 - p0, p2 - p0
    normals = np.cross(a, b)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 1e-9 * np.maximum(1.0, np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    alive = np.flatnonzero(ok)  # collinear samples are never scored
    normals = normals[alive] / norms[alive, None]
    planes = np.column_stack([normals, -np.einsum("ij,ij->i", normals, p0[alive])])
    m, h = scan.shape[0], len(corners)
    # alive * rows <= max(_BLOCK, h), and rows <= m
    size = min(max(_BLOCK, h), h * m)
    block1 = np.empty((4, min(m, _BLOCK, 65535)))
    dist, inl = np.empty(size), np.empty(size, dtype=bool)
    block1[3] = 1.0
    total = np.zeros(alive.size, dtype=np.intp)
    start = 0
    while start < m and alive.size:
        rows = min(max(1, _BLOCK // alive.size), 65535, m - start)
        b = block1[:, :rows]
        b[:3] = scan[start:start + rows].T
        d = dist[: alive.size * rows].reshape(alive.size, rows)
        i = inl[: alive.size * rows].reshape(alive.size, rows)
        np.matmul(planes, b, out=d)
        np.abs(d, out=d)
        np.less_equal(d, threshold, out=i)
        total += np.add.reduce(i.view(np.uint8), axis=1, dtype=np.uint16)
        start += rows
        keep = total + (m - start) >= max(beat + 1, total.max())
        if not keep.all():
            planes, total, alive = planes[keep], total[keep], alive[keep]
    counts = np.full(h, -1, dtype=np.intp)
    counts[alive] = total
    return counts


def ransac_plane(
    points: np.ndarray, cfg: RansacConfig | None = None
) -> tuple[GroundPlane, np.ndarray]:
    """Robust plane fit; returns the plane and the final inlier indices.

    cfg.iterations 3-point hypotheses are drawn from one rng_seed stream, a
    batch per call, as rng.choice(M, 3, replace=False) would draw them one
    by one (see _draw_samples), and bounded: each is scored until its count
    is known, or until it provably cannot beat the best so far (see
    _consensus_counts).  The only early
    stop of the draws is when a hypothesis takes every point, since no later
    one can beat it.  Consensus keeps the first-seen best hypothesis (strict
    >), so results are reproducible for a fixed rng_seed, and they are the
    same as scoring every hypothesis in full.  Once a leader exists and
    hypotheses remain, the cloud is scanned with the leader's outliers
    first: a hypothesis that agrees with the leader gains little there and
    drops out after those rows.  The winner's inliers are recomputed from
    its three points, refined by least squares, inliers are recomputed
    against the refined plane, and one more refinement pass runs on that
    set.  The normal is flipped, if needed, so the camera origin lies on the
    positive side of the plane.

    Beyond the cloud, the only M-sized arrays are one (M, 3) workspace and
    one (M,) distance buffer, and the inlier masks.  The workspace holds the
    reordered cloud while hypotheses are scored, then serves the winner's
    recount and both refits with the distance buffer; scoring copies one
    block at a time, coordinate-major, into a (4, rows) buffer of at most
    65535 columns, 2 MB.  points itself is never written.
    """
    cfg = cfg or RansacConfig()
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise SchemaError(f"points must be (M, 3), got {points.shape}")
    m = points.shape[0]
    if m < 3:
        raise InsufficientGroundError(f"need >= 3 points, got {m}")

    work, dist = np.empty((m, 3)), np.empty(m)

    def within(point: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """|(points - point) @ normal| <= threshold, through work and dist."""
        np.subtract(points, point, out=work)
        np.matmul(work, normal, out=dist)
        np.abs(dist, out=dist)
        return np.less_equal(dist, cfg.inlier_threshold)

    # Hypotheses are scored in batches of 1, 8, 64, ... in draw order; the
    # first-seen maximum wins within and across batches, as in a one-by-one
    # loop, and no batch starts once one hypothesis has taken every point.
    rng = np.random.default_rng(cfg.rng_seed)
    best_count = 0
    best_inliers: np.ndarray | None = None
    scan = points
    drawn, batch = 0, 1
    while drawn < cfg.iterations and best_count < m:
        samples = _draw_samples(rng, m, min(batch, cfg.iterations - drawn))
        counts = _consensus_counts(scan, points[samples], cfg.inlier_threshold, best_count)
        drawn += len(samples)
        batch *= 8
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count = int(counts[k])
            # the leader's inliers in the one-by-one loop's own arithmetic, so
            # the plane does not depend on the rounding of the block scoring
            p0, p1, p2 = points[samples[k]]
            normal = np.cross(p1 - p0, p2 - p0)
            best_inliers = within(p0, normal / np.linalg.norm(normal))
            if drawn < cfg.iterations and best_count < m:
                # within() has just overwritten work: refill it with the
                # leader's outliers first, then its inliers, for the next batch
                outside = m - np.count_nonzero(best_inliers)
                np.compress(best_inliers, points, axis=0, out=work[outside:])
                np.compress(~best_inliers, points, axis=0, out=work[:outside])
                scan = work
    if best_inliers is not None:
        best_count = int(np.count_nonzero(best_inliers))

    need = max(3, int(np.ceil(cfg.min_inlier_fraction * m)))
    if best_inliers is None or best_count < need:
        raise LowConsensusError(
            f"best consensus {best_count}/{m} below the {need} required "
            f"(min_inlier_fraction={cfg.min_inlier_fraction})"
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
    A person whose error is not finite (a 1e308 scale, say) is never chosen.
    """
    cfg = ObjectiveConfig(mode="reprojection_only")
    with np.errstate(over="ignore", invalid="ignore"):  # such errors are skipped below
        rep, _, _ = _evaluate_theta(*_pack_scene(scene, cfg), cfg)
    finite = np.isfinite(rep)
    if not finite.any():
        raise SchemaError("no person has a finite reprojection error to anchor the plane at")
    return int(np.argmin(np.where(finite, rep, np.inf)))


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
