"""Ground-plane recovery from a masked depth map.

Pipeline: unproject masked ground pixels to a metric point cloud, fit a
plane by RANSAC over 3-point hypotheses, refine the winner on its inliers
by least squares, then re-anchor the plane at the reference person's ankle
so the feet constraint measures distances from a point with trusted depth.
RANSAC draws each batch of hypotheses with one call, the same samples
rng.choice would give one by one, and stops scoring a hypothesis as soon as
its count provably cannot win, so it picks the same winner as scoring every
hypothesis in full, with less work.

The cloud is coordinate-major, (3, M), from unprojection to the last refit,
so every per-point pass runs along M-long contiguous rows.

Memory: a DepthObservation keeps only its M ground samples (an int32 flat
index and a depth value each, 8 bytes with float32 depth), never the (H, W)
grids.  The unprojection writes the (3, M) cloud in place and makes no other
M-sized array of points.  RANSAC holds one (4, M) workspace: the cloud in scan order over a row of
ones while hypotheses are scored, then the refits' scratch over the
recounts' distance buffer; it is filled in place, with no stacked copy.
Scoring reads it block by block into a distance block of at most 65536
values.  A refit gathers its inliers into the workspace and reduces them to
a 3x3 scatter matrix, so its only other M-sized array is the inliers' index.
Nothing writes to the caller's cloud.  A cloud that is not the transpose of
a C-contiguous float64 (3, M) array is copied once.  fit_rms computes the
inliers' distances chunk by chunk into one array, so it never gathers the
whole inlier set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientGroundError, LowConsensusError, SchemaError, check_int,
                     number_in, positive_number)
from .geometry import CameraModel
from .objective import ObjectiveConfig, PackedScene, _evaluate_theta
from .scene import GroundPlane, Scene, posed_ankles


# An image has fewer pixels than this, so a flat pixel index fits int32.
_MAX_PIXELS = 2**31


def check_image_size(w: int, h: int, where: str = "image") -> None:
    """SchemaError, naming where, unless the (W, H) image has 0 <= W, H and
    W * H < 2**31 pixels, the images whose flat pixel indices int32 holds."""
    if w < 0 or h < 0 or w * h >= _MAX_PIXELS:
        raise SchemaError(f"{where} {w}x{h}: a depth map must have W, H >= 0 and fewer "
                          "than 2**31 pixels, so that a pixel index fits int32")


class DepthObservation:
    """The ground samples of a relative depth map; metric_scale converts to meters.

    Built from an (H, W) depth grid and a ground mask of the same shape
    (nonzero = ground), it keeps only what unprojection reads: the image size
    (W, H), the ground pixels' row-major flat indices, increasing, as int32,
    and their depth values (float32 kept, any other dtype as float64): 8
    bytes a ground pixel with float32 depth.  The grids are not kept, so
    pixels off the mask are never read and may hold anything.  max_depth is
    the largest ground depth value, 0.0 with no ground pixel.

    SchemaError for an image of W * H >= 2**31 pixels, whose indices int32
    cannot hold, and for an index outside [0, W * H); both are checked
    before the indices are cast, since a cast would wrap them silently.
    SchemaError too for indices that do not increase.
    """

    def __init__(self, depth, ground_mask, metric_scale: float = 6.0):
        depth = np.asarray(depth)
        if depth.ndim != 2:
            raise SchemaError(f"depth must be 2-D, got shape {depth.shape}")
        mask = np.asarray(ground_mask)
        if mask.shape != depth.shape:
            raise SchemaError(f"mask shape {mask.shape} != depth shape {depth.shape}")
        check_image_size(*depth.shape[::-1])  # before a frame-sized index exists
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
        w, h = (int(v) for v in image_size)
        check_image_size(w, h)
        index, values = np.asarray(index), np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        if values.shape != index.shape:
            raise SchemaError(f"{values.size} depth values for {index.size} ground pixels")
        if index.size and (index.dtype.kind not in "iu" or index.min() < 0
                           or index.max() >= w * h):
            raise SchemaError(f"ground pixel indices must be integers in [0, {w * h}) "
                              f"for a {w}x{h} image")
        if not (index[1:] > index[:-1]).all():  # the writer's blocks rely on it
            raise SchemaError("ground pixel indices must be increasing")
        index = index.astype(np.int32, copy=False)  # in range, so the cast is exact
        top = 0.0
        if values.size:
            top = float(values.max())
            # min is nan if any value is, so this is "all finite and > 0" without temporaries
            if not (values.min() > 0 and math.isfinite(top)):
                raise SchemaError("masked depth values must be finite and > 0")
            if not math.isfinite(top * metric_scale):
                raise SchemaError(f"metric_scale {metric_scale} takes depth {top} beyond a float")
        self.image_size = (w, h)
        self.ground_index = index        # (M,) int32 row-major flat pixel indices, increasing
        self.ground_depth = values       # (M,) relative units
        self.metric_scale = metric_scale
        self.max_depth = top             # relative units, for unproject_ground's bound


# Most hypotheses a fit draws: 200 times the default, 8-11 s on a 1080p frame
# with 30 % outliers (80-110 us a hypothesis on 2 shared cores).  At
# p = 0.999 it covers consensus fractions down to ~5 %; without a ceiling,
# iterations = 10**20 never returns.
_MAX_ITERATIONS = 100_000


@dataclass
class RansacConfig:
    iterations: int = 500
    inlier_threshold: float = 0.05   # meters
    min_inlier_fraction: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        check_int(self.iterations, "iterations", 1)
        if self.iterations > _MAX_ITERATIONS:
            raise SchemaError(f"iterations must be at most {_MAX_ITERATIONS}, "
                              f"got {self.iterations!r}")
        self.inlier_threshold = positive_number(self.inlier_threshold, "inlier_threshold")
        self.min_inlier_fraction = number_in(self.min_inlier_fraction, "min_inlier_fraction", 0, 1)
        check_int(self.rng_seed, "rng_seed", 0)


# Largest |coordinate| of a ground point that a plane fit takes.  The largest
# value any step of the fit forms is the squared norm of the cross product of
# two point differences in RANSAC: entries up to 8 x**2, so up to 192 x**4.
# 256 x**4 <= the float max keeps it finite: x <= ~2.9e76 m.  fit_rms and
# anchor_plane stay near x**2.  A refit's scatter matrix sums count products
# of centred coordinates, each at most (2x)**2: ~1e161 for 2**25 points (an
# 8K frame's pixels), and finite for any count below 2**63.
_COORD_MAX = (np.finfo(float).max / 256) ** 0.25


def unproject_ground(obs: DepthObservation, cam: CameraModel) -> np.ndarray:
    """Ground samples to camera-frame points, (M, 3), row-major pixel order:
    the transpose of a C-contiguous (3, M) array, which ransac_plane reads
    without a copy.

    SchemaError if the depth map's size is not the camera's image size.
    Before any point is made, SchemaError if a coordinate could pass
    _COORD_MAX: the bound is the largest metric depth times
    max(1, max over the image corners of |pixel - principal point| / focal).

    The points are float64 whatever the depth's dtype; a float32 depth is
    widened exactly before the metric scale multiplies it.  z, then x and y
    are written straight into the rows of the (3, M) array: the row and
    column of each flat index land there as exact floats, then
    (i - c) * z / f runs in place.
    """
    if obs.image_size != cam.image_size:
        raise SchemaError(f"depth map is {obs.image_size[0]}x{obs.image_size[1]} pixels but "
                          f"the camera's image is {cam.image_size[0]}x{cam.image_size[1]}")
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
    cloud = np.empty((3, flat.size))
    x, y, z = cloud
    np.multiply(obs.ground_depth, obs.metric_scale, out=z, dtype=np.float64)
    np.divmod(flat, obs.image_size[0], out=(y, x))
    for row, c in zip((x, y), cam.principal_point):
        np.subtract(row, c, out=row)
        np.multiply(row, z, out=row)
        np.divide(row, cam.focal, out=row)
    return cloud.T


def _lsq_plane(
    cloud: np.ndarray, inliers: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares plane through the inlier columns of the (3, M) cloud:
    centroid + the eigenvector of the smallest eigenvalue of the centred
    inliers' 3x3 scatter matrix.  The inliers are gathered and centred in
    the first 3 * count values of the C-contiguous (4, M) workspace ("clip":
    a "raise" take would write through a temporary copy), so beyond the
    workspace the refit makes only the inliers' index.
    """
    count = np.count_nonzero(inliers)
    sel = work.reshape(-1)[: 3 * count].reshape(3, count)
    np.take(cloud, np.flatnonzero(inliers), axis=1, out=sel, mode="clip")
    centroid = sel.mean(axis=1)
    np.subtract(sel, centroid[:, None], out=sel)
    _, vecs = np.linalg.eigh(sel @ sel.T)
    return vecs[:, 0], centroid


_BLOCK = 1 << 16  # distances per scoring block: 512 KB, sized to stay in cache

# Most hypotheses in one batch, so a batch's arrays stay near 1 MB for any
# iteration count; the default schedule, 1, 8, 64, 427, stays below it.
_MAX_BATCH = 4096


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two (h, 3) arrays or two 3-vectors: the products and
    differences np.cross computes, so the same bits, without the axis
    handling that dominates np.cross on inputs this small."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


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

    corners is (h, 3, 3): the three points of each sample.  scan is (4, M):
    the cloud's coordinates, its columns in any order, as counts do not
    depend on it, over a row of ones.  beat is the best count of earlier
    batches; the batch's winner, as ransac_plane picks it, is its first-seen
    maximum, and only if that exceeds beat.

    Scoring is hypothesis-major.  The planes (n, -n.p0) still in play are an
    (alive, 4) array, so one product with a (4, rows) block of scan's columns
    gives an (alive, rows) block of signed distances, and each hypothesis
    counts its inliers along one contiguous row.  rows is
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
    normals = _cross(a, b)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 1e-9 * np.maximum(1.0, np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    alive = np.flatnonzero(ok)  # collinear samples are never scored
    normals = normals[alive] / norms[alive, None]
    planes = np.column_stack([normals, -np.einsum("ij,ij->i", normals, p0[alive])])
    m, h = scan.shape[1], len(corners)
    # alive * rows <= max(_BLOCK, h), and rows <= m
    size = min(max(_BLOCK, h), h * m)
    dist, inl = np.empty(size), np.empty(size, dtype=bool)
    total = np.zeros(alive.size, dtype=np.intp)
    start = 0
    while start < m and alive.size:
        rows = min(max(1, _BLOCK // alive.size), 65535, m - start)
        d = dist[: alive.size * rows].reshape(alive.size, rows)
        i = inl[: alive.size * rows].reshape(alive.size, rows)
        np.matmul(planes, scan[:, start:start + rows], out=d)
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

    Beyond the cloud, the only M-sized arrays are one (4, M) workspace, the
    inlier masks, each new leader's scan order while the workspace is
    refilled, and each refit's inlier index.  Its first three rows hold the cloud in scan order while
    hypotheses are scored, then serve the winner's recount and both refits.
    Its last row is the ones row of scoring and the distance buffer of every
    recount.  points itself is never written; the transpose of a
    C-contiguous float64 (3, M) array, as unproject_ground returns, is read
    without a copy, and any other cloud is copied once.
    """
    cfg = cfg or RansacConfig()
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != 3:
        raise SchemaError(f"points must be (M, 3), got {points.shape}")
    cloud = np.ascontiguousarray(points.T, dtype=float)
    points = cloud.T
    m = points.shape[0]
    if m < 3:
        raise InsufficientGroundError(f"need >= 3 points, got {m}")

    work = np.empty((4, m))
    work[:3] = cloud
    work[3] = 1.0
    dist = work[3]

    def within(point: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """|normal . (cloud - point)| <= threshold, through work.  normal @ (3, M)
        runs another BLAS kernel than (M, 3) @ normal, so a distance may differ
        from (points - point) @ normal in its last bit; a mask can differ only
        at a point within that bit of the threshold."""
        np.subtract(cloud, point[:, None], out=work[:3])
        np.matmul(normal, work[:3], out=dist)
        np.abs(dist, out=dist)
        return np.less_equal(dist, cfg.inlier_threshold)

    # Hypotheses are scored in batches of 1, 8, 64, ... (up to _MAX_BATCH) in
    # draw order; the first-seen maximum wins within and across batches, as in a
    # one-by-one loop, and no batch starts once one hypothesis has taken every point.
    rng = np.random.default_rng(cfg.rng_seed)
    best_count = 0
    best_inliers: np.ndarray | None = None
    drawn, batch = 0, 1
    while drawn < cfg.iterations and best_count < m:
        samples = _draw_samples(rng, m, min(batch, cfg.iterations - drawn))
        counts = _consensus_counts(work, points[samples], cfg.inlier_threshold, best_count)
        drawn += len(samples)
        batch = min(8 * batch, _MAX_BATCH)
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count = int(counts[k])
            # the leader's inliers recounted from its three points, so the
            # plane does not depend on the rounding of the block scoring
            p0, p1, p2 = points[samples[k]]
            normal = _cross(p1 - p0, p2 - p0)
            best_inliers = within(p0, normal / np.linalg.norm(normal))
            if drawn < cfg.iterations and best_count < m:
                # within() has just overwritten work: refill it with the
                # leader's outliers first, then its inliers, each in cloud
                # order, over a row of ones, for the next batch ("clip": a
                # "raise" take would write through a temporary copy)
                np.take(cloud, np.argsort(best_inliers, kind="stable"), axis=1,
                        out=work[:3], mode="clip")
                dist.fill(1.0)
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
        normal, centroid = _lsq_plane(cloud, inlier_set, work)
        inlier_set = within(centroid, normal)
        if np.count_nonzero(inlier_set) < 3:
            # refinement degenerated; fall back to the consensus set
            inlier_set = best_inliers
            normal, centroid = _lsq_plane(cloud, inlier_set, work)
            break

    # camera origin on the positive side: (0 - centroid) . n >= 0
    if centroid @ normal > 0:
        normal = -normal
    return GroundPlane(normal, centroid), np.nonzero(inlier_set)[0]


_RMS_CHUNK = 8192  # inliers a fit_rms chunk gathers: 192 KB of points


def fit_rms(plane: GroundPlane, points: np.ndarray, inliers: np.ndarray) -> float:
    """RMS point-to-plane distance of the inlier set (an index array).

    The distances are filled chunk by chunk into one array, so no gathered
    copy of the inliers exists; each distance, and so the mean of their
    squares, has the same bits as signed_distance over every inlier at once.
    """
    d = np.empty(len(inliers))
    for s in range(0, d.size, _RMS_CHUNK):
        d[s:s + _RMS_CHUNK] = plane.signed_distance(points[inliers[s:s + _RMS_CHUNK]])
    return float(np.sqrt(np.mean(d * d)))


def select_reference_person(scene: Scene) -> int:
    """Index of the person with lowest initial reprojection error.

    Ties break toward the lowest index (np.argmin picks the first minimum).
    A person with no confident joint (an error of 0 that observes nothing)
    or whose error is not finite (a 1e308 scale, say) is never chosen.
    """
    packed = PackedScene(scene, ObjectiveConfig(mode="reprojection_only"))
    with np.errstate(over="ignore", invalid="ignore"):  # such errors are skipped below
        rep, _, _ = _evaluate_theta(packed)
    usable = np.isfinite(rep) & packed.confidences.any(axis=1)
    if not usable.any():
        raise SchemaError("no person has a confident joint and a finite reprojection error "
                          "to anchor the plane at")
    return int(np.argmin(np.where(usable, rep, np.inf)))


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
