"""Pairwise scene-arrangement metrics.

Three scores over (estimated, ground-truth) scene lists, matched frame by
frame with person correspondence given by list order:

  d_ord:  % of person pairs whose camera-depth ordering (translation z)
          is estimated correctly, pooled over all frames;
  d_norm: mean per-frame discrepancy of max-normalized pairwise distance
          sums (lower is better);
  h_ord:  % of person pairs whose taller/shorter relation is correct.

Frames with fewer than two persons carry no pairs and are excluded.
Ground-truth ties (difference below tie_epsilon) count as correct only if
the estimate also ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import SchemaError
from .scene import Scene, person_height

TIE_EPSILON = 1e-6


@dataclass
class FrameMetrics:
    depth_correct: int
    height_correct: int
    pairs: int
    d_norm: float


@dataclass
class MetricsReport:
    d_ord: float             # percentage, pooled over pairs
    d_norm: float            # mean over frames
    h_ord: float             # percentage
    per_frame: list[FrameMetrics] = field(default_factory=list)
    frames_evaluated: int = 0
    pairs_evaluated: int = 0


def _check_frames(est: list[Scene], gt: list[Scene]) -> None:
    if len(est) != len(gt):
        raise SchemaError(f"{len(est)} estimated frames vs {len(gt)} ground-truth frames")
    for f, (e, g) in enumerate(zip(est, gt)):
        if len(e.persons) != len(g.persons):
            raise SchemaError(
                f"frame {f}: {len(e.persons)} estimated persons vs {len(g.persons)} ground truth"
            )


def _order_counts(
    est_vals: list[np.ndarray], gt_vals: list[np.ndarray], tie_epsilon: float
) -> tuple[int, int]:
    if not (math.isfinite(tie_epsilon) and tie_epsilon >= 0):
        raise SchemaError(f"tie_epsilon must be finite and >= 0, got {tie_epsilon}")
    correct = total = 0
    for ev, gv in zip(est_vals, gt_vals):
        if len(gv) < 2:
            continue
        for i, j in combinations(range(len(gv)), 2):
            gd = gv[i] - gv[j]
            ed = ev[i] - ev[j]
            if abs(gd) <= tie_epsilon:
                correct += abs(ed) < tie_epsilon
            else:
                correct += np.sign(ed) == np.sign(gd)
            total += 1
    return correct, total


def _order_accuracy(
    est_vals: list[np.ndarray], gt_vals: list[np.ndarray], tie_epsilon: float
) -> float:
    correct, total = _order_counts(est_vals, gt_vals, tie_epsilon)
    if total == 0:
        return float("nan")
    return 100.0 * correct / total


def _translations_z(scenes: list[Scene]) -> list[np.ndarray]:
    return [np.array([p.translation[2] for p in s.persons]) for s in scenes]


def _heights(scenes: list[Scene]) -> list[np.ndarray]:
    return [np.array([person_height(p) for p in s.persons]) for s in scenes]


def depth_order_accuracy(
    est: list[Scene], gt: list[Scene], tie_epsilon: float = TIE_EPSILON
) -> float:
    """Pooled % of correctly ordered depth pairs; nan if no frame has a pair."""
    _check_frames(est, gt)
    return _order_accuracy(_translations_z(est), _translations_z(gt), tie_epsilon)


def height_order_accuracy(
    est: list[Scene], gt: list[Scene], tie_epsilon: float = TIE_EPSILON
) -> float:
    """Pooled % of correctly ordered height pairs; nan if no frame has a pair."""
    _check_frames(est, gt)
    return _order_accuracy(_heights(est), _heights(gt), tie_epsilon)


def pair_sum_discrepancy(est_dists: np.ndarray, gt_dists: np.ndarray) -> float:
    """|sum/max of estimated pairwise distances - same for ground truth|.

    Each input lists a frame's pairwise inter-person distances (each pair
    once).  A frame whose largest distance is zero contributes a zero
    ratio (all persons coincide).
    """
    est_dists = np.asarray(est_dists, dtype=float)
    gt_dists = np.asarray(gt_dists, dtype=float)
    if est_dists.shape != gt_dists.shape or est_dists.size == 0:
        raise SchemaError("distance lists must be equal-length and nonempty")

    def ratio(d: np.ndarray) -> float:
        top = float(np.max(d))
        return float(np.sum(d)) / top if top > 0 else 0.0

    return abs(ratio(est_dists) - ratio(gt_dists))


def _pairwise_dists(scene: Scene) -> np.ndarray:
    t = np.stack([p.translation for p in scene.persons])
    i, j = np.triu_indices(len(scene.persons), k=1)
    return np.linalg.norm(t[i] - t[j], axis=1)


def normalized_distance_error(est: list[Scene], gt: list[Scene]) -> float:
    """Mean over frames of pair_sum_discrepancy on translation distances.

    Normalizing by each frame's own maximum distance makes the score
    invariant to a global scaling of that frame's estimated layout.
    Returns nan if no frame has at least two persons.
    """
    _check_frames(est, gt)
    vals = [
        pair_sum_discrepancy(_pairwise_dists(e), _pairwise_dists(g))
        for e, g in zip(est, gt)
        if len(g.persons) >= 2
    ]
    if not vals:
        return float("nan")
    return float(np.mean(vals))


def evaluate_scenes(
    est: list[Scene], gt: list[Scene], tie_epsilon: float = TIE_EPSILON
) -> MetricsReport:
    """All three metrics plus per-frame detail in one report."""
    _check_frames(est, gt)
    est_z, gt_z = _translations_z(est), _translations_z(gt)
    est_h, gt_h = _heights(est), _heights(gt)

    per_frame = []
    pairs_total = 0
    for f in range(len(gt)):
        n = len(gt[f].persons)
        if n < 2:
            continue
        dc, pairs = _order_counts([est_z[f]], [gt_z[f]], tie_epsilon)
        hc, _ = _order_counts([est_h[f]], [gt_h[f]], tie_epsilon)
        dn = pair_sum_discrepancy(_pairwise_dists(est[f]), _pairwise_dists(gt[f]))
        per_frame.append(FrameMetrics(int(dc), int(hc), pairs, dn))
        pairs_total += pairs

    return MetricsReport(
        d_ord=_order_accuracy(est_z, gt_z, tie_epsilon),
        d_norm=normalized_distance_error(est, gt),
        h_ord=_order_accuracy(est_h, gt_h, tie_epsilon),
        per_frame=per_frame,
        frames_evaluated=len(per_frame),
        pairs_evaluated=pairs_total,
    )
