"""Pairwise scene-arrangement metrics.

Three scores over (estimated, ground-truth) scene lists, matched frame by
frame with person correspondence given by list order:

  d_ord:  % of person pairs whose camera-depth ordering (translation z)
          is estimated correctly, pooled over all frames;
  d_norm: mean per-frame discrepancy of max-normalized pairwise distance
          sums (lower is better);
  h_ord:  % of person pairs whose taller/shorter relation is correct.

Frames with fewer than two persons carry no pairs and are excluded.
Ground-truth ties (difference within TIE_EPSILON) count as correct only if
the estimate also ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    frames_skipped: int = 0  # dropped by the caller before scoring (CLI evaluate)


def _check_frames(est: list[Scene], gt: list[Scene]) -> None:
    if len(est) != len(gt):
        raise SchemaError(f"{len(est)} estimated frames vs {len(gt)} ground-truth frames")
    for f, (e, g) in enumerate(zip(est, gt)):
        if len(e.persons) != len(g.persons):
            raise SchemaError(
                f"frame {f}: {len(e.persons)} estimated persons vs {len(g.persons)} ground truth"
            )


def _order_correct(est_vals: np.ndarray, gt_vals: np.ndarray) -> int:
    """Correctly ordered pairs of one frame's values (each pair once)."""
    i, j = np.triu_indices(len(gt_vals), k=1)
    gd = gt_vals[i] - gt_vals[j]
    ed = est_vals[i] - est_vals[j]
    tie = np.abs(gd) <= TIE_EPSILON
    correct = np.where(tie, np.abs(ed) < TIE_EPSILON, np.sign(ed) == np.sign(gd))
    return int(np.count_nonzero(correct))


def _translations_z(scene: Scene) -> np.ndarray:
    return np.array([p.translation[2] for p in scene.persons])


def _heights(scene: Scene) -> np.ndarray:
    return np.array([person_height(p) for p in scene.persons])


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


def evaluate_scenes(est: list[Scene], gt: list[Scene]) -> MetricsReport:
    """All three metrics plus per-frame detail, scoring each frame once.

    A metric with no frame to score (no frame has two persons) is nan.
    """
    _check_frames(est, gt)
    per_frame = []
    for f, (e, g) in enumerate(zip(est, gt)):
        n = len(g.persons)
        if n < 2:
            continue
        # 1e308-sized persons overflow a norm: refused below, not scored as nan
        with np.errstate(over="ignore", invalid="ignore"):
            heights = _heights(e), _heights(g)
            fm = FrameMetrics(
                depth_correct=_order_correct(_translations_z(e), _translations_z(g)),
                height_correct=_order_correct(*heights),
                pairs=n * (n - 1) // 2,
                d_norm=pair_sum_discrepancy(_pairwise_dists(e), _pairwise_dists(g)),
            )
        if not (np.isfinite(heights).all() and np.isfinite(fm.d_norm)):
            raise SchemaError(f"frame {f}: a person's height or the distance between "
                              "two persons is beyond a float")
        per_frame.append(fm)

    pairs = sum(fm.pairs for fm in per_frame)
    nan = float("nan")
    return MetricsReport(
        d_ord=100.0 * sum(fm.depth_correct for fm in per_frame) / pairs if pairs else nan,
        d_norm=float(np.mean([fm.d_norm for fm in per_frame])) if per_frame else nan,
        h_ord=100.0 * sum(fm.height_correct for fm in per_frame) / pairs if pairs else nan,
        per_frame=per_frame,
        frames_evaluated=len(per_frame),
        pairs_evaluated=pairs,
    )
