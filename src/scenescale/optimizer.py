"""ADAM refinement of per-person translation and scale.

The parameter vector is [t^1, ..., t^N, s^1, ..., s^N] (flat, 4N entries).
Plain ADAM with bias correction, fixed iteration count, no line search.
Scales are clamped to >= SCALE_MIN after every step.  The scene is packed
once; each iteration then updates theta, the two moments and the objective's
buffers in place, in a fixed operation order, so identical runs give
bitwise-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteLossError, SchemaError, check_int, positive_number
from .objective import LossBreakdown, ObjectiveConfig, PackedScene, _evaluate_theta, _loss_sums
from .scene import Scene


# ADAM's moment decay rates and denominator guard: the published defaults
# (Kingma & Ba, ICLR 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# Floor on every scale after each step, so no person collapses to a point.
SCALE_MIN = 0.1


@dataclass
class OptimConfig:
    learning_rate: float = 1e-2
    iterations: int = 600
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)

    def __post_init__(self):
        self.learning_rate = positive_number(self.learning_rate, "learning_rate")
        check_int(self.iterations, "iterations", 1)


@dataclass
class OptimReport:
    # (iterations+1, 3): reprojection, plane, total; row i = loss before
    # step i, the last row = final_loss
    loss_trace: np.ndarray
    final_loss: LossBreakdown
    final_scene: Scene
    converged_iteration: int            # iterations run, always cfg.iterations


def lift_translations(scene: Scene) -> Scene:
    """Copy of the scene reset to the upstream starting point: s = 1, and t
    lifted again from the weak-perspective camera where there is one (an
    explicit translation without a camera is kept).
    """
    out = scene.copy()
    for person in out.persons:
        person.scale = 1.0
        if person.weak_cam is not None:
            person.translation = None  # the Scene lifts it
    return Scene(out.persons, out.camera, out.plane)


def optimize(scene: Scene, cfg: OptimConfig | None = None) -> OptimReport:
    """Jointly refine all (t, s) by ADAM on the configured objective."""
    cfg = cfg or OptimConfig()
    return _run_adam(scene.copy(), cfg)


def optimize_baseline(
    scene: Scene, per_person_depth: list[float], cfg: OptimConfig | None = None
) -> OptimReport:
    """Depth-pinned baseline: fix each z to a measured depth, fit x, y, s.

    Only the reprojection term drives the update; z never moves.
    """
    cfg = cfg or OptimConfig()
    work = scene.copy()
    if len(per_person_depth) != len(work.persons):
        raise SchemaError(
            f"got {len(per_person_depth)} depths for {len(work.persons)} persons"
        )
    for i, (person, depth) in enumerate(zip(work.persons, per_person_depth)):
        depth = positive_number(depth, f"depth for person {i}")
        person.translation[2] = depth
    cfg = replace(cfg, objective=replace(cfg.objective, mode="reprojection_only"))
    return _run_adam(work, cfg, freeze_z=True)


def _run_adam(work: Scene, cfg: OptimConfig, freeze_z: bool = False) -> OptimReport:
    """ADAM on theta alone; the persons of work get the result once, at the end.

    theta, the moments and the step are updated in place, in a fixed
    operation order, so equal inputs give equal bits.  freeze_z keeps every
    person's depth where it starts.
    """
    packed = PackedScene(work, cfg.objective)
    theta = packed.theta
    n = len(work.persons)
    scales = theta[3 * n :]
    b1, b2, lr, eps = _BETA1, _BETA2, cfg.learning_rate, _EPS

    # ADAM's moments m and v as the rows of one array, updated together
    moments, work_rows = np.zeros((2, 2, 4 * n))
    decay, rate = np.array([[b1], [b2]]), np.array([[1 - b1], [1 - b2]])
    bias = np.empty((2, 1))  # this step's bias corrections for m and v
    step, denom = work_rows
    try:
        trace = np.empty((cfg.iterations + 1, 3))
    except (ValueError, MemoryError):  # numpy's size limit, or no memory for it
        raise SchemaError(f"iterations={cfg.iterations}: a loss trace of that many rows "
                          "does not fit in memory") from None

    # huge finite inputs overflow to inf or nan: the finite check on the loss refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iterations + 1):
            rep, plane, g = _evaluate_theta(packed, theta)
            trace[it] = rep_sum, plane_sum, total = _loss_sums(rep, plane, packed.lam)
            if it == cfg.iterations:
                break
            if not math.isfinite(total):
                raise NonFiniteLossError(
                    f"non-finite loss at iteration {it}: "
                    f"reprojection={rep_sum}, plane={plane_sum}"
                )

            if freeze_z:
                g[2 : 3 * n : 3] = 0.0
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            np.multiply(moments, decay, out=moments)
            np.multiply(g, rate, out=work_rows)
            np.multiply(work_rows[1], g, out=work_rows[1])
            moments += work_rows
            # theta -= lr * m_hat / (sqrt(v_hat) + eps)
            bias[:, 0] = 1 - b1 ** (it + 1), 1 - b2 ** (it + 1)
            np.divide(moments, bias, out=work_rows)
            np.multiply(step, lr, out=step)
            np.add(np.sqrt(denom, out=denom), eps, out=denom)
            theta -= np.divide(step, denom, out=step)
            np.maximum(scales, SCALE_MIN, out=scales)

    for i, person in enumerate(work.persons):
        person.translation = theta[3 * i : 3 * i + 3].copy()
        person.scale = float(theta[3 * n + i])
    return OptimReport(
        loss_trace=trace,
        final_loss=LossBreakdown(*trace[-1].tolist()),
        final_scene=work,
        converged_iteration=cfg.iterations,
    )
