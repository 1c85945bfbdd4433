"""ADAM refinement of per-person translation and scale.

The parameter vector is [t^1, ..., t^N, s^1, ..., s^N] (flat, 4N entries).
Plain ADAM with bias correction, fixed iteration count, no line search.
Scales are clamped to >= scale_min after every step.  Everything is pure
numpy on deterministic inputs, so identical runs give bitwise-identical
traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteLossError, SchemaError
from .geometry import weak_to_perspective
from .objective import LossBreakdown, ObjectiveConfig, _evaluate_theta, _pack_scene
from .scene import Scene


@dataclass
class OptimConfig:
    learning_rate: float = 1e-2
    iterations: int = 600
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    freeze_z: bool = False
    scale_min: float = 0.1
    # Optional early stop: halt when the relative drop of the total loss
    # between consecutive iterations falls below this. None = fixed count.
    early_stop_rel: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise SchemaError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.iterations < 1:
            raise SchemaError(f"iterations must be >= 1, got {self.iterations}")
        for name in ("adam_beta1", "adam_beta2"):
            b = getattr(self, name)
            if not 0 <= b < 1:
                raise SchemaError(f"{name} must be in [0, 1), got {b}")
        if not (math.isfinite(self.scale_min) and self.scale_min > 0):
            raise SchemaError(f"scale_min must be finite and > 0, got {self.scale_min}")


@dataclass
class OptimReport:
    loss_trace: list[LossBreakdown]     # entry i = loss before step i
    final_loss: LossBreakdown
    final_scene: Scene
    converged_iteration: int            # iterations run (< cfg.iterations on early stop)
    scale_trace: np.ndarray             # (iterations+1, N); row 0 = initial scales


def initialize(scene: Scene) -> Scene:
    """Reset to the upstream starting point: s = 1, t from the estimator.

    Persons carrying a weak-perspective camera get their translation lifted
    from it; persons with an explicit translation keep it.
    """
    return lift_translations(scene, reset=True)


def lift_translations(scene: Scene, reset: bool) -> Scene:
    """Copy of the scene with translations lifted from weak-perspective cameras.

    reset=False lifts only missing translations and keeps every stored t and
    s, so a scene file that was already optimized continues from its stored
    state.  reset=True is :func:`initialize`.
    """
    out = scene.copy()
    for i, person in enumerate(out.persons):
        if person.weak_cam is not None and (reset or person.translation is None):
            person.translation = weak_to_perspective(person.weak_cam, out.camera)
        elif person.translation is None:
            raise SchemaError(f"person {i} has neither a translation nor a weak-perspective camera")
        if reset:
            person.scale = 1.0
    return out


def optimize(scene: Scene, cfg: OptimConfig | None = None) -> OptimReport:
    """Jointly refine all (t, s) by ADAM on the configured objective."""
    if cfg is None:
        cfg = OptimConfig()
    return _run_adam(scene.copy(), cfg)


def optimize_baseline(
    scene: Scene, per_person_depth: list[float], cfg: OptimConfig | None = None
) -> OptimReport:
    """Depth-pinned baseline: fix each z to a measured depth, fit x, y, s.

    Only the reprojection term drives the update; z never moves.
    """
    if cfg is None:
        cfg = OptimConfig()
    work = scene.copy()
    if len(per_person_depth) != len(work.persons):
        raise SchemaError(
            f"got {len(per_person_depth)} depths for {len(work.persons)} persons"
        )
    for i, (person, depth) in enumerate(zip(work.persons, per_person_depth)):
        depth = float(depth)
        if depth <= 0:
            raise SchemaError(f"depth for person {i} must be > 0, got {depth}")
        if person.translation is None:
            raise SchemaError(f"person {i} has no translation (run initialize first)")
        person.translation[2] = depth
    cfg = replace(
        cfg,
        freeze_z=True,
        objective=replace(cfg.objective, mode="reprojection_only"),
    )
    return _run_adam(work, cfg)


def _run_adam(work: Scene, cfg: OptimConfig) -> OptimReport:
    """ADAM on theta alone; the persons of work get the result once, at the end."""
    obj = cfg.objective
    packed, theta = _pack_scene(work, obj)
    n = len(work.persons)
    update = np.ones(4 * n, dtype=bool)
    if cfg.freeze_z:
        update[2 : 3 * n : 3] = False

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trace: list[LossBreakdown] = []
    scale_trace = np.empty((cfg.iterations + 1, n))
    scale_trace[0] = theta[3 * n :]
    steps = 0

    for it in range(1, cfg.iterations + 1):
        rep, plane, g = _evaluate_theta(packed, theta, obj)
        breakdown = LossBreakdown.from_terms(rep, plane, obj.lam)
        if not np.isfinite(breakdown.total):
            raise NonFiniteLossError(
                f"non-finite loss at iteration {it - 1}: "
                f"reprojection={breakdown.reprojection}, plane={breakdown.plane}"
            )
        if (
            cfg.early_stop_rel is not None
            and trace
            and trace[-1].total - breakdown.total
            <= cfg.early_stop_rel * max(1.0, abs(trace[-1].total))
        ):
            break
        trace.append(breakdown)

        g[~update] = 0.0
        m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
        v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
        m_hat = m / (1 - cfg.adam_beta1**it)
        v_hat = v / (1 - cfg.adam_beta2**it)
        theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        theta[3 * n :] = np.maximum(theta[3 * n :], cfg.scale_min)
        steps = it
        scale_trace[it] = theta[3 * n :]

    for i, person in enumerate(work.persons):
        person.translation = theta[3 * i : 3 * i + 3].copy()
        person.scale = float(theta[3 * n + i])
    rep, plane, _ = _evaluate_theta(packed, theta, obj)
    return OptimReport(
        loss_trace=trace,
        final_loss=LossBreakdown.from_terms(rep, plane, obj.lam),
        final_scene=work,
        converged_iteration=steps,
        scale_trace=scale_trace[: steps + 1],
    )
