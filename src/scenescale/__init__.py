"""Joint translation/scale refinement for multi-person monocular 3D scenes.

Single-person 3D estimators leave each person's true size and distance
coupled: a k-times larger person placed k times deeper projects to the
same pixels.  This package resolves that ambiguity jointly over a scene
by minimizing 2D reprojection error together with a feet-on-ground
constraint against a plane recovered from a depth map.
"""

from .errors import (
    InsufficientGroundError,
    LowConsensusError,
    MissingPlaneError,
    NonFiniteLossError,
    PlacementError,
    SceneScaleError,
    SchemaError,
)
from .geometry import CameraModel, WeakPerspectiveCam
from .metrics import MetricsReport, evaluate_scenes
from .objective import LossBreakdown, ObjectiveConfig, loss_and_gradients
from .optimizer import (
    OptimConfig,
    OptimReport,
    lift_translations,
    optimize,
    optimize_baseline,
)
from .planefit import (
    DepthObservation,
    RansacConfig,
    anchor_plane,
    ransac_plane,
    unproject_ground,
)
from .sceneio import (
    load_depth_observation,
    load_scene,
    save_depth_observation,
    save_scene,
)
from .scene import GroundPlane, Person, Scene
from .synth import SynthConfig, generate_scene

__version__ = "0.1.0"

__all__ = [
    "CameraModel",
    "DepthObservation",
    "GroundPlane",
    "InsufficientGroundError",
    "LossBreakdown",
    "LowConsensusError",
    "MetricsReport",
    "MissingPlaneError",
    "NonFiniteLossError",
    "ObjectiveConfig",
    "OptimConfig",
    "OptimReport",
    "Person",
    "PlacementError",
    "RansacConfig",
    "Scene",
    "SceneScaleError",
    "SchemaError",
    "SynthConfig",
    "WeakPerspectiveCam",
    "anchor_plane",
    "evaluate_scenes",
    "generate_scene",
    "lift_translations",
    "load_depth_observation",
    "load_scene",
    "loss_and_gradients",
    "optimize",
    "optimize_baseline",
    "ransac_plane",
    "save_depth_observation",
    "save_scene",
    "unproject_ground",
]
