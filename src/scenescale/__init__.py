"""Joint translation/scale refinement for multi-person monocular 3D scenes.

Single-person 3D estimators leave each person's true size and distance
coupled: a k-times larger person placed k times deeper projects to the
same pixels.  This package resolves that ambiguity jointly over a scene
by minimizing 2D reprojection error together with a feet-on-ground
constraint against a plane recovered from a depth map.
"""

from .errors import (
    BehindCameraError,
    InsufficientGroundError,
    InvalidCameraError,
    LowConsensusError,
    MissingPlaneError,
    NonFiniteLossError,
    PlacementError,
    SceneScaleError,
    SchemaError,
)
from .geometry import (
    CameraModel,
    WeakPerspectiveCam,
    project,
    weak_to_perspective,
)
from .metrics import (
    MetricsReport,
    evaluate_scenes,
    pair_sum_discrepancy,
)
from .objective import (
    LossBreakdown,
    ObjectiveConfig,
    loss_and_gradients,
)
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
    fit_rms,
    ransac_plane,
    select_reference_person,
    unproject_ground,
)
from .sceneio import (
    JOINT_CONVENTIONS,
    dumps_canonical,
    load_depth_observation,
    load_scene,
    save_depth_observation,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from .scene import (
    ANKLE_LEFT,
    ANKLE_RIGHT,
    FOOT_CHAIN,
    HEAD,
    GroundPlane,
    Person,
    Scene,
    person_height,
    posed_ankles,
    posed_joints,
)
from .synth import SynthConfig, generate_scene, joint_template

__version__ = "0.1.0"

__all__ = [
    "ANKLE_LEFT",
    "ANKLE_RIGHT",
    "BehindCameraError",
    "CameraModel",
    "DepthObservation",
    "FOOT_CHAIN",
    "GroundPlane",
    "HEAD",
    "InsufficientGroundError",
    "InvalidCameraError",
    "JOINT_CONVENTIONS",
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
    "dumps_canonical",
    "evaluate_scenes",
    "fit_rms",
    "generate_scene",
    "joint_template",
    "lift_translations",
    "load_depth_observation",
    "load_scene",
    "loss_and_gradients",
    "optimize",
    "optimize_baseline",
    "pair_sum_discrepancy",
    "person_height",
    "posed_ankles",
    "posed_joints",
    "project",
    "ransac_plane",
    "save_depth_observation",
    "save_scene",
    "scene_from_dict",
    "scene_to_dict",
    "select_reference_person",
    "unproject_ground",
    "weak_to_perspective",
]
