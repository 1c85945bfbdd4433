"""Pinhole camera model, projection, and weak-perspective lifting.

Coordinate conventions (OpenCV-style):
  - camera frame: x right, y down, z forward, units in meters;
  - pixels: u right, v down, origin at the top-left corner;
  - a single fixed focal length ``f`` in pixels, square pixels.

A weak-perspective person camera ``[sigma, t_x, t_y]`` is lifted to a full
perspective translation ``[t_x, t_y, f / sigma]``.  Here ``t_x, t_y`` are
camera-frame meters at the lifted depth; upstream estimators that report
crop-normalized translations must be converted to the full image first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BehindCameraError, SchemaError, positive_number, real_array, real_number,
                     whole_number)


@dataclass
class CameraModel:
    """Perspective camera: focal length (px), principal point (px), image size.

    ``principal_point`` defaults to the image center when omitted.  The image
    size must be two whole numbers: 1920.0 is kept as 1920, 1920.5 refused.
    A bad camera raises SchemaError, as every bad input does.
    """

    focal: float = 1000.0
    image_size: tuple[int, int] = (1920, 1080)  # (width, height)
    principal_point: np.ndarray | None = None

    def __post_init__(self):
        self.focal = positive_number(self.focal, "focal")
        try:
            w, h = self.image_size
        except (TypeError, ValueError):
            raise SchemaError(
                f"image_size must be (width, height), got {self.image_size!r}"
            ) from None
        self.image_size = (whole_number(w, "image_size"), whole_number(h, "image_size"))
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise SchemaError(f"image_size must be positive, got {self.image_size}")
        if self.principal_point is None:
            self.principal_point = np.array(
                [self.image_size[0] / 2.0, self.image_size[1] / 2.0]
            )
        else:
            self.principal_point = real_array(self.principal_point, "principal_point", (2,))


@dataclass
class WeakPerspectiveCam:
    """Weak-perspective person camera: uniform scale and normalized translation."""

    sigma: float
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        self.sigma = positive_number(self.sigma, "sigma")
        for name in ("tx", "ty"):
            value = real_number(getattr(self, name), name)
            if not math.isfinite(value):
                raise SchemaError(f"{name} must be finite, got {value}")
            setattr(self, name, value)


def weak_to_perspective(wp: WeakPerspectiveCam, cam: CameraModel) -> np.ndarray:
    """Lift a weak-perspective camera to a perspective translation.

    Returns ``t = [t_x, t_y, d]`` with depth ``d = f / sigma``; the lateral
    components pass through unchanged (camera-frame meters, see module
    docstring).
    """
    return np.array([wp.tx, wp.ty, cam.focal / wp.sigma])


def project(points: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Perspective-project camera-frame points to pixels.

    ``points`` has shape (..., 3); returns (..., 2) with
    ``(f*x/z + c_x, f*y/z + c_y)``.  Raises :class:`BehindCameraError` if any
    z <= 0.  (The optimization objective instead clamps z at
    ``objective.Z_EPSILON``.)
    """
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    if np.any(z <= 0):
        bad = np.nonzero(np.atleast_1d(z) <= 0)[0]
        raise BehindCameraError(f"points behind camera (z <= 0) at indices {bad.tolist()}")
    cx, cy = cam.principal_point
    u = cam.focal * points[..., 0] / z + cx
    v = cam.focal * points[..., 1] / z + cy
    return np.stack([u, v], axis=-1)
