"""Model-based grasp scoring on top-down depth images.

The gripper projects to three rectangles in the image plane: two finger
footprints placed outside the keypoints along the grasp axis and the
interior area spanning between them.  Three scores, each in [0, 1], judge a
grasp against a depth image (millimeters, larger = farther from the
camera):

    collision  s_c = mean over finger pixels of H(d(p) - d(p_c))
    occupancy  s_o = mean over interior pixels of H(d_S(p_c) - d(p))
    height     s_h = |d(p_c) - d_S(p_c)| / |d_S(p_c)|, clamped to [0, 1]

with p_c the grasp center, d_S the supporting-surface depth map and H the
strict Heaviside step (H(0) = 0).  The total is the plain sum s_c+s_o+s_h.
Each comparison is written once (``_collision``, ``_occupancy``); the scorers read
region depths at given ``regions`` index sets, else by mask from one rasterization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .bundle import _float32, _read_planes, write_gktb
from .geometry import _finite_number, _rect_frame, _shown


class GripperCapacityError(ValueError):
    """Grasp opening exceeds the gripper's maximal open width."""


class DegenerateRegionError(ValueError):
    """A gripper region rasterized to zero pixels after clipping."""


@dataclass
class DepthImage:
    """Depth grid plus the supporting-surface depth map, both millimeters."""

    depth: np.ndarray
    surface: np.ndarray

    def __post_init__(self):
        # an overflow to inf fails the finite check below
        self.depth, self.surface = _float32(self.depth), _float32(self.surface)
        if self.depth.shape != self.surface.shape:
            raise ValueError(
                f"depth {self.depth.shape} and surface {self.surface.shape} shapes differ"
            )
        if self.depth.ndim != 2:
            raise ValueError(f"depth image must be 2-D, got ndim={self.depth.ndim}")
        # min/max also fail on NaN; an empty image fails on its size
        for a in (self.depth, self.surface):
            if not (a.size and 0 < a.min() and a.max() < math.inf):
                raise ValueError("depths must be finite, strictly positive millimeters")

    @classmethod
    def flat_surface(cls, depth, surface_mm):
        """A depth image over a constant surface at ``surface_mm``, a finite
        real number > 0 (else ValueError).

        The surface plane is shared and read-only: images of one shape and
        level hold the same array, so copy it to change it.
        """
        if not (_finite_number(surface_mm) and surface_mm > 0):
            raise ValueError(f"surface level must be finite, strictly positive, got {_shown(surface_mm)}")
        return cls(depth, _flat_plane(np.shape(depth), float(surface_mm)))

    @property
    def shape(self):
        return self.depth.shape


@functools.lru_cache(maxsize=1)
def _flat_plane(shape, surface_mm):
    """The read-only constant plane of ``flat_surface``, built once per
    shape and level (a bin-picking trial renders the same one each attempt)."""
    plane = np.full(shape, _float32(surface_mm))
    plane.flags.writeable = False
    return plane


@dataclass(frozen=True)
class GripperModel2D:
    """Projected parallel-jaw gripper.

    finger_length_mm extends along the closing axis beyond each keypoint,
    finger_thickness_mm across it; max_open_mm caps the grasp opening;
    pixels_per_mm scales physical millimeters to image pixels.
    """

    finger_thickness_mm: float = 17.0
    max_open_mm: float = 200.0
    finger_length_mm: float = 40.0
    pixels_per_mm: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (_finite_number(value) and value > 0):
                raise ValueError(f"{f.name} must be a finite positive number, got {_shown(value)}")


@dataclass(frozen=True)
class GraspScore:
    """Per-grasp quality terms; ``total`` is their exact sum, or -1.0 for
    grasps whose regions degenerated (components are NaN then)."""

    collision: float
    occupancy: float
    height: float
    total: float

    @classmethod
    def compute(cls, collision, occupancy, height):
        return cls(collision, occupancy, height, collision + occupancy + height)

    @classmethod
    def failed(cls):
        return cls(math.nan, math.nan, math.nan, -1.0)

    @property
    def valid(self):
        return self.total >= 0.0

    def to_dict(self):
        return {name: None if math.isnan(v) else float(v) for name, v in vars(self).items()}


def _center_pixel(g, shape):
    h, w = shape
    row = min(max(int(round(g.y)), 0), h - 1)
    col = min(max(int(round(g.x)), 0), w - 1)
    return row, col


def _gripper_masks(g, model, shape):
    """Rasterize the gripper once: ``(window, finger, interior)``.

    ``window`` is a pair of slices into the image and ``finger`` /
    ``interior`` are boolean masks of the window's shape.  A pixel belongs
    to a region by the center-in-rectangle test in the grasp frame of
    :func:`geometry._rect_frame` (u along the closing axis, v across it).
    """
    h, w = shape
    if not (0 <= g.x < w and 0 <= g.y < h):
        raise ValueError(f"grasp center ({g.x:.1f}, {g.y:.1f}) outside {w}x{h} image")
    ppmm = model.pixels_per_mm
    if g.w / ppmm > model.max_open_mm:
        raise GripperCapacityError(
            f"grasp opening {g.w / ppmm:.1f} mm exceeds max open {model.max_open_mm} mm"
        )
    half_w = g.w / 2.0
    reach = half_w + model.finger_length_mm * ppmm
    half_t = model.finger_thickness_mm * ppmm / 2.0
    window, u, v = _rect_frame((g.x, g.y), g.theta, reach, half_t, shape)
    across = v <= half_t
    # |u| folds the two finger bands into one test; IEEE negation is exact
    finger = across & (u >= half_w) & (u <= reach)
    interior = across & (u < half_w)
    return window, finger, interior


def gripper_regions(g, model, shape):
    """Finger and interior pixel index sets, ``((finger_rows, finger_cols),
    (interior_rows, interior_cols))``, clipped to the image, each in
    row-major order; disjoint, as the masks of ``_gripper_masks`` are."""
    (rows, cols), finger, interior = _gripper_masks(g, model, shape)
    fr, fc = np.nonzero(finger)
    ir, ic = np.nonzero(interior)
    return (fr + rows.start, fc + cols.start), (ir + rows.start, ic + cols.start)


def _fraction(hits, region):
    """Exact share of ``hits``; a region of zero pixels raises DegenerateRegionError."""
    if hits.size == 0:
        raise DegenerateRegionError(f"{region} region clipped to zero pixels")
    return float(np.count_nonzero(hits) / hits.size)


def _region_depths(g, depth_image, model, regions):
    """Finger and interior depths: at ``regions`` if given, else by mask."""
    if regions is None:
        window, finger, interior = _gripper_masks(g, model, depth_image.shape)
        return depth_image.depth[window][finger], depth_image.depth[window][interior]
    (fr, fc), (ir, ic) = regions
    return depth_image.depth[fr, fc], depth_image.depth[ir, ic]


def _collision(finger_depths, depth_image, pc):
    return _fraction(finger_depths > depth_image.depth[pc], "finger")


def _occupancy(interior_depths, depth_image, pc):
    return _fraction(interior_depths < depth_image.surface[pc], "interior")


def collision_score(g, depth_image, model, regions=None):
    """Fraction of finger pixels strictly deeper than the grasp center, at
    the ``regions`` index sets if given, else by mask from one rasterization."""
    finger_depths, _ = _region_depths(g, depth_image, model, regions)
    return _collision(finger_depths, depth_image, _center_pixel(g, depth_image.shape))


def occupancy_score(g, depth_image, model, regions=None):
    """Fraction of interior pixels strictly above the surface at the center;
    ``regions`` are read as in ``collision_score``."""
    _, interior_depths = _region_depths(g, depth_image, model, regions)
    return _occupancy(interior_depths, depth_image, _center_pixel(g, depth_image.shape))


def height_score(g, depth_image):
    """Normalized elevation of the center point off the surface, in [0, 1]."""
    pc = _center_pixel(g, depth_image.shape)
    d_surface = float(depth_image.surface[pc])
    if d_surface <= 0:
        raise ValueError(f"surface depth at center must be positive, got {d_surface}")
    raw = abs(float(depth_image.depth[pc]) - d_surface) / abs(d_surface)
    return min(1.0, max(0.0, raw))


def score_grasp(g, depth_image, model):
    """All three scores for one grasp, by mask from one rasterization through the
    helpers of the two scorers; raises on capacity/degenerate cases, finger first."""
    finger_depths, interior_depths = _region_depths(g, depth_image, model, None)
    pc = _center_pixel(g, depth_image.shape)
    return GraspScore.compute(
        _collision(finger_depths, depth_image, pc),
        _occupancy(interior_depths, depth_image, pc),
        height_score(g, depth_image),
    )


def score_grasps(grasps, depth_image, model):
    """Score a ranked grasp list and re-rank by total (stable on ties).

    Grasps whose regions cannot be scored are demoted to total -1 instead
    of aborting the batch.
    """
    grasps = list(grasps)
    if not grasps:
        raise ValueError("empty grasp list")
    scored = []
    for g in grasps:
        try:
            scored.append((g, score_grasp(g, depth_image, model)))
        except ValueError:  # GripperCapacityError and DegenerateRegionError included
            scored.append((g, GraspScore.failed()))
    scored.sort(key=lambda pair: -pair[1].total)
    return scored


def write_depth_gktb(depth_image, dest, include_surface=True):
    """Store a depth image as a GKTB file with plane name "depth".

    The surface map travels as an optional second plane "surface"; readers
    without it fall back to a constant surface.
    """
    planes = [("depth", depth_image.depth[None])]
    if include_surface:
        planes.append(("surface", depth_image.surface[None]))
    return write_gktb(dest, planes, num_classes=0, downsample_ratio=1)


def read_depth_gktb(src, surface_mm=None):
    """Load a depth image from a GKTB file.

    Reads a "depth" plane and an optional "surface" plane, each of count 1
    (else HeaderError or DimensionError).  The surface comes from its plane
    if present, else from ``surface_mm``, else from the deepest depth pixel.
    """
    _, by_name = _read_planes(src, {"depth": 1, "surface": 1}, ("depth",))
    depth = by_name["depth"][0]
    if "surface" in by_name:
        return DepthImage(depth, by_name["surface"][0])
    return DepthImage.flat_surface(depth, surface_mm if surface_mm is not None else float(depth.max()))


def select_dynamic(previous, candidates, tau_close=30.0):
    """Track a moving target: pick the candidate closest to the previous
    grasp center if that distance is below tau_close, else keep the
    previous grasp (the object is presumed occluded).  ``tau_close`` must be
    a finite real number >= 0."""
    if not (_finite_number(tau_close) and tau_close >= 0):
        raise ValueError(f"tau_close must be a finite number >= 0, got {_shown(tau_close)}")

    def distance(cand):
        return math.hypot(cand.x - previous.x, cand.y - previous.y)

    best = min(candidates, key=distance, default=None)
    if best is not None and distance(best) < tau_close:
        return best
    return previous
