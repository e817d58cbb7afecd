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

The gripper arithmetic runs on Python floats, so a score depends only on
values, never on the numeric types of the grasp's and the model's fields.
``score_grasps`` scores each grasp once per change of its window.  It keeps
one memo, of its last call: for each grasp scored there, the model's four
sizes, the image shape and the x, y, theta and w it was scored at, its
rasterization window, a byte copy of the depth and surface values in that
window and the score.  A grasp reuses that score only when all of these
values and both windows' dtypes and bytes are unchanged; anything else, and
every failed score, is scored afresh.  A score reads nothing else (the
window holds the center pixel), so the result equals scoring every grasp
afresh.  The memo holds window copies of one call, never an image; a
bin-picking trial, whose attempts change the depth only under the removed
block, rasterizes each grasp once instead of once per attempt.

``DepthImage`` checks both planes' values on every construction.  A plane
with all strides 0, such as ``flat_surface``'s, holds one value in memory,
so that one value is checked; a bin-picking attempt thus scans only its
fresh depth plane.  Every error, and the order of the checks, are those of
a full check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bundle import _float32, _read_planes, write_gktb
from .geometry import _finite_number, _rect_frame, _shown


class GripperCapacityError(ValueError):
    """Grasp opening exceeds the gripper's maximal open width."""


class DegenerateRegionError(ValueError):
    """A gripper region rasterized to zero pixels after clipping."""


def _require_surface_level(surface_mm):
    """Raise ValueError unless ``surface_mm`` is a finite real number > 0."""
    if not (_finite_number(surface_mm) and surface_mm > 0):
        raise ValueError(f"surface level must be finite, strictly positive, got {_shown(surface_mm)}")


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
        # min/max also fail on NaN; an empty image fails on its size; a plane
        # with all strides 0 holds one value at every pixel, so that value is checked
        for a in (self.depth, self.surface):
            if not (a.size and (0 < a[0, 0] < math.inf if not any(a.strides)
                                else 0 < a.min() and a.max() < math.inf)):
                raise ValueError("depths must be finite, strictly positive millimeters")

    @classmethod
    def flat_surface(cls, depth, surface_mm):
        """A depth image over a constant surface at ``surface_mm``, a finite
        real number > 0 (else ValueError).

        The surface plane is read-only: all its strides are 0, over one
        float32 held in ``bytes``, so copy it to change it.
        """
        _require_surface_level(surface_mm)
        level = _float32(float(surface_mm)).tobytes()
        return cls(depth, np.ndarray(np.shape(depth), np.float32, level, strides=(0,) * np.ndim(depth)))

    @property
    def shape(self):
        return self.depth.shape


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
    # Python floats from here on: float32 fields would round the arithmetic apart
    x, y, theta, gw, ppmm = float(g.x), float(g.y), float(g.theta), float(g.w), float(model.pixels_per_mm)
    if gw / ppmm > float(model.max_open_mm):
        raise GripperCapacityError(
            f"grasp opening {gw / ppmm:.1f} mm exceeds max open {model.max_open_mm} mm"
        )
    half_w = gw / 2.0
    reach = half_w + float(model.finger_length_mm) * ppmm
    half_t = float(model.finger_thickness_mm) * ppmm / 2.0
    window, u, v = _rect_frame((x, y), theta, reach, half_t, shape)
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


def _windowed_score(g, depth_image, model):
    """``(window, score)``: the scores of ``score_grasp`` and the window of
    the one rasterization they read, which holds the center pixel too."""
    window, finger, interior = _gripper_masks(g, model, depth_image.shape)
    depths = depth_image.depth[window]
    pc = _center_pixel(g, depth_image.shape)
    return window, GraspScore.compute(
        _collision(depths[finger], depth_image, pc),
        _occupancy(depths[interior], depth_image, pc),
        height_score(g, depth_image),
    )


def score_grasp(g, depth_image, model):
    """All three scores for one grasp, by mask from one rasterization through the
    helpers of the two scorers; raises on capacity/degenerate cases, finger first."""
    return _windowed_score(g, depth_image, model)[1]


def _window_values(depth_image, window):
    """The depth and surface values a score reads, as the dtypes and bytes
    of the two windows: equal bytes of equal dtypes are equal values."""
    depth, surface = depth_image.depth[window], depth_image.surface[window]
    return depth.dtype, surface.dtype, depth.tobytes(), surface.tobytes()


# The memo of the last score_grasps call, {((model sizes, image shape), x,
# y, theta, w): (window, _window_values, score)}.  Each call replaces it
# whole and never changes it in place, so calls from several threads stay
# exact.
_last_call = {}


def score_grasps(grasps, depth_image, model):
    """Score a ranked grasp list and re-rank by total (stable on ties).

    Grasps whose regions cannot be scored are demoted to total -1 instead
    of aborting the batch.  A grasp keeps its score from the last call when
    all that the score reads is unchanged (see the module docstring), so
    the result equals scoring every grasp afresh.
    """
    global _last_call
    grasps = list(grasps)
    if not grasps:
        raise ValueError("empty grasp list")
    call = (model.finger_thickness_mm, model.max_open_mm, model.finger_length_mm, model.pixels_per_mm,
            depth_image.shape)
    last = _last_call
    kept = {}
    scored = []
    for g in grasps:
        key = (call, g.x, g.y, g.theta, g.w)
        entry = kept.get(key) or last.get(key)
        if entry is None or _window_values(depth_image, entry[0]) != entry[1]:
            try:
                window, score = _windowed_score(g, depth_image, model)
            except ValueError:  # GripperCapacityError and DegenerateRegionError included
                scored.append((g, GraspScore.failed()))
                continue
            entry = (window, _window_values(depth_image, window), score)
        kept[key] = entry
        scored.append((g, entry[2]))
    _last_call = kept
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
