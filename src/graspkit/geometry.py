"""Grasp representations and rotated-rectangle geometry.

A planar grasp is either a keypoint pair (left-middle / right-middle points
in image coordinates) or the equivalent center form (x, y, theta, w) with an
optional rectangle height used only for evaluation.  Angles are radians in
the gripper-symmetric range (-pi/2, pi/2], pixel frame with y growing
downward, theta measured from the +x axis.

Annotation files are JSON lines, one grasp per record:
``{"x": .., "y": .., "theta_deg": .., "w": .., "h": ..|null}``.
Angles are degrees on disk and radians in memory.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2


class DegenerateGraspError(ValueError):
    """Keypoint pair with coincident points cannot define a grasp."""


def wrap_angle(theta):
    """Fold an angle (radians) into (-pi/2, pi/2] modulo pi.

    Works on scalars and arrays; parallel-jaw symmetry identifies angles
    that differ by pi, and -pi/2 maps to +pi/2 so each grasp has one
    canonical angle.
    """
    if type(theta) is float and math.isfinite(theta):
        # the array path's IEEE operations on one Python float: np.round is
        # half to even, and its zero keeps the sign, so -0.0 folds to +0.0
        q = theta / math.pi
        t = theta - math.copysign(round(q), q) * math.pi
        if t <= -HALF_PI:
            t += math.pi
        elif t > HALF_PI:
            t -= math.pi
        return t
    t = np.asarray(theta, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite angle gives NaN
        t = t - np.round(t / math.pi) * math.pi
    t = np.where(t <= -HALF_PI, t + math.pi, t)
    t = np.where(t > HALF_PI, t - math.pi, t)
    if np.ndim(theta) == 0:
        return float(t)
    return t


def angle_diff(a, b):
    """Wrapped angular distance modulo pi, in [0, pi/2].

    -89 deg and +89 deg are 2 deg apart under gripper symmetry.
    """
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite angle gives NaN
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        d = np.abs(d - np.round(d / math.pi) * math.pi)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(d)
    return d


@dataclass(frozen=True)
class KeypointPair:
    """Left-middle / right-middle grasp keypoints, canonically ordered.

    Canonical order: left.x < right.x, or equal x and left.y < right.y.
    Coincident points are rejected.
    """

    left: tuple
    right: tuple

    def __post_init__(self):
        lx, ly = (float(v) for v in self.left)
        rx, ry = (float(v) for v in self.right)
        object.__setattr__(self, "left", (lx, ly))
        object.__setattr__(self, "right", (rx, ry))
        if (lx, ly) == (rx, ry):
            raise DegenerateGraspError(f"coincident keypoints {self.left}")
        if not ((lx, ly) < (rx, ry)):
            raise ValueError(f"pair not in canonical order: left={self.left}, right={self.right}")

    @classmethod
    def of(cls, p, q):
        """Build a canonical pair from two points in either order."""
        p = (float(p[0]), float(p[1]))
        q = (float(q[0]), float(q[1]))
        return cls(min(p, q), max(p, q))


@dataclass(frozen=True)
class Grasp:
    """Center-form grasp: center (x, y), angle theta in (-pi/2, pi/2],
    jaw opening w in pixels, optional rectangle height h (evaluation only)."""

    x: float
    y: float
    theta: float
    w: float
    h: float | None = None

    def __post_init__(self):
        if not (_finite_number(self.x) and _finite_number(self.y) and _finite_number(self.theta)):
            raise ValueError(
                f"non-finite grasp fields x={_shown(self.x)}, y={_shown(self.y)}, theta={_shown(self.theta)}:"
                " x, y, theta must lie in the float range"
            )
        if not (-HALF_PI < self.theta <= HALF_PI):
            raise ValueError(f"theta {self.theta} outside (-pi/2, pi/2]; wrap it first")
        if not (_finite_number(self.w) and self.w > 0):
            raise ValueError(f"grasp width must be a positive number in the float range, got {_shown(self.w)}")
        if self.h is not None and not (_finite_number(self.h) and self.h > 0):
            raise ValueError(f"grasp height must be a positive number in the float range, got {_shown(self.h)}")


def pair_to_grasp(pair):
    """Convert a keypoint pair to center form.

    Center is the midpoint, w the Euclidean keypoint distance, theta the
    angle of (right - left) from the +x axis folded into (-pi/2, pi/2].
    """
    return _center_form(*pair.left, *pair.right)


def _center_form(lx, ly, rx, ry):
    """:func:`pair_to_grasp` on the points (lx, ly) and (rx, ry), given in
    canonical order, without building a :class:`KeypointPair`."""
    dx, dy = rx - lx, ry - ly
    return Grasp((lx + rx) / 2, (ly + ry) / 2, wrap_angle(math.atan2(dy, dx)), math.hypot(dx, dy))


def grasp_to_pair(g):
    """Inverse of :func:`pair_to_grasp`; result satisfies canonical order."""
    hx = 0.5 * g.w * math.cos(g.theta)
    hy = 0.5 * g.w * math.sin(g.theta)
    return KeypointPair.of((g.x - hx, g.y - hy), (g.x + hx, g.y + hy))


def class_to_angle(c, num_classes):
    """Representative angle of orientation class c: pi*c/|C| - pi/2.

    Works on an integer or an integer array; ``num_classes`` must be an
    integer >= 1 and ``c`` integers (else ValueError), and a class outside
    [0, num_classes) raises IndexError.
    """
    _require_count("num_classes", num_classes)
    if not (_integer(c) or np.asarray(c).dtype.kind in "iu"):
        raise ValueError(f"class indices must be integers, got {_shown(c)}")
    return _class_angle(c, num_classes)


def _class_angle(c, num_classes):
    """:func:`class_to_angle` without its type checks, for the grouper."""
    cls = np.asarray(c)
    if np.any((cls < 0) | (cls >= num_classes)):
        raise IndexError(f"class {c} out of range for {num_classes} classes")
    return math.pi * c / num_classes - HALF_PI


def angle_to_class(theta, num_classes):
    """Nearest orientation class for an angle, wrapping at +-pi/2.

    Any finite angle is first reduced modulo pi into (-pi/2, pi/2].  Exact
    ties between two representatives break to the smaller class index.
    ``num_classes`` must be an integer >= 1.
    """
    _require_count("num_classes", num_classes)
    t = wrap_angle(theta)
    u = (t + HALF_PI) * num_classes / math.pi  # continuous class position in (0, n]
    if u >= num_classes - 0.5:
        return 0
    return max(0, math.ceil(u - 0.5))


def _cell(v, ratio):
    """The encoder's one quantization rule: heatmap cell ``floor(v / R)`` of image
    coordinate ``v`` and fraction ``v / R - floor(v / R)``, which ``(cell + fraction) * R`` inverts."""
    cell = math.floor(q := v / ratio)
    return cell, q - cell


@dataclass(frozen=True)
class OrientedRect:
    """Rectangle with center, width along the grasp axis, height across it,
    rotated by theta."""

    center: tuple
    width: float
    height: float
    theta: float

    def __post_init__(self):
        if not (_finite_number(self.width) and self.width > 0
                and _finite_number(self.height) and self.height > 0):
            raise ValueError(f"degenerate rectangle: width {_shown(self.width)}, height {_shown(self.height)}")

    def corners(self):
        """4x2 array of vertices, counterclockwise (positive shoelace area)."""
        return _corners([self])[0]

    @property
    def area(self):
        return self.width * self.height


def rect_from_grasp(g, height=None):
    """Oriented rectangle of a grasp; height defaults to the grasp's own h."""
    h = height if height is not None else g.h
    if h is None:
        raise ValueError("grasp has no height; pass one explicitly")
    return OrientedRect((g.x, g.y), g.w, h, g.theta)


def _rect_frame(center, theta, half_u, half_v, shape):
    """Scan window of a rotated rectangle and the frame distances in it.

    Returns ``(window, abs_u, abs_v)``.  ``window`` is a pair of slices into
    an image of ``shape``: the rows and columns from the floor to the ceiling
    of the rectangle's bounding box, clipped to the image.  ``abs_u`` and
    ``abs_v`` hold, for each window pixel center, |u| along the axis at
    angle ``theta`` and |v| across it, measured from ``center``; the
    rectangle holds the pixels with ``abs_u <= half_u`` and ``abs_v <= half_v``.
    """
    h, w = shape
    cx, cy = center
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # A pixel left out of the window lies at least 1 px beyond the bounding
    # box, far more than the rounding in u and v.
    ex = abs(cos_t) * half_u + abs(sin_t) * half_v
    ey = abs(sin_t) * half_u + abs(cos_t) * half_v
    # Bounds are clipped to the image before floor/ceil, so an extent that
    # overflowed to inf or NaN covers the image instead of raising, and a
    # rectangle wholly off the image gets an empty window rather than a
    # negative stop that would wrap around.
    r0 = math.floor(min(h, max(0, cy - ey)))
    r1 = min(h, math.ceil(max(-1, min(h, cy + ey))) + 1)
    c0 = math.floor(min(w, max(0, cx - ex)))
    c1 = min(w, math.ceil(max(-1, min(w, cx + ex))) + 1)
    yy = np.arange(r0, r1, dtype=float)[:, None] - cy
    xx = np.arange(c0, c1, dtype=float) - cx
    u = cos_t * xx + sin_t * yy
    v = -sin_t * xx + cos_t * yy
    return (slice(r0, r1), slice(c0, c1)), np.abs(u, out=u), np.abs(v, out=v)


def _corners(rects):
    """(N, 4, 2) array of the rectangles' vertices, each counterclockwise.

    One stacked ``local @ rot.T + center`` matmul: the same BLAS product for
    one rectangle as for many, where an elementwise formula would round the
    multiply-adds differently.
    """
    rows = []
    for r in rects:
        hw, hh = r.width / 2, r.height / 2
        c, s = math.cos(r.theta), math.sin(r.theta)
        rows.append((-hw, -hh, hw, -hh, hw, hh, -hw, hh, c, s, -s, c, *r.center))
    m = np.array(rows, dtype=float)
    return m[:, :8].reshape(-1, 4, 2) @ m[:, 8:12].reshape(-1, 2, 2) + m[:, None, 12:]


def _shoelace(polys):
    """Areas of the (N, n, 2) array ``polys`` of n-gons.

    Each cross-product sum is one BLAS ``ddot`` on a stride-2 coordinate
    column, as ``np.dot`` of one polygon's columns computes it.  ``ddot``
    sums in an order that depends on n, so only polygons of one vertex
    count may share a call; zero-padding would change the digits.
    """
    x = polys[..., 0]
    y = polys[..., 1]
    x_next = np.concatenate((x[:, 1:], x[:, :1]), axis=1)
    y_next = np.concatenate((y[:, 1:], y[:, :1]), axis=1)
    cross = np.matmul(x[:, None, :], y_next[:, :, None]) - np.matmul(y[:, None, :], x_next[:, :, None])
    return 0.5 * np.abs(cross[:, 0, 0])


def _polygon_areas(polys):
    """Shoelace area of each polygon of a list of vertex lists, with one
    :func:`_shoelace` call per vertex count; 0.0 below three vertices."""
    areas = [0.0] * len(polys)
    by_count = {}
    for k, poly in enumerate(polys):
        if len(poly) >= 3:
            by_count.setdefault(len(poly), []).append(k)
    for ks in by_count.values():
        for k, area in zip(ks, _shoelace(np.array([polys[k] for k in ks])).tolist()):
            areas[k] = area
    return areas


def _clip_convex(subject, clip):
    """Sutherland-Hodgman clip of a convex subject polygon by a convex CCW
    clip polygon, on Python floats.  Points exactly on a clip edge count as
    inside."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inputs = output
        output = []
        sx, sy = inputs[-1]
        s_in = ex * (sy - ay) - ey * (sx - ax) >= 0.0
        for px, py in inputs:
            p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
            if p_in != s_in:
                # segment crosses the clip line; solve for the intersection
                dx, dy = px - sx, py - sy
                denom = ex * dy - ey * dx
                # A zero denominator means a segment along the clip line
                # whose ends rounding put on both sides of it.  The inside
                # end is on the line already, and the neighbouring edge's
                # crossing stands in for the outside one.
                if denom:
                    t = (ex * (ay - sy) - ey * (ax - sx)) / denom
                    output.append((sx + t * dx, sy + t * dy))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
    return output


def _rotated_ious(rects, pairs):
    """:func:`rotated_iou` of ``rects[i]`` and ``rects[j]`` for each index
    pair ``(i, j)``, as a list.

    Corners and areas are computed once per rectangle, the clip of each
    pair runs on Python floats, and the intersection areas take one
    shoelace call per vertex count.  Raises ``ValueError`` at the first
    pair, in order, whose areas overflow.
    """
    if not pairs:
        return []
    keys = [(r.center, r.width, r.height, r.theta) for r in rects]
    # canonical order, so the result is exactly symmetric
    ordered = [(j, i) if keys[j] < keys[i] else (i, j) for i, j in pairs]
    # an overflow shows as a non-finite union below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        corners = _corners(rects)
        areas = _shoelace(corners).tolist()
        corners = corners.tolist()
        inters = _polygon_areas([_clip_convex(corners[a], corners[b]) for a, b in ordered])
    ious = []
    for (a, b), inter in zip(ordered, inters):
        union = areas[a] + areas[b] - inter
        if not math.isfinite(union):
            raise ValueError(f"rectangle areas overflow: {areas[a]}, {areas[b]}, intersection {inter}")
        ious.append(0.0 if union <= 0.0 else min(1.0, inter / union))
    return ious


def rotated_iou(a, b):
    """Jaccard index |a n b| / |a u b| of two oriented rectangles.

    Exact convex polygon clipping plus shoelace areas; 1.0 for identical
    rectangles, 0.0 when disjoint.  Arguments are ordered canonically
    before clipping so the result is exactly symmetric.  Raises
    ``ValueError`` when an area overflows the float range.
    """
    return _rotated_ious([a, b], [(0, 1)])[0]


def _integer(value):
    """True for an integer, numpy's included, not a ``bool``, in int64's range
    [-2**63, 2**63): every integer setting sizes, indexes or scales an array."""
    if type(value) is not int:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            return False
        value = int(value)  # comparing a numpy integer with 2**63 is slow
    return -(2**63) <= value < 2**63


def _rng(seed):
    """numpy's default random generator, seeded by an integer from 0 to 2**63 - 1."""
    if not _integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer from 0 to 2**63 - 1, got {_shown(seed)}")
    return np.random.default_rng(seed)


def _require_count(name, value):
    """Raise ValueError unless ``value`` is an integer >= 1 (see :func:`_integer`)."""
    if not _integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {_shown(value)}")


def _finite_number(value):
    """True for a real number, not a ``bool``, with a finite float value."""
    try:
        if type(value) is float or type(value) is int:  # not bool: these skip the slow ABC check
            return math.isfinite(value)
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _shown(value):
    """``repr(value)`` for an error message, except that an integer of more
    than 1024 bits (beyond the float range) shows as "an integer of N bits",
    or "a negative integer of N bits": ``int.__str__`` refuses one of more
    than 4300 digits."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


def _read_records(source):
    """Yield ``(record, Grasp)`` for each line of a JSON-lines annotation
    file (path, text file or binary file).

    Blank lines are skipped.  A line that is not UTF-8, not JSON or not a
    valid record (see :func:`grasp_from_record`) raises ``ValueError``
    naming the line.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source, "rb") as fh:
        data = fh.read()
    if isinstance(data, str):  # a text stream: a lone surrogate fails the UTF-8 rule below
        data = data.encode("utf-8", "surrogatepass")
    # A line ends at \n, \r\n or \r, as bytes.splitlines splits; U+2028,
    # U+2029 and U+0085 are data, which JSON allows raw inside a string.
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid UTF-8: {exc.reason}") from exc
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON or an over-long int
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
        try:
            grasp = grasp_from_record(rec)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        yield rec, grasp


def read_annotations(source):
    """Read grasps from a JSON-lines annotation file (path, text file or binary file).

    File angles are degrees; they are wrapped into (-pi/2, pi/2] on load.
    """
    return [g for _, g in _read_records(source)]


def grasp_from_record(rec):
    """Build a :class:`Grasp` from one annotation record.

    The record must be a JSON object whose ``x``, ``y``, ``theta_deg`` and
    ``w``, and ``h`` unless it is null, are finite numbers, not booleans;
    anything else raises ``ValueError`` naming the field.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"record must be a JSON object, got {type(rec).__name__}")
    for name in ("x", "y", "theta_deg", "w", "h"):
        value = rec.get(name)
        if not (_finite_number(value) or (name == "h" and value is None)):
            raise ValueError(f"field {name!r} must be a finite number, got {_shown(value)}")
    return Grasp(
        x=float(rec["x"]),
        y=float(rec["y"]),
        theta=wrap_angle(math.radians(float(rec["theta_deg"]))),
        w=float(rec["w"]),
        h=None if rec.get("h") is None else float(rec["h"]),
    )


def grasp_to_record(g):
    return {
        "x": float(g.x),
        "y": float(g.y),
        "theta_deg": math.degrees(g.theta),
        "w": float(g.w),
        "h": None if g.h is None else float(g.h),
    }


def write_annotations(grasps, dest):
    """Write grasps to a JSON-lines annotation file (path or text file)."""
    text = "".join(json.dumps(grasp_to_record(g)) + "\n" for g in grasps)
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_annotation_groups(source):
    """Read annotations grouped by the optional ``image_id`` record field.

    Records without an id land in group "0".  Returns {image_id: [Grasp]}
    preserving record order within each group.
    """
    groups = {}
    for rec, g in _read_records(source):
        groups.setdefault(str(rec.get("image_id", "0")), []).append(g)
    return groups
