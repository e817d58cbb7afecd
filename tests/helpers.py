"""Shared test fixtures: independent oracles and seeded generators."""

import json
import math

import numpy as np
from hypothesis import strategies as st

from graspkit import (
    EncoderConfig,
    Grasp,
    HeatmapBundle,
    OrientedRect,
    ideal_bundle,
    losses,
    suppress_non_maxima,
)
from graspkit.checks import random_bundle, separated_grasps as random_separated_grasps  # noqa: F401


def iou_rasterized(rect_a, rect_b, resolution=1000):
    """Rasterization oracle for rotated-rectangle IoU.

    Samples a resolution x resolution point grid over the joint bounding
    box and counts membership; independent of the polygon-clipping path.
    """
    corners = np.vstack([rect_a.corners(), rect_b.corners()])
    lo = corners.min(axis=0) - 1e-6
    hi = corners.max(axis=0) + 1e-6
    xs = np.linspace(lo[0], hi[0], resolution, dtype=np.float32)
    ys = np.linspace(lo[1], hi[1], resolution, dtype=np.float32)

    def inside(rect):
        cx, cy = rect.center
        c, s = math.cos(rect.theta), math.sin(rect.theta)
        dx = xs - np.float32(cx)
        dy = ys - np.float32(cy)
        u = np.float32(c) * dx[None, :] + np.float32(s) * dy[:, None]
        v = np.float32(c) * dy[:, None] - np.float32(s) * dx[None, :]
        np.abs(u, out=u)
        np.abs(v, out=v)
        return (u <= rect.width / 2) & (v <= rect.height / 2)

    in_a = inside(rect_a)
    in_b = inside(rect_b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def corners_reference(rect):
    """4x2 corners of a rectangle from its own 2-D matmul."""
    cx, cy = rect.center
    c, s = math.cos(rect.theta), math.sin(rect.theta)
    hw, hh = rect.width / 2, rect.height / 2
    local = np.array([(-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh)])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + (cx, cy)


def _shoelace_reference(poly):
    x = poly[:, 0]
    y = poly[:, 1]
    # the values of np.roll(v, -1), without its overhead
    x_next = np.concatenate((x[1:], x[:1]))
    y_next = np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(float(np.dot(x, y_next) - np.dot(y, x_next)))


def clip_convex_reference(subject, clip):
    """Sutherland-Hodgman clip of a convex subject polygon by a convex CCW
    clip polygon.  Points exactly on a clip edge count as inside."""
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
                t = (ex * (ay - sy) - ey * (ax - sx)) / denom
                output.append((sx + t * dx, sy + t * dy))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
    return output


def rotated_iou_reference(a, b):
    """Pair-at-a-time rotated IoU: corners per rectangle, the clip on
    ``np.float64`` scalars and one ``np.dot`` shoelace per polygon.

    The kernel behind ``graspkit.rotated_iou`` must equal it bit for bit
    wherever this clip does not divide by zero (see
    :func:`reference_clip_divides_by_zero`); where it does, numpy warns and
    the vertex is infinite or NaN.
    """
    if (b.center, b.width, b.height, b.theta) < (a.center, a.width, a.height, a.theta):
        a, b = b, a
    # an overflow shows as a non-finite union below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        pa = corners_reference(a)
        pb = corners_reference(b)
        inter_poly = clip_convex_reference(pa, pb)
        inter = _shoelace_reference(np.asarray(inter_poly)) if len(inter_poly) >= 3 else 0.0
        area_a = _shoelace_reference(pa)
        area_b = _shoelace_reference(pb)
    union = area_a + area_b - inter
    if not math.isfinite(union):
        raise ValueError(f"rectangle areas overflow: {area_a}, {area_b}, intersection {inter}")
    if union <= 0.0:
        return 0.0
    return min(1.0, inter / union)


def reference_clip_divides_by_zero(a, b):
    """True when :func:`rotated_iou_reference`'s clip of two rectangles
    divides by zero: rounding left a crossing segment parallel to the clip
    line.  The clip runs here on Python floats, whose arithmetic gives the
    same values as ``np.float64`` but raises ``ZeroDivisionError`` there."""
    if (b.center, b.width, b.height, b.theta) < (a.center, a.width, a.height, a.theta):
        a, b = b, a
    with np.errstate(over="ignore", invalid="ignore"):
        subject, clip = corners_reference(a).tolist(), corners_reference(b).tolist()
    try:
        clip_convex_reference(subject, clip)
    except ZeroDivisionError:
        return True
    return False


def circles_apart_reference(rects_a, rects_b, margin=1e-6):
    """Circumscribed-circle separation test: (len(a), len(b)) mask of pairs
    whose circles are apart by more than ``margin`` times the coordinate
    scale.  The evaluator's separating-axis test must reject each of them."""
    def centers_radii(rects):
        xy = np.array([r.center for r in rects], dtype=float)
        radii = np.array([math.hypot(r.width, r.height) / 2 for r in rects])
        return xy, radii

    xy_a, ra = centers_radii(rects_a)
    xy_b, rb = centers_radii(rects_b)
    gap = xy_a[:, None, :] - xy_b[None, :, :]
    dist = np.hypot(gap[..., 0], gap[..., 1])
    reach = ra[:, None] + rb[None, :]
    scale = reach + np.abs(xy_a).sum(axis=1)[:, None] + np.abs(xy_b).sum(axis=1)[None, :]
    return dist - reach > margin * scale


def select_reference(heatmaps, embeddings, offsets, k, ratio):
    """Top-k keypoints as (x, y, class, score, embedding) tuples: suppress
    the whole stack, then fully sort its positive entries by score
    descending and flat index ascending."""
    stack = suppress_non_maxima(heatmaps)
    if stack.ndim == 2:
        stack = stack[None]
    n_cls, h, w = stack.shape
    flat = stack.reshape(-1)
    nz = np.flatnonzero(flat > 0)
    top = nz[np.lexsort((nz, -flat[nz]))[:k]]
    cls, rem = top // (h * w), top % (h * w)
    rows, cols = rem // w, rem % w
    xs = np.clip((cols + offsets[0, rows, cols]) * ratio, 0.0, w * ratio)
    ys = np.clip((rows + offsets[1, rows, cols]) * ratio, 0.0, h * ratio)
    return [
        (float(xs[i]), float(ys[i]), int(cls[i]), float(flat[top[i]]), float(embeddings[rows[i], cols[i]]))
        for i in range(top.size)
    ]


def gripper_regions_reference(g, model, shape):
    """Reference gripper rasterizer: scans the box around the rectangle's
    circumscribed circle and keeps pixels by the center-in-rectangle test,
    with the two finger bands tested separately on signed u."""
    from graspkit import GripperCapacityError

    h, w = shape
    if not (0 <= g.x < w and 0 <= g.y < h):
        raise ValueError(f"grasp center ({g.x:.1f}, {g.y:.1f}) outside {w}x{h} image")
    ppmm = model.pixels_per_mm
    if g.w / ppmm > model.max_open_mm:
        raise GripperCapacityError(
            f"grasp opening {g.w / ppmm:.1f} mm exceeds max open {model.max_open_mm} mm"
        )
    finger_len = model.finger_length_mm * ppmm
    thickness = model.finger_thickness_mm * ppmm
    half_w = g.w / 2.0

    reach = half_w + finger_len
    half_t = thickness / 2.0
    radius = math.hypot(reach, half_t)
    r0 = max(0, int(math.floor(g.y - radius)))
    r1 = min(h - 1, int(math.ceil(g.y + radius)))
    c0 = max(0, int(math.floor(g.x - radius)))
    c1 = min(w - 1, int(math.ceil(g.x + radius)))
    rows = np.arange(r0, r1 + 1)
    cols = np.arange(c0, c1 + 1)
    yy = rows[:, None] - g.y
    xx = cols[None, :] - g.x
    cos_t, sin_t = math.cos(g.theta), math.sin(g.theta)
    u = cos_t * xx + sin_t * yy       # along the closing axis
    v = -sin_t * xx + cos_t * yy      # across it
    across = np.abs(v) <= half_t
    finger = across & (
        ((u >= half_w) & (u <= half_w + finger_len))
        | ((u <= -half_w) & (u >= -half_w - finger_len))
    )
    interior = across & (np.abs(u) < half_w)
    fr, fc = np.nonzero(finger)
    ir, ic = np.nonzero(interior)
    return (rows[fr], cols[fc]), (rows[ir], cols[ic])


def coverage_ratio_reference(grasps, mask):
    """Reference coverage ratio: each rectangle is scanned over the floor/ceil
    box of its corners and keeps pixels by the center-in-rectangle test."""
    from graspkit import rect_from_grasp

    binary = np.asarray(mask) > 0.5
    union = np.zeros(binary.shape, dtype=bool)
    h, w = binary.shape
    for g in grasps:
        rect = rect_from_grasp(g)
        corners = rect.corners()
        c0 = max(0, int(np.floor(corners[:, 0].min())))
        c1 = min(w - 1, int(np.ceil(corners[:, 0].max())))
        r0 = max(0, int(np.floor(corners[:, 1].min())))
        r1 = min(h - 1, int(np.ceil(corners[:, 1].max())))
        if c0 > c1 or r0 > r1:
            continue
        cols = np.arange(c0, c1 + 1)
        rows = np.arange(r0, r1 + 1)
        cx, cy = rect.center
        xx = cols[None, :] - cx
        yy = rows[:, None] - cy
        cos_t, sin_t = np.cos(rect.theta), np.sin(rect.theta)
        u = cos_t * xx + sin_t * yy
        v = -sin_t * xx + cos_t * yy
        inside = (np.abs(u) <= rect.width / 2.0) & (np.abs(v) <= rect.height / 2.0)
        union[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] |= inside
    return float((union & binary).sum()) / int(binary.sum())


def score_grasps_reference(grasps, depth_image, model):
    """Per-grasp loop over the reference index sets: the mean-over-indices
    scores, failures demoted to total -1, stable re-rank by total."""
    from graspkit import GraspScore, collision_score, height_score, occupancy_score

    scored = []
    for g in grasps:
        try:
            regions = gripper_regions_reference(g, model, depth_image.shape)
            score = GraspScore.compute(
                collision_score(g, depth_image, model, regions),
                occupancy_score(g, depth_image, model, regions),
                height_score(g, depth_image),
            )
        except ValueError:
            score = GraspScore.failed()
        scored.append((g, score))
    scored.sort(key=lambda pair: -pair[1].total)
    return scored


def naive_detection_loss(pred, truth, n_grasps, alpha=2.0, beta=4.0, eps=1e-12):
    """Literal double-loop transcription of the per-pixel focal loss."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.ndim == 2:
        pred = pred[None]
        truth = truth[None]
    total = 0.0
    for c in range(pred.shape[0]):
        for i in range(pred.shape[1]):
            for j in range(pred.shape[2]):
                yhat = min(max(pred[c, i, j], eps), 1.0 - eps)
                y = truth[c, i, j]
                if y == 1.0:
                    total += (1.0 - yhat) ** alpha * math.log(yhat)
                else:
                    total += (1.0 - y) ** beta * yhat**alpha * math.log(1.0 - yhat)
    return -total / max(int(n_grasps), 1)


def random_rect(rng, span=5.0):
    return OrientedRect(
        center=(float(rng.uniform(-span, span)), float(rng.uniform(-span, span))),
        width=float(rng.uniform(0.5, 4.0)),
        height=float(rng.uniform(0.5, 4.0)),
        theta=float(rng.uniform(-math.pi / 2, math.pi / 2)),
    )


def grouping_bundle(rng, num_classes=6, dim=24, ratio=4):
    """Random but structured bundle that yields plenty of grasp candidates."""
    return HeatmapBundle(
        left=rng.random((num_classes, dim, dim), dtype=np.float32),
        right=rng.random((num_classes, dim, dim), dtype=np.float32),
        center=rng.random((dim, dim), dtype=np.float32),
        offsetL=rng.random((2, dim, dim), dtype=np.float32),
        offsetR=rng.random((2, dim, dim), dtype=np.float32),
        embedL=rng.normal(0.0, 1.0, size=(dim, dim)).astype(np.float32),
        embedR=rng.normal(0.0, 1.0, size=(dim, dim)).astype(np.float32),
        num_classes=num_classes,
        downsample_ratio=ratio,
    )


def clutter_bundle(rng, profile, n_grasps, image=228, peaks=160):
    """Ideal bundle of ``n_grasps`` annotated grasps plus seeded clutter.

    Clutter peaks and low noise fill top-k on both roles, offsets are
    jittered and background embeddings overlap the grasp values, so many
    pairs pass the filters.  Returns (bundle, truth grasps).
    """
    truths = [
        Grasp(g.x, g.y, g.theta, g.w, float(rng.uniform(12, 24)))
        for g in random_separated_grasps(rng, n_grasps, image=image)
    ]
    config = EncoderConfig(image, image, profile.num_classes, profile.downsample_ratio)
    bundle = ideal_bundle(truths, config, seed=int(rng.integers(0, 2**31)))
    for name in ("left", "right"):
        stack = getattr(bundle, name)
        noise = rng.uniform(0.0, 0.05, size=stack.shape).astype(np.float32)
        flat = noise.reshape(-1)
        flat[rng.choice(flat.size, size=peaks, replace=False)] = rng.uniform(0.2, 0.9, size=peaks)
        setattr(bundle, name, np.maximum(stack, noise))
    bundle.center = np.maximum(
        bundle.center, rng.uniform(0.0, 0.45, size=bundle.center.shape).astype(np.float32)
    )
    for name in ("offsetL", "offsetR"):
        stack = getattr(bundle, name)
        jitter = rng.uniform(0.0, 0.999, size=stack.shape).astype(np.float32)
        setattr(bundle, name, np.where(stack > 0, stack, jitter))
    for name in ("embedL", "embedR"):
        plane = getattr(bundle, name)
        noise = rng.uniform(1.5, float(plane.max()) + 0.5, size=plane.shape).astype(np.float32)
        setattr(bundle, name, np.where(plane >= 2.0, plane, noise))
    return bundle.validate(), truths


def grasp_key(g, digits=9):
    return (round(g.x, digits), round(g.y, digits), round(g.theta, digits), round(g.w, digits))


def recovered_fraction(truths, found, eval_height, max_angle):
    """Fraction of truth grasps matched by some found grasp at IoU > 0.9."""
    from graspkit import angle_diff, rotated_iou

    hit = 0
    for t in truths:
        t_rect = OrientedRect((t.x, t.y), t.w, eval_height, t.theta)
        for f in found:
            f_rect = OrientedRect((f.x, f.y), f.w, eval_height, f.theta)
            if rotated_iou(t_rect, f_rect) > 0.9 and angle_diff(t.theta, f.theta) < max_angle:
                hit += 1
                break
    return hit / len(truths) if truths else 1.0


def _random_smooth_detection_point(rng, shape):
    truth = rng.uniform(0.0, 0.9, size=shape)
    peaks = rng.random(size=shape) < 0.1
    truth[peaks] = 1.0
    pred = rng.uniform(0.05, 0.95, size=shape)
    return pred, truth


def gradcheck_battery_reference(seed=0, points=100, step=1e-5, tolerance=1e-4):
    """The gradient battery as five hand-written loops, one per loss, in the
    order and with the draws that ``run_gradcheck_battery`` must reproduce."""
    rng = np.random.default_rng(seed)
    results = {}

    worst = 0.0
    for _ in range(points):
        pred, truth = _random_smooth_detection_point(rng, (2, 4, 4))
        n = int(rng.integers(1, 5))
        report = losses.gradient_check(
            lambda x: losses.detection_loss(x, truth, n), pred, step=step, rel_tol=tolerance
        )
        worst = max(worst, report.max_error)
    results["detection"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    for _ in range(points):
        center_truth = rng.uniform(0.0, 0.9, size=(5, 5))
        center_truth[rng.integers(0, 5), rng.integers(0, 5)] = 1.0
        pred = rng.uniform(0.05, 0.95, size=(5, 5))
        report = losses.gradient_check(
            lambda x: losses.detection_loss(x, center_truth, 1), pred, step=step, rel_tol=tolerance
        )
        worst = max(worst, report.max_error)
    results["detection_center"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    for _ in range(points):
        truth_off = rng.random((6, 2))
        # stay >= 10*step away from the smooth-L1 kink at |d| = 1
        delta = rng.uniform(-0.9, 0.9, size=(6, 2))
        pred_off = truth_off + delta
        report = losses.gradient_check(
            lambda x: losses.offset_loss(x, truth_off), pred_off, step=step, rel_tol=tolerance
        )
        worst = max(worst, report.max_error)
    results["offset"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    for _ in range(points):
        pairs = rng.normal(0.0, 2.0, size=(5, 2))
        report = losses.gradient_check(losses.pull_loss, pairs, step=step, rel_tol=tolerance)
        worst = max(worst, report.max_error)
    results["pull"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    kept = 0
    while kept < points:
        pairs = rng.normal(0.0, 2.0, size=(4, 2))
        means = pairs.mean(axis=1)
        gaps = np.abs(means[:, None] - means[None, :])[~np.eye(4, dtype=bool)]
        # keep clear of the hinge kinks at gap 0 and gap 1
        if np.any(np.abs(gaps - 1.0) < 10 * step) or np.any(gaps < 10 * step):
            continue
        kept += 1
        report = losses.gradient_check(losses.push_loss, pairs, step=step, rel_tol=tolerance)
        worst = max(worst, report.max_error)
    results["push"] = {"max_error": worst, "passed": worst < tolerance}

    passed = all(entry["passed"] for entry in results.values())
    return {"seed": seed, "points": points, "step": step, "tolerance": tolerance,
            "losses": results, "passed": passed}


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


_RECORD_FIELDS = {
    "x": st.floats(-50.0, 300.0),
    "y": st.floats(-50.0, 300.0),
    "theta_deg": st.floats(-720.0, 720.0),
    "w": st.floats(0.5, 120.0) | st.integers(1, 10**30),
    "h": st.none() | st.floats(0.5, 40.0),
    "image_id": st.sampled_from(["a", 0]),
}


@st.composite
def _record_line(draw, corrupt):
    """One JSON record line; ``corrupt`` lets a field go missing or take an
    arbitrary JSON value."""
    record = {name: draw(values) for name, values in _RECORD_FIELDS.items()}
    if corrupt:
        for name in draw(st.sets(st.sampled_from(sorted(record)), max_size=2)):
            if draw(st.booleans()):
                del record[name]
            else:
                record[name] = draw(_JSON_VALUES)
    return json.dumps(record)


@st.composite
def _corrupt_text(draw):
    lines = draw(st.lists(_record_line(corrupt=True), max_size=5))
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
    junk = st.just("") | _JSON_VALUES.map(json.dumps) | text
    for line in draw(st.lists(junk, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


# Text of an annotation file: half of the files hold only valid records,
# the other half corrupted records mixed with blank lines, other JSON and
# arbitrary text.
annotation_texts = st.lists(_record_line(corrupt=False), max_size=5).map("\n".join) | _corrupt_text()
