"""Shared test fixtures: independent oracles and seeded generators."""

import math

import numpy as np

from graspkit import EncoderConfig, Grasp, HeatmapBundle, OrientedRect, ideal_bundle, losses
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
