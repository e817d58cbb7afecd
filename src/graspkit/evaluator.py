"""Rectangle-metric grasp evaluation and throughput measurement.

A prediction counts as correct when its angle is within the angular
tolerance (default 30 deg, wrapped modulo pi) of some ground-truth grasp
AND the Jaccard index of the two oriented rectangles is strictly greater
than the threshold (default 0.25).  Because the center-form representation
drops the rectangle height, predictions always evaluate with the dataset's
published average height; ground truth keeps its annotated height when
present.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import _finite_number, _rotated_ious, angle_diff, rect_from_grasp
from .geometry import rotated_iou  # noqa: F401  (bench/spans.py traces it under this module)


class PairingError(ValueError):
    """Prediction and truth sets do not cover the same image ids."""


@dataclass(frozen=True)
class MatchCriteria:
    """Thresholds of the rectangle metric plus the evaluation height."""

    max_angle_diff: float = math.pi / 6
    min_jaccard: float = 0.25
    eval_height: float = 23.33

    def __post_init__(self):
        if not 0 < self.min_jaccard < 1:
            raise ValueError(f"min_jaccard must lie in (0, 1), got {self.min_jaccard}")
        if not 0 < self.max_angle_diff <= math.pi / 2:
            raise ValueError(f"max_angle_diff must lie in (0, pi/2], got {self.max_angle_diff}")
        if not (_finite_number(self.eval_height) and self.eval_height > 0):
            raise ValueError(f"eval_height must be a finite positive number, got {self.eval_height!r}")


@dataclass
class ImageResult:
    image_id: str
    matched: bool
    best_jaccard: float
    best_angle_diff: float | None

    def to_dict(self):
        return asdict(self)


@dataclass
class EvalReport:
    total: int
    correct: int
    accuracy: float
    per_image: list = field(default_factory=list)
    fps: float | None = None

    def to_dict(self):
        rec = {name: v for name, v in vars(self).items() if name != "per_image"}
        return {**rec, "per_image": [r.to_dict() for r in self.per_image]}


def is_match(pred, truth, criteria):
    """True iff angle within tolerance and rotated IoU above the threshold
    (the rule of ``_image_stats``; a pair failing the angle skips the IoU)."""
    if angle_diff(pred.theta, truth.theta) > criteria.max_angle_diff:
        return False
    return _image_stats([pred], [truth], criteria)[0]


# Relative slack on the separation test, far above the rounding error of
# the corner and clipping arithmetic.
_APART_MARGIN = 1e-6


def _separated(rects_a, rects_b):
    """(len(a), len(b)) mask of pairs that an edge normal separates.

    Separating-axis test: two convex polygons are disjoint iff their
    projections onto some edge normal of either one are disjoint, and a
    rectangle has two edge normals.  On a unit axis n, a rectangle with
    half sides (hw, hh) along (u, v) projects to its center's projection
    +- hw|n.u| + hh|n.v|; the gap is the distance between the centers'
    projections less both half-extents.  A separated pair is disjoint, so
    its polygon clip is empty and :func:`rotated_iou` returns exactly 0.0.

    The gap must exceed ``_APART_MARGIN`` times the scale of the
    coordinates (the circumscribed radii plus the centers' L1 norms), over
    sqrt(2).  The largest edge-normal gap is at least 1/sqrt(2) of the
    rectangles' distance, which is at least the gap between their
    circumscribed circles, so every pair whose circles are apart by the
    margin is rejected too.
    """
    def frame(rects):
        x, y, theta, hw, hh = np.array(
            [(*r.center, r.theta, r.width / 2, r.height / 2) for r in rects], dtype=float
        ).T
        return x, y, np.cos(theta), np.sin(theta), hw, hh

    # an overflow to inf or NaN leaves the pair to _rotated_ious, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        xa, ya, ca, sa, wa, ha = (v[:, None] for v in frame(rects_a))
        xb, yb, cb, sb, wb, hb = frame(rects_b)
        dx, dy = xb - xa, yb - ya
        # |cos| and |sin| of the angle between the two rectangles' axes
        cos_ab = np.abs(ca * cb + sa * sb)
        sin_ab = np.abs(sa * cb - ca * sb)
        gap = np.abs(dx * ca + dy * sa) - wa - cos_ab * wb - sin_ab * hb
        np.maximum(gap, np.abs(dy * ca - dx * sa) - ha - sin_ab * wb - cos_ab * hb, out=gap)
        np.maximum(gap, np.abs(dx * cb + dy * sb) - wb - cos_ab * wa - sin_ab * ha, out=gap)
        np.maximum(gap, np.abs(dy * cb - dx * sb) - hb - sin_ab * wa - cos_ab * ha, out=gap)
        scale = np.hypot(wa, ha) + np.hypot(wb, hb) + np.abs(xa) + np.abs(ya) + np.abs(xb) + np.abs(yb)
        return gap > _APART_MARGIN / math.sqrt(2) * scale


def _image_stats(preds, truths, criteria):
    """(matched, best Jaccard, best angle difference) over all pairs."""
    if not preds or not truths:
        return False, 0.0, None
    pred_rects = [rect_from_grasp(p, criteria.eval_height) for p in preds]
    truth_rects = [rect_from_grasp(t, t.h or criteria.eval_height) for t in truths]
    angles = angle_diff(
        np.array([p.theta for p in preds])[:, None], np.array([t.theta for t in truths])[None, :]
    )
    kept = ~_separated(pred_rects, truth_rects)
    jaccard = np.zeros(kept.shape)
    rows, cols = np.nonzero(kept)
    n = len(pred_rects)
    pairs = [(i, n + j) for i, j in zip(rows.tolist(), cols.tolist())]
    jaccard[kept] = _rotated_ious(pred_rects + truth_rects, pairs)
    matched = bool(np.any((angles <= criteria.max_angle_diff) & (jaccard > criteria.min_jaccard)))
    return matched, float(jaccard.max()), float(angles.min())


def evaluate_dataset(predictions, truths, criteria, policy="top1"):
    """Aggregate the match metric over a dataset.

    ``predictions`` maps image id to a ranked grasp list, ``truths`` to the
    annotation list.  Under ``top1`` an image is correct iff its first
    prediction matches any ground truth; under ``topn`` any listed
    prediction may match.  Empty prediction lists count as incorrect.
    """
    if policy not in ("top1", "topn"):
        raise ValueError(f"unknown policy {policy!r}")
    pred_ids = set(predictions)
    truth_ids = set(truths)
    if pred_ids != truth_ids:
        missing = sorted(truth_ids - pred_ids)
        extra = sorted(pred_ids - truth_ids)
        raise PairingError(
            f"image ids do not pair up: missing predictions for {missing}, "
            f"predictions without truth for {extra}"
        )
    per_image = []
    correct = 0
    for image_id in sorted(truth_ids):
        preds = list(predictions[image_id])
        if policy == "top1":
            preds = preds[:1]
        matched, best_j, best_a = _image_stats(preds, truths[image_id], criteria)
        if matched:
            correct += 1
        per_image.append(ImageResult(image_id, matched, best_j, best_a))
    total = len(per_image)
    accuracy = correct / total if total else 0.0
    return EvalReport(total=total, correct=correct, accuracy=accuracy, per_image=per_image)


def measure_fps(pipeline, inputs, warmup=5, timed=50, repeats=3):
    """Median-of-repeats frames per second of ``pipeline`` over ``inputs``.

    Runs at least 5 warm-up and 50 timed calls per repetition, cycling the
    input list, and reports timed count / wall-clock seconds.
    """
    if warmup < 5:
        raise ValueError(f"need >= 5 warm-up runs, got {warmup}")
    if timed < 50:
        raise ValueError(f"need >= 50 timed runs, got {timed}")
    if repeats < 1:
        raise ValueError(f"need >= 1 repetition, got {repeats}")
    inputs = list(inputs)
    if not inputs:
        raise ValueError("no inputs to time")
    rates = []
    for _ in range(repeats):
        for i in range(warmup):
            pipeline(inputs[i % len(inputs)])
        t0 = time.perf_counter()
        for i in range(timed):
            pipeline(inputs[i % len(inputs)])
        elapsed = time.perf_counter() - t0
        rates.append(timed / elapsed)
    return statistics.median(rates)
