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

from .geometry import angle_diff, rect_from_grasp, rotated_iou


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
        return {
            "total": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "fps": self.fps,
            "per_image": [r.to_dict() for r in self.per_image],
        }


def is_match(pred, truth, criteria):
    """True iff angle within tolerance and rotated IoU above the threshold
    (the rule of ``_image_stats``; a pair failing the angle skips the IoU)."""
    if angle_diff(pred.theta, truth.theta) > criteria.max_angle_diff:
        return False
    return _image_stats([pred], [truth], criteria)[0]


# Relative slack on the circumscribed-circle test, far above the rounding
# error of the corner and clipping arithmetic.
_APART_MARGIN = 1e-6


def _circles_apart(rects_a, rects_b):
    """(len(a), len(b)) mask of pairs whose circumscribed circles are apart.

    Such rectangles are disjoint, so their polygon clip is empty and
    :func:`rotated_iou` returns exactly 0.0 for them.
    """
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
    return dist - reach > _APART_MARGIN * scale


def _image_stats(preds, truths, criteria):
    """(matched, best Jaccard, best angle difference) over all pairs."""
    if not preds or not truths:
        return False, 0.0, None
    pred_rects = [rect_from_grasp(p, criteria.eval_height) for p in preds]
    truth_rects = [rect_from_grasp(t, t.h or criteria.eval_height) for t in truths]
    angles = angle_diff(
        np.array([p.theta for p in preds])[:, None], np.array([t.theta for t in truths])[None, :]
    )
    apart = _circles_apart(pred_rects, truth_rects)
    matched = False
    best_j = 0.0
    for pr, row_apart, row_angles in zip(pred_rects, apart.tolist(), angles.tolist()):
        for tr, far, a in zip(truth_rects, row_apart, row_angles):
            j = 0.0 if far else rotated_iou(pr, tr)
            best_j = max(best_j, j)
            if a <= criteria.max_angle_diff and j > criteria.min_jaccard:
                matched = True
    return matched, best_j, float(angles.min())


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
