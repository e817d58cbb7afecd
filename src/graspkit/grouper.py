"""Pair decoded keypoints into ranked grasp candidates.

Processing steps, on index arrays: decode each role's top-k keypoints as
``(x, y, class, score, embedding)`` arrays; keep the left x right pairs
that share a class, differ in embedding by strictly less than rho_embed
and are in canonical order (one mask); keep those whose center-heatmap
value at the midpoint is strictly above rho_cen; drop pairs whose class
angle and keypoint angle (``np.arctan2``) differ by more than tau_orient;
rank by one stable lexsort and cut at max_output.  Only the survivors
become Python objects, grasps taking theta from ``math.atan2``.  The public
stage functions wrap the same steps.  An empty result is valid output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import _float32
from .decoder import TOP_K, DetectedKeypoint, _decode, _detected
from .decoder import decode_bundle  # noqa: F401  (bench/spans.py traces it under this module)
from .geometry import _center_form, _class_angle, _finite_number, _integer, _shown, angle_diff, wrap_angle


@dataclass(frozen=True)
class GroupingThresholds:
    """Pair-filter thresholds; dataset profiles supply the published values."""

    rho_embed: float
    rho_cen: float
    tau_orient: float
    max_output: int = 100  # the grasp cap: ranked grasps kept per bundle

    def __post_init__(self):
        if not all(_finite_number(v) and v >= 0 for v in (self.rho_embed, self.rho_cen, self.tau_orient)):
            raise ValueError("thresholds must be finite nonnegative numbers, not NaN or a bool")
        if not _integer(self.max_output) or self.max_output < 1:
            raise ValueError(f"max_output must be an integer >= 1, got {_shown(self.max_output)}")


@dataclass(frozen=True)
class GraspCandidate:
    """A grouped keypoint pair with its validation scores."""

    left: DetectedKeypoint
    right: DetectedKeypoint
    class_index: int
    center_score: float
    theta_discrete: float
    theta_continuous: float


def _kp_arrays(kps):
    """Keypoint arrays ``(x, y, class, score, embedding)`` of DetectedKeypoints."""
    return (
        np.array([p.x for p in kps], dtype=float),
        np.array([p.y for p in kps], dtype=float),
        np.array([p.class_index for p in kps], dtype=int),
        np.array([p.score for p in kps], dtype=float),
        np.array([p.embedding for p in kps], dtype=float),
    )


def _center_scores(left, right, li, ri, center_map, ratio):
    """Center-heatmap confidence of the index pairs ``(li, ri)``, read at the
    heatmap pixel nearest the pair midpoint, clamped to map bounds."""
    center = _float32(center_map)
    h, w = center.shape
    cx = (left[0][li] + right[0][ri]) / 2.0
    cy = (left[1][li] + right[1][ri]) / 2.0
    cols = np.clip(np.rint(cx / ratio).astype(int), 0, w - 1)
    rows = np.clip(np.rint(cy / ratio).astype(int), 0, h - 1)
    return center[rows, cols].astype(float)


def extract_center_scores(left_kps, right_kps, center_map, ratio):
    """Center-heatmap confidence for every left x right pair.

    Returns a (len(left), len(right)) matrix; the lookup pixel is the
    nearest heatmap pixel to the pair midpoint, clamped to map bounds.
    ``ratio`` must be an integer >= 1.
    """
    if not _integer(ratio) or ratio < 1:
        raise ValueError(f"ratio must be an integer >= 1, got {_shown(ratio)}")
    li, ri = np.arange(len(left_kps))[:, None], np.arange(len(right_kps))[None, :]
    return _center_scores(_kp_arrays(left_kps), _kp_arrays(right_kps), li, ri, center_map, ratio)


def _passing(left, right, thresholds, num_classes, center_scores):
    """Row-major index pairs ``(li, ri)`` that share a class, lie closer than
    rho_embed in embedding and in canonical order (one mask), then score
    above rho_cen by ``center_scores(li, ri)``: the arrays ``(li, ri, class,
    center score, theta_discrete, theta_continuous)``, theta from ``np.arctan2``."""
    lx, ly, lcls, _, lemb = left
    rx, ry, rcls, _, remb = right
    li, ri = np.nonzero(
        (lcls[:, None] == rcls[None, :])
        & (np.abs(lemb[:, None] - remb[None, :]) < thresholds.rho_embed)
        & ((lx[:, None] < rx[None, :]) | ((lx[:, None] == rx[None, :]) & (ly[:, None] < ry[None, :])))
    )
    scores = center_scores(li, ri)
    ok = scores > thresholds.rho_cen
    li, ri, scores = li[ok], ri[ok], scores[ok]
    theta_cont = wrap_angle(np.arctan2(ry[ri] - ly[li], rx[ri] - lx[li]))
    return li, ri, lcls[li], scores, _class_angle(lcls[li], num_classes), theta_cont


def _candidates(lkps, rkps, *arrays):
    """GraspCandidates from keypoint lists and (class, center score,
    theta_discrete, theta_continuous) arrays."""
    return [GraspCandidate(*fields) for fields in zip(lkps, rkps, *(a.tolist() for a in arrays))]


def filter_pairs(left_kps, right_kps, center_scores, thresholds, num_classes):
    """Apply the three pairing conditions plus canonical left/right order.

    All three comparisons are strict; a pair sitting exactly on a threshold
    is removed.  Ordering (left before right lexicographically by (x, y))
    keeps each geometric pair unique even when both roles fire on the same
    physical point.
    """
    if not left_kps or not right_kps:
        return []
    scores = np.asarray(center_scores, dtype=float)
    li, ri, *rest = _passing(
        _kp_arrays(left_kps), _kp_arrays(right_kps), thresholds, num_classes, lambda li, ri: scores[li, ri]
    )
    return _candidates([left_kps[i] for i in li.tolist()], [right_kps[j] for j in ri.tolist()], *rest)


def orientation_filter(candidates, tau_orient, num_classes):
    """Keep candidates whose discrete/continuous angles agree within tau.

    The distance wraps modulo pi, so -89 deg and +89 deg differ by 2 deg.
    Each candidate's own ``theta_discrete`` is used; ``num_classes`` is not
    needed and is accepted for call compatibility.
    """
    disc = np.array([c.theta_discrete for c in candidates], dtype=float)
    cont = np.array([c.theta_continuous for c in candidates], dtype=float)
    keep = angle_diff(disc, cont) <= tau_orient
    return [cand for cand, ok in zip(candidates, keep.tolist()) if ok]


def _ranked(bundle, thresholds, k):
    """Both roles' keypoint arrays and :func:`_passing`'s arrays for the
    pairs within tau_orient, ranked by one stable lexsort on (-center score,
    -mean keypoint score, left x, left y, right x, right y), so ties keep the
    row-major (li, ri) order, and cut at ``max_output``."""
    left, right = _decode(bundle, k)
    pairs = _passing(
        left, right, thresholds, bundle.num_classes,
        lambda li, ri: _center_scores(left, right, li, ri, bundle.center, bundle.downsample_ratio),
    )
    keep = np.flatnonzero(angle_diff(pairs[4], pairs[5]) <= thresholds.tau_orient)
    li, ri, _, scores = (a[keep] for a in pairs[:4])
    mean_kp_score = (left[3][li] + right[3][ri]) / 2.0
    rank = np.lexsort((right[1][ri], right[0][ri], left[1][li], left[0][li], -mean_kp_score, -scores))
    order = keep[rank[: thresholds.max_output]]
    return left, right, [a[order] for a in pairs]


def group_candidates(bundle, thresholds, k=TOP_K):
    """Full grouping pipeline; returns ranked GraspCandidates (<= max_output)."""
    left, right, (li, ri, *rest) = _ranked(bundle, thresholds, k)
    lkps, rkps = _detected([a[li] for a in left], "left"), _detected([a[ri] for a in right], "right")
    return _candidates(lkps, rkps, *rest)


def group(bundle, thresholds, k=TOP_K):
    """Ranked center-form grasps for a bundle (possibly empty), built from
    each survivor's canonically ordered keypoints, theta from ``math.atan2``."""
    left, right, (li, ri, *_) = _ranked(bundle, thresholds, k)
    points = (left[0][li], left[1][li], right[0][ri], right[1][ri])
    return [_center_form(*p) for p in zip(*(a.tolist() for a in points))]
