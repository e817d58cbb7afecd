"""Pair decoded keypoints into ranked grasp candidates.

Processing steps: decode top-k keypoints per role, score every left x right
pair at the midpoint of the center heatmap, keep pairs that (1) share an
orientation class, (2) have embedding distance strictly below rho_embed and
(3) center confidence strictly above rho_cen, then drop candidates whose
discrete (class) and continuous (keypoint) orientations disagree by more
than tau_orient.  Survivors convert to center-form grasps, ranked by center
confidence.  An empty result is valid output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import DetectedKeypoint, decode_bundle
from .geometry import _center_form, angle_diff, class_to_angle, wrap_angle


@dataclass(frozen=True)
class GroupingThresholds:
    """Pair-filter thresholds; dataset profiles supply the published values."""

    rho_embed: float
    rho_cen: float
    tau_orient: float
    max_output: int = 100

    def __post_init__(self):
        if self.rho_embed < 0 or self.rho_cen < 0 or self.tau_orient < 0:
            raise ValueError("thresholds must be nonnegative")
        if self.max_output < 1:
            raise ValueError(f"max_output must be >= 1, got {self.max_output}")


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
    return (
        np.array([p.x for p in kps], dtype=float),
        np.array([p.y for p in kps], dtype=float),
        np.array([p.class_index for p in kps], dtype=int),
        np.array([p.embedding for p in kps], dtype=float),
    )


def extract_center_scores(left_kps, right_kps, center_map, ratio):
    """Center-heatmap confidence for every left x right pair.

    Returns a (len(left), len(right)) matrix; the lookup pixel is the
    nearest heatmap pixel to the pair midpoint, clamped to map bounds.
    """
    center = np.asarray(center_map, dtype=np.float32)
    h, w = center.shape
    lx, ly, _, _ = _kp_arrays(left_kps)
    rx, ry, _, _ = _kp_arrays(right_kps)
    cx = (lx[:, None] + rx[None, :]) / 2.0
    cy = (ly[:, None] + ry[None, :]) / 2.0
    cols = np.clip(np.rint(cx / ratio).astype(int), 0, w - 1)
    rows = np.clip(np.rint(cy / ratio).astype(int), 0, h - 1)
    return center[rows, cols].astype(float)


def filter_pairs(left_kps, right_kps, center_scores, thresholds, num_classes):
    """Apply the three pairing conditions plus canonical left/right order.

    All three comparisons are strict; a pair sitting exactly on a threshold
    is removed.  Ordering (left before right lexicographically by (x, y))
    keeps each geometric pair unique even when both roles fire on the same
    physical point.
    """
    if not left_kps or not right_kps:
        return []
    lx, ly, lcls, lemb = _kp_arrays(left_kps)
    rx, ry, rcls, remb = _kp_arrays(right_kps)
    scores = np.asarray(center_scores, dtype=float)
    class_ok = lcls[:, None] == rcls[None, :]
    embed_ok = np.abs(lemb[:, None] - remb[None, :]) < thresholds.rho_embed
    center_ok = scores > thresholds.rho_cen
    canonical = (lx[:, None] < rx[None, :]) | (
        (lx[:, None] == rx[None, :]) & (ly[:, None] < ry[None, :])
    )
    li, ri = np.nonzero(class_ok & embed_ok & center_ok & canonical)
    classes = lcls[li]
    theta_cont = wrap_angle(np.arctan2(ry[ri] - ly[li], rx[ri] - lx[li]))
    theta_disc = class_to_angle(classes, num_classes)
    return [
        GraspCandidate(
            left=left_kps[i],
            right=right_kps[j],
            class_index=c,
            center_score=s,
            theta_discrete=td,
            theta_continuous=tc,
        )
        for i, j, c, s, td, tc in zip(
            li.tolist(), ri.tolist(), classes.tolist(), scores[li, ri].tolist(),
            theta_disc.tolist(), theta_cont.tolist(),
        )
    ]


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


def _rank_key(cand):
    mean_kp_score = (cand.left.score + cand.right.score) / 2.0
    return (
        -cand.center_score,
        -mean_kp_score,
        cand.left.x,
        cand.left.y,
        cand.right.x,
        cand.right.y,
    )


def group_candidates(bundle, thresholds, k=100):
    """Full grouping pipeline; returns ranked GraspCandidates (<= max_output)."""
    left, right = decode_bundle(bundle, k=k)
    if not left or not right:
        return []
    scores = extract_center_scores(left, right, bundle.center, bundle.downsample_ratio)
    candidates = filter_pairs(left, right, scores, thresholds, bundle.num_classes)
    candidates = orientation_filter(candidates, thresholds.tau_orient, bundle.num_classes)
    candidates.sort(key=_rank_key)
    return candidates[: thresholds.max_output]


def group(bundle, thresholds, k=100):
    """Ranked center-form grasps for a bundle (possibly empty).

    A candidate's keypoints are already in canonical order, so its grasp is
    built from them directly, without a :class:`KeypointPair` round trip.
    """
    return [
        _center_form(cand.left.x, cand.left.y, cand.right.x, cand.right.y)
        for cand in group_candidates(bundle, thresholds, k=k)
    ]
