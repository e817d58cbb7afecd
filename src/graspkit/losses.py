"""Training losses with analytic gradients.

Every loss returns ``(scalar, gradient)`` where the gradient matches the
prediction's shape; all of them are plain numpy and differentiable almost
everywhere, so they double as the numerical contract for any retraining
effort.  A central finite-difference checker validates the gradients.

Detection loss (per pixel, focal variant):

    y == 1:     (1 - yhat)^alpha * log(yhat)
    otherwise:  (1 - y)^beta * yhat^alpha * log(1 - yhat)

summed over classes and pixels, scaled by -1/N with N the number of
ground-truth grasps in the image (floored at 1).  Predictions are clamped
to (eps, 1-eps) with eps = 1e-12 before the logs so the loss stays finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

LOG_EPS = 1e-12


@dataclass(frozen=True)
class FocalParams:
    """Focal-loss exponents; alpha shapes the easy-example discount,
    beta the penalty reduction near ground-truth peaks."""

    alpha: float = 2.0
    beta: float = 4.0


@dataclass(frozen=True)
class LossWeights:
    """Weights of pull, push and offset terms in the total loss."""

    pull: float = 1.0
    push: float = 1.0
    offset: float = 1.0


def detection_loss(pred, truth, n_grasps):
    """Focal detection loss over a heatmap stack, with the default
    :class:`FocalParams` exponents alpha = 2 and beta = 4.

    ``pred`` and ``truth`` share a shape, either (C, H, W) for keypoint
    stacks or (H, W) for the single center plane.  Positive pixels are the
    ones where truth equals 1 exactly; Gaussian-rendered neighbors fall in
    the reduced-penalty branch.  Returns (loss, d loss / d pred).
    """
    p = FocalParams()
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if n_grasps < 0:
        raise ValueError(f"negative grasp count {n_grasps}")
    n = max(int(n_grasps), 1)

    inside = (pred > LOG_EPS) & (pred < 1.0 - LOG_EPS)
    yhat = np.clip(pred, LOG_EPS, 1.0 - LOG_EPS)
    pos = truth == 1.0
    log_y = np.log(yhat)
    log_1my = np.log1p(-yhat)

    pos_terms = (1.0 - yhat) ** p.alpha * log_y
    neg_terms = (1.0 - truth) ** p.beta * yhat**p.alpha * log_1my
    loss = -float(np.where(pos, pos_terms, neg_terms).sum()) / n

    # d/dyhat of each branch
    dpos = -p.alpha * (1.0 - yhat) ** (p.alpha - 1.0) * log_y + (1.0 - yhat) ** p.alpha / yhat
    dneg = (1.0 - truth) ** p.beta * (
        p.alpha * yhat ** (p.alpha - 1.0) * log_1my - yhat**p.alpha / (1.0 - yhat)
    )
    grad = np.where(pos, dpos, dneg) * (-1.0 / n)
    grad = np.where(inside, grad, 0.0)  # clamped pixels are flat
    return loss, grad


def smooth_l1(d):
    """Elementwise smooth L1: 0.5*d^2 for |d| < 1, |d| - 0.5 otherwise."""
    d = np.asarray(d, dtype=float)
    return np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)


def offset_loss(pred_offsets, truth_offsets):
    """Mean smooth-L1 offset regression loss over N keypoints.

    Inputs are (N, 2) arrays of (ox, oy); the per-keypoint coordinate terms
    are summed, then averaged over keypoints.  N = 0 gives loss 0.
    """
    pred = np.asarray(pred_offsets, dtype=float).reshape(-1, 2)
    truth = np.asarray(truth_offsets, dtype=float).reshape(-1, 2)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    n = pred.shape[0]
    if n == 0:
        return 0.0, np.zeros((0, 2))
    d = pred - truth
    loss = float(smooth_l1(d).sum()) / n
    grad = np.where(np.abs(d) < 1.0, d, np.sign(d)) / n
    return loss, grad


def ground_truth_offset(pixel, ratio):
    """Sub-pixel target for a keypoint at integer image pixel (i, j):
    the fractional parts of (i/R, j/R)."""
    i, j = pixel
    if i < 0 or j < 0:
        raise ValueError(f"negative pixel {pixel}")
    if ratio < 1:
        raise ValueError(f"downsample ratio must be >= 1, got {ratio}")
    return (i / ratio - math.floor(i / ratio), j / ratio - math.floor(j / ratio))


def pull_loss(pairs):
    """Pull keypoint embeddings of one grasp toward their pair mean.

    ``pairs`` is (N, 2): per-grasp left and right embedding values.
    Loss is (1/N) * sum_k [(e_l - m_k)^2 + (e_r - m_k)^2] with m_k the pair
    mean; zero when every pair agrees.  Returns (loss, grad (N, 2)).
    """
    e = np.asarray(pairs, dtype=float).reshape(-1, 2)
    n = e.shape[0]
    if n == 0:
        return 0.0, np.zeros((0, 2))
    mean = e.mean(axis=1, keepdims=True)
    dev = e - mean
    loss = float((dev * dev).sum()) / n
    # reduces to (e_l - e_r)^2 / 2 per pair; gradient is +-(e_l - e_r)/N
    diff = e[:, 0] - e[:, 1]
    grad = np.stack([diff, -diff], axis=1) / n
    return loss, grad


def push_loss(pairs):
    """Push mean embeddings of different grasps at least 1 apart.

    Hinge on pair-mean distances, averaged over the N(N-1) ordered pairs;
    zero for N <= 1.  Returns (loss, grad (N, 2)).
    """
    e = np.asarray(pairs, dtype=float).reshape(-1, 2)
    n = e.shape[0]
    if n <= 1:
        return 0.0, np.zeros_like(e)
    means = e.mean(axis=1)
    diff = means[:, None] - means[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    hinge = np.clip(1.0 - np.abs(diff), 0.0, None)
    denom = n * (n - 1)
    loss = float(hinge[off_diag].sum()) / denom
    active = (np.abs(diff) < 1.0) & off_diag
    # each unordered pair appears twice in the sum; d mean / d component = 1/2
    dmean = -2.0 * (np.sign(diff) * active).sum(axis=1) / denom
    grad = np.repeat((dmean / 2.0)[:, None], 2, axis=1)
    return loss, grad


def total_loss(det_keypoint, det_center, pull, push, offset, weights=None):
    """Weighted sum of the five loss components."""
    w = LossWeights() if weights is None else weights
    return float(det_keypoint + det_center + w.pull * pull + w.push * push + w.offset * offset)


class GradientError(ValueError):
    """Analytic gradient is non-finite at the checked point."""


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    max_error: float
    worst_coordinate: tuple
    n_coordinates: int
    step: float
    rel_tol: float
    abs_floor: float
    passed: bool

    def to_dict(self):
        return {**asdict(self), "worst_coordinate": list(self.worst_coordinate)}


def gradient_check(fn, point, step=1e-5, rel_tol=1e-4):
    """Compare ``fn``'s analytic gradient against central differences.

    ``fn(x) -> (loss, grad)`` with grad shaped like x.  The caller must pick
    points at least ~10*step away from any kink.  Per coordinate, the error
    is |fd - an| / max(|fd|, |an|, abs_floor/rel_tol) with a fixed
    abs_floor = 1e-7, so mismatches smaller than abs_floor pass regardless
    of relative size (zero-gradient points).
    """
    abs_floor = 1e-7
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step {step} outside [1e-7, 1e-3]")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")
    if not math.isfinite(abs_floor / rel_tol):
        raise ValueError(f"rel_tol {rel_tol} is too small: abs_floor / rel_tol overflows")
    x0 = np.asarray(point, dtype=float)
    _, g_an = fn(x0)
    g_an = np.asarray(g_an, dtype=float)
    if not np.isfinite(g_an).all():
        bad = np.argwhere(~np.isfinite(g_an))[0]
        raise GradientError(f"non-finite analytic gradient at coordinate {tuple(int(v) for v in bad)}")
    g_fd = np.zeros_like(g_an)
    flat = x0.reshape(-1)
    fd_flat = g_fd.reshape(-1)
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += step
        xm[i] -= step
        lp, _ = fn(xp.reshape(x0.shape))
        lm, _ = fn(xm.reshape(x0.shape))
        fd_flat[i] = (lp - lm) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(g_fd), np.abs(g_an)), abs_floor / rel_tol)
    err = np.abs(g_fd - g_an) / denom
    worst = int(np.argmax(err))
    return GradCheckReport(
        max_error=float(err.reshape(-1)[worst]),
        worst_coordinate=tuple(int(v) for v in np.unravel_index(worst, x0.shape)),
        n_coordinates=int(flat.size),
        step=float(step),
        rel_tol=float(rel_tol),
        abs_floor=abs_floor,
        passed=bool(err.reshape(-1)[worst] < rel_tol),
    )
