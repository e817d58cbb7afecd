"""Top-k keypoint extraction from heatmap bundles.

Per class plane, a 3x3 local-maximum suppression zeroes non-maxima (the
usual center/corner-decoder trick; switchable).  The 3x3 maximum is a numpy
slice max over the plane zero-padded by one pixel: a max over three row
shifts, then over three column shifts.  Then the k highest-scoring (class,
pixel) entries survive with ties broken by ascending (class, row, col).
Coordinates are refined to input-image resolution with the offset planes:
(pixel + offset) * R, the exact inverse of the encoder's quantization.
Embeddings are read at the winning integer pixel.

Top-k selection runs that rule without suppressing every pixel.  Only
candidate pixels get the 3x3 test, by eight lookups each: every positive
pixel when there are few, else the positive pixels scoring at least the
(4k)-th highest positive score.  This is exact.  A peak outside the
candidate set scores below every candidate, so when the candidates hold at
least k peaks, those k are the top k of the whole stack.  When they hold
fewer, or when ties make them too many to test for less than a whole-stack
suppression (a plateau), the whole stack is suppressed instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectedKeypoint:
    """One decoded keypoint in input-image coordinates."""

    x: float
    y: float
    class_index: int
    score: float
    embedding: float
    role: str


def suppress_non_maxima(stack):
    """Zero every pixel that is not a 3x3 local maximum of its plane.

    Pixels outside the plane count as 0.0, so on a plane with negative
    values the border pixels are suppressed.
    """
    arr = np.asarray(stack, dtype=np.float32)
    padded = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(1, 1), (1, 1)])
    rows = np.maximum(padded[..., :-2, :], padded[..., 1:-1, :])
    np.maximum(rows, padded[..., 2:, :], out=rows)
    peaks = np.maximum(rows[..., :-2], rows[..., 1:-1])
    np.maximum(peaks, rows[..., 2:], out=peaks)
    return np.where(arr == peaks, arr, np.float32(0.0))


def _top_k(flat, nz, k):
    """The k indices of ``nz`` with the highest ``flat`` values, ties broken
    by ascending flat index, which is (class, row, col) order."""
    values = flat[nz]
    if nz.size > k:
        # keep everything scoring at least the k-th largest score, ties
        # included, so the sort below still breaks ties by flat index
        kth = np.partition(values, nz.size - k)[nz.size - k]
        keep = values >= kth
        nz, values = nz[keep], values[keep]
    return nz[np.lexsort((nz, -values))[:k]]


def _peaks_among(flat, cand, h, w):
    """The pixels of ``cand`` (flat indices of positive pixels of a
    (classes, h, w) stack) that :func:`suppress_non_maxima` keeps.

    A positive pixel is kept iff no neighbour in its plane is greater or NaN;
    the 0.0 outside the plane never is.  So a step that would leave the plane
    is not taken, which only repeats a pixel of the window.
    """
    row, col = np.divmod(cand % (h * w), w)
    zero = np.zeros_like(cand)
    row_steps = (np.where(row > 0, -w, 0), zero, np.where(row < h - 1, w, 0))
    col_steps = (np.where(col > 0, -1, 0), zero, np.where(col < w - 1, 1, 0))
    value = flat[cand]
    keep = np.ones(cand.shape, dtype=bool)
    for dr in row_steps:
        shifted = cand + dr
        for dc in col_steps:
            keep &= flat[shifted + dc] <= value
    return cand[keep]


# Candidates per top-k slot, and the share of a stack beyond which testing
# candidates costs more than suppressing the whole stack: testing one
# candidate costs about as much as suppressing eight pixels.
_CANDIDATES_PER_K = 4
_MAX_CANDIDATE_SHARE = 8


def _high_candidates(flat, positive, n_positive, k, bound):
    """Flat indices of the pixels scoring at least the (4k)-th highest
    positive score, or None when they number more than ``bound``."""
    cut = n_positive - _CANDIDATES_PER_K * k
    if cut <= 0:
        return None
    # over positive values only: a partition over many equal zeros is slow
    values = flat if n_positive == flat.size else flat[positive]
    # Pixels at the top score are candidates for any threshold, so a plateau
    # there shows them too many without the partition, which equal values
    # slow down as well.
    if np.count_nonzero(values == values.max()) > bound:
        return None
    high = flat >= np.partition(values, cut)[cut]
    return np.flatnonzero(high) if np.count_nonzero(high) <= bound else None


def _top_peaks(stack, k):
    """Flat indices of the top-k positive peaks of ``suppress_non_maxima(stack)``,
    by the candidate test the module docstring describes."""
    _, h, w = stack.shape
    flat = stack.reshape(-1)
    bound = flat.size // _MAX_CANDIDATE_SHARE
    positive = flat > 0
    n_positive = np.count_nonzero(positive)
    if n_positive <= bound:
        return _top_k(flat, _peaks_among(flat, np.flatnonzero(positive), h, w), k)
    cand = _high_candidates(flat, positive, n_positive, k, bound)
    if cand is not None:
        peaks = _peaks_among(flat, cand, h, w)
        if peaks.size >= k:
            return _top_k(flat, peaks, k)
    suppressed = suppress_non_maxima(stack).reshape(-1)
    return _top_k(suppressed, np.flatnonzero(suppressed > 0), k)


def select_grasp_keypoints(heatmaps, embeddings, offsets, k, ratio, role="left", suppress=True):
    """Top-k keypoints of one role; shorter list when fewer pixels score > 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stack = np.asarray(heatmaps, dtype=np.float32)
    if stack.ndim == 2:
        stack = stack[None]
    n_cls, h, w = stack.shape
    flat = stack.reshape(-1)
    if suppress:
        top = _top_peaks(stack, k)
    else:
        top = _top_k(flat, np.flatnonzero(flat > 0), k)
    if top.size == 0:
        return []
    cls = top // (h * w)
    rem = top % (h * w)
    rows = rem // w
    cols = rem % w
    off = np.asarray(offsets, dtype=np.float32)
    emb = np.asarray(embeddings, dtype=np.float32)
    xs = (cols + off[0, rows, cols]) * ratio
    ys = (rows + off[1, rows, cols]) * ratio
    xs = np.clip(xs, 0.0, w * ratio)
    ys = np.clip(ys, 0.0, h * ratio)
    return [
        DetectedKeypoint(x=x, y=y, class_index=c, score=s, embedding=e, role=role)
        for x, y, c, s, e in zip(
            xs.tolist(), ys.tolist(), cls.tolist(), flat[top].tolist(), emb[rows, cols].tolist()
        )
    ]


def decode_bundle(bundle, k=100, suppress=True):
    """Decode both keypoint roles of a bundle with identical rules."""
    left = select_grasp_keypoints(
        bundle.left, bundle.embedL, bundle.offsetL, k, bundle.downsample_ratio,
        role="left", suppress=suppress,
    )
    right = select_grasp_keypoints(
        bundle.right, bundle.embedR, bundle.offsetR, k, bundle.downsample_ratio,
        role="right", suppress=suppress,
    )
    return left, right
