"""Top-k keypoint extraction from heatmap bundles.

Per class plane, a 3x3 local-maximum suppression zeroes non-maxima (the
usual center/corner-decoder trick; switchable).  The 3x3 maximum is a numpy
slice max over the plane zero-padded by one pixel: a max over three row
shifts, then over three column shifts.  Then the k highest-scoring (class,
pixel) entries survive with ties broken by ascending (class, row, col).
Coordinates are refined to input-image resolution with the offset planes:
(pixel + offset) * R, the exact inverse of the encoder's quantization.
Embeddings are read at the winning integer pixel.
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


def select_grasp_keypoints(heatmaps, embeddings, offsets, k, ratio, role="left", suppress=True):
    """Top-k keypoints of one role; shorter list when fewer pixels score > 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stack = np.asarray(heatmaps, dtype=np.float32)
    if stack.ndim == 2:
        stack = stack[None]
    if suppress:
        stack = suppress_non_maxima(stack)
    n_cls, h, w = stack.shape
    flat = stack.reshape(-1)
    nz = np.flatnonzero(flat > 0)
    if nz.size == 0:
        return []
    values = flat[nz]
    if nz.size > k:
        # keep everything scoring at least the k-th largest score, ties
        # included, so the sort below still breaks ties by flat index
        kth = np.partition(values, nz.size - k)[nz.size - k]
        keep = values >= kth
        nz, values = nz[keep], values[keep]
    # primary key: score descending; flat index order is (class, row, col)
    order = np.lexsort((nz, -values))
    top = nz[order[:k]]
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
