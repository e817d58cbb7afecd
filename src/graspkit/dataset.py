"""Dataset curation tools: coverage-ratio filtering and RG-D whitening.

The coverage filter keeps annotations whose grasp rectangles cover more
than 0.8 of the object mask, removes those below 0.2 and flags the band in
between for manual review (the review itself is a human judgement call --
symmetric-side sparsity, implausible grasps, sparse sampling and
orientation variance -- and stays outside the code).

RG-D composition replaces the blue channel with the depth channel
(pre-normalized to [0, 255]), rescales to [0, 1] and whitens per channel
with the published dataset statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _finite_number, _rect_frame, _shown, rect_from_grasp


class DegenerateMaskError(ValueError):
    """Object mask has no foreground pixels."""


@dataclass(frozen=True)
class CoverageDecision:
    ratio: float
    decision: str  # "keep" | "remove" | "flag-for-review"


def classify_annotation(ratio):
    """Coverage rule: keep above 0.8, remove below 0.2, review between.

    Boundary ratios 0.2 and 0.8 fall into the review band.
    """
    if not (_finite_number(ratio) and 0.0 <= ratio <= 1.0):
        raise ValueError(f"ratio {_shown(ratio)} outside [0, 1]")
    if ratio > 0.8:
        return CoverageDecision(float(ratio), "keep")
    if ratio < 0.2:
        return CoverageDecision(float(ratio), "remove")
    return CoverageDecision(float(ratio), "flag-for-review")


def coverage_ratio(grasps, mask):
    """|union of grasp rectangles intersected with mask| / |mask|.

    Rasterized at image resolution (pixel-center membership); grasps must
    carry their annotated rectangle height.
    """
    m = np.asarray(mask)
    binary = m > 0.5
    total = int(binary.sum())
    if total == 0:
        raise DegenerateMaskError("mask has no foreground pixels")
    union = np.zeros(binary.shape, dtype=bool)
    for g in grasps:
        rect = rect_from_grasp(g)
        half_u, half_v = rect.width / 2.0, rect.height / 2.0
        window, u, v = _rect_frame(rect.center, rect.theta, half_u, half_v, binary.shape)
        union[window] |= (u <= half_u) & (v <= half_v)
    return float((union & binary).sum()) / total


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel whitening statistics on the [0, 1] scale."""

    means: tuple
    stds: tuple
    profile: str

    def __post_init__(self):
        if len(self.means) != 3 or len(self.stds) != 3:
            raise ValueError("need exactly three channel means and stds")
        if not all(_finite_number(m) for m in self.means):
            raise ValueError(f"means must be finite numbers, got {', '.join(map(_shown, self.means))}")
        if not all(_finite_number(s) and s > 0 for s in self.stds):
            raise ValueError(f"stds must be finite and positive, got {', '.join(map(_shown, self.stds))}")


CORNELL_STATS = ChannelStats(means=(0.85, 0.81, 0.25), stds=(0.10, 0.11, 0.09), profile="cornell")
AJD_STATS = ChannelStats(means=(0.71, 0.71, 0.20), stds=(0.06, 0.07, 0.09), profile="ajd")


def compose_rgd(rgb, depth, stats):
    """Whitened (R, G, D) stack from raw [0, 255] channels.

    The depth plane replaces blue; every channel is rescaled to [0, 1] and
    whitened as (x - mean) / std.
    """
    rgb = np.asarray(rgb, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if rgb.ndim != 3 or rgb.shape[0] != 3:
        raise ValueError(f"rgb must be (3, H, W), got {rgb.shape}")
    if depth.shape != rgb.shape[1:]:
        raise ValueError(f"depth {depth.shape} does not match rgb planes {rgb.shape[1:]}")
    stack = np.stack([rgb[0], rgb[1], depth]) / 255.0
    means = np.asarray(stats.means, dtype=float)[:, None, None]
    stds = np.asarray(stats.stds, dtype=float)[:, None, None]
    return (stack - means) / stds


def invert_rgd(whitened, stats):
    """Undo :func:`compose_rgd`, returning raw-scale (R, G, D) in [0, 255]."""
    whitened = np.asarray(whitened, dtype=float)
    if whitened.ndim != 3 or whitened.shape[0] != 3:
        raise ValueError(f"whitened stack must be (3, H, W), got {whitened.shape}")
    means = np.asarray(stats.means, dtype=float)[:, None, None]
    stds = np.asarray(stats.stds, dtype=float)[:, None, None]
    return (whitened * stds + means) * 255.0
