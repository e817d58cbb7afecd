"""Render annotation grasps into heatmap training targets.

Each surviving grasp splats an unnormalized Gaussian (peak exactly 1 at the
floor-quantized heatmap pixel) onto the left/right plane of its orientation
class and onto the single center plane; overlapping Gaussians combine by
elementwise max.  Sub-pixel offsets are stored densely at the keypoint
pixels.  Dense annotations are deduplicated first-wins: a grasp whose left
or right heatmap pixel collides with an earlier grasp's same-role pixel,
on any class plane, is dropped entirely, because offsets and embeddings
are stored per pixel, not per class.

:func:`ideal_bundle` additionally fills the embedding planes so that the
bundle decodes back to its annotations, which makes it the oracle for
end-to-end decoder/grouper tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bundle import _PLANE_COUNTS, HeatmapBundle, _plane_shape
from .decoder import TOP_K
from .geometry import _cell, _require_count, _rng, angle_to_class, grasp_to_pair

# largest float32 strictly below 1.0; keeps stored offsets inside [0, 1)
_OFFSET_CEIL = np.float32(1.0 - 2.0**-24)


class AnnotationError(ValueError):
    """An annotation grasp cannot be encoded (e.g. keypoint off-image)."""


class CapacityError(ValueError):
    """More grasps than the decoder's top-k budget can represent."""


@dataclass(frozen=True)
class EncoderConfig:
    """Geometry of the target tensors.

    Heatmap dims are ceil(image dims / downsample_ratio).  The Gaussian
    width is not configurable: each grasp uses the scale-adaptive
    sigma = max(1, w / (3 * R)), and splats are truncated at 3 sigma.
    """

    image_height: int
    image_width: int
    num_classes: int
    downsample_ratio: int = 4

    def __post_init__(self):
        for f in fields(self):
            _require_count(f.name, getattr(self, f.name))

    @property
    def heatmap_shape(self):
        return tuple(-(-size // self.downsample_ratio) for size in (self.image_height, self.image_width))


@dataclass(frozen=True)
class EncodedGrasp:
    """Index entry for one surviving grasp: heatmap pixels are (row, col),
    offsets are (ox, oy) fractional parts of (x/R, y/R)."""

    index: int
    class_index: int
    left_pixel: tuple
    right_pixel: tuple
    left_offset: tuple
    right_offset: tuple


def _gaussian(sigma, cap):
    """Truncated Gaussian bump, peak 1.0 in its middle: a square float32 kernel of
    radius ceil(3 sigma) capped at ``cap``, the heatmap's larger side, beyond any splat's reach."""
    radius = min(math.ceil(3.0 * sigma), cap)
    d2 = np.arange(-radius, radius + 1) ** 2  # squared offsets from the middle
    return np.exp(-(d2[:, None] + d2) / (2.0 * sigma * sigma)).astype(np.float32)


def _splat(plane, row, col, bump):
    """Max-combine the part of ``bump`` that lies on ``plane``, its middle at (row, col)."""
    radius = len(bump) // 2
    r0, c0 = max(0, row - radius), max(0, col - radius)
    window = plane[r0 : row + radius + 1, c0 : col + radius + 1]
    top, left = r0 - row + radius, c0 - col + radius
    np.maximum(window, bump[top : top + window.shape[0], left : left + window.shape[1]], out=window)


def encode_targets(grasps, config):
    """Encode an ordered annotation list into bundle-shaped targets.

    Returns ``(bundle, index)`` where the bundle's embedding planes are
    zero and ``index`` lists one :class:`EncodedGrasp` per surviving grasp
    in file order.
    """
    hm_h, hm_w = config.heatmap_shape
    r = config.downsample_ratio
    n_cls = config.num_classes
    bundle = HeatmapBundle(**{name: np.zeros(_plane_shape(name, n_cls, hm_h, hm_w), dtype=np.float32)
                              for name in _PLANE_COUNTS}, num_classes=n_cls, downsample_ratio=r)
    # per role: heatmap stack, offset stack, keypoint pixels taken so far
    taken_left, taken_right = set(), set()
    roles = ((bundle.left, bundle.offsetL, taken_left), (bundle.right, bundle.offsetR, taken_right))
    index = []
    for gi, g in enumerate(grasps):
        pair = grasp_to_pair(g)
        for px, py in (pair.left, pair.right):
            if not (0 <= px < config.image_width and 0 <= py < config.image_height):
                raise AnnotationError(
                    f"grasp {gi}: keypoint ({px:.2f}, {py:.2f}) outside "
                    f"{config.image_width}x{config.image_height} image"
                )
        cls = angle_to_class(g.theta, n_cls)
        cells = [(_cell(px, r), _cell(py, r)) for px, py in (pair.left, pair.right)]
        pixels = [(row, col) for (col, _), (row, _) in cells]
        if pixels[0] in taken_left or pixels[1] in taken_right:
            continue  # first grasp at this pixel wins

        bump = _gaussian(max(1.0, g.w / (3.0 * r)), max(hm_h, hm_w))
        for ((col, ox), (row, oy)), (heat, offset, taken) in zip(cells, roles):
            taken.add((row, col))
            _splat(heat[cls], row, col, bump)
            offset[0, row, col] = min(np.float32(ox), _OFFSET_CEIL)
            offset[1, row, col] = min(np.float32(oy), _OFFSET_CEIL)
        _splat(bundle.center, _cell(g.y, r)[0], _cell(g.x, r)[0], bump)
        index.append(EncodedGrasp(gi, cls, *pixels, *[(ox, oy) for (_, ox), (_, oy) in cells]))

    return bundle, index


# Background embedding levels.  Keypoint pixels carry per-grasp values that
# start >= 2 with pairwise gaps >= 1.5, so no pairing that involves a
# background pixel (or two different grasps) can pass an embedding-distance
# filter with threshold <= 1.
_BG_EMBED_LEFT = 0.0
_BG_EMBED_RIGHT = -1000.0


def ideal_bundle(grasps, config, seed=0):
    """Noise-free bundle whose decoding recovers the given annotations.

    Keypoint and center peaks are exact unit maxima, offsets are exact, and
    each grasp's left/right embeddings are equal to each other while pair
    means of different grasps stay >= 1.5 apart (deterministic per seed).
    More than ``decoder.TOP_K`` grasps, the decoder's default top-k budget,
    raise :class:`CapacityError`.
    """
    grasps = list(grasps)
    if len(grasps) > TOP_K:
        raise CapacityError(f"{len(grasps)} grasps exceed the top-{TOP_K} decoding budget")
    bundle, index = encode_targets(grasps, config)
    bundle.embedL.fill(_BG_EMBED_LEFT)
    bundle.embedR.fill(_BG_EMBED_RIGHT)
    rng = _rng(seed)
    base = rng.uniform(2.0, 2.5)
    ranks = rng.permutation(len(index))
    for enc, rank in zip(index, ranks):
        value = np.float32(base + 1.5 * rank)
        bundle.embedL[enc.left_pixel] = value
        bundle.embedR[enc.right_pixel] = value
    return bundle
