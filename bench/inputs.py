"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed gives the same
grasps, masks and GKTB bytes on every machine.  The library only ever sees
the generated inputs, never the seed.
"""

from __future__ import annotations

import io
import math

import numpy as np

from graspkit import (
    AJD,
    CORNELL,
    EncoderConfig,
    Grasp,
    ideal_bundle,
    wrap_angle,
    write_bundle,
)

IMAGE = 228
PROFILES = (CORNELL, AJD)
K = 100


def encoder_config(profile):
    return EncoderConfig(
        image_height=IMAGE,
        image_width=IMAGE,
        num_classes=profile.num_classes,
        downsample_ratio=profile.downsample_ratio,
    )


def separated_grasps(rng, n, grid=3):
    """n annotated grasps (with rectangle height) in distinct cells of a
    grid x grid layout, so no two keypoints collide on the heatmap."""
    cell = IMAGE // grid
    grasps = []
    for cellno in rng.permutation(grid * grid)[:n]:
        row, col = divmod(int(cellno), grid)
        cx = col * cell + cell / 2 + float(rng.uniform(-4, 4))
        cy = row * cell + cell / 2 + float(rng.uniform(-4, 4))
        theta = wrap_angle(float(rng.uniform(-math.pi / 2, math.pi / 2)))
        grasps.append(Grasp(cx, cy, theta, float(rng.uniform(20, 36)), float(rng.uniform(12, 24))))
    return grasps


def object_mask(grasps):
    """Binary object mask: a disc around each grasp center."""
    yy, xx = np.mgrid[0:IMAGE, 0:IMAGE]
    mask = np.zeros((IMAGE, IMAGE), dtype=np.float32)
    for g in grasps:
        radius = g.w / 2 + 4
        mask[(xx - g.x) ** 2 + (yy - g.y) ** 2 <= radius * radius] = 1.0
    return mask


def truth_count(i):
    """Grasps on image i: 1 to 9 in turn, so every 18 images hold each
    (profile, count) pair once and the seed moves no work between runs."""
    return 1 + i % 9


def clean_images(seed, n):
    """n oracle images alternating the Cornell and AJD profiles."""
    rng = np.random.default_rng([seed, 1])
    images = []
    for i in range(n):
        truths = separated_grasps(rng, truth_count(i))
        images.append(
            {
                "id": f"img{i:03d}",
                "profile": PROFILES[i % 2],
                "truths": truths,
                "mask": object_mask(truths),
                "embed_seed": int(rng.integers(0, 2**31)),
            }
        )
    return images


# Clutter levels.  Dense background noise stays below every clutter peak and
# clutter peaks stay below the unit-height true peaks, so the true grasps are
# still decoded while top-k fills up with clutter.
_NOISE_MAX = 0.05
_PEAKS_PER_ROLE = 160
_PEAK_RANGE = (0.2, 0.9)
_CENTER_RANGE = (0.0, 0.45)


def noisy_bundle(truths, profile, rng, embed_seed):
    """Ideal bundle for ``truths`` with seeded clutter that stands in for a
    real network: random peaks and dense low noise on every heatmap plane,
    jittered offsets and background embeddings overlapping the grasp values."""
    bundle = ideal_bundle(truths, encoder_config(profile), seed=embed_seed)
    h, w = bundle.center.shape

    def clutter(stack):
        noise = rng.uniform(0.0, _NOISE_MAX, size=stack.shape).astype(np.float32)
        flat = noise.reshape(-1)
        picks = rng.choice(flat.size, size=_PEAKS_PER_ROLE, replace=False)
        flat[picks] = rng.uniform(*_PEAK_RANGE, size=picks.size)
        return np.maximum(stack, noise)

    def embeddings(plane):
        hi = float(plane.max())
        noise = rng.uniform(1.5, max(hi, 2.5) + 0.5, size=plane.shape).astype(np.float32)
        return np.where(plane >= 2.0, plane, noise)

    def offsets(stack):
        jitter = rng.uniform(0.0, 1.0, size=stack.shape).astype(np.float32)
        return np.where(stack > 0, stack, np.minimum(jitter, np.float32(0.999)))

    bundle.left = clutter(bundle.left)
    bundle.right = clutter(bundle.right)
    bundle.center = np.maximum(
        bundle.center, rng.uniform(*_CENTER_RANGE, size=(h, w)).astype(np.float32)
    )
    bundle.offsetL = offsets(bundle.offsetL)
    bundle.offsetR = offsets(bundle.offsetR)
    bundle.embedL = embeddings(bundle.embedL)
    bundle.embedR = embeddings(bundle.embedR)
    return bundle


def noisy_images(seed, n):
    """n noisy validation images (GKTB bytes plus truths), both profiles."""
    rng = np.random.default_rng([seed, 2])
    images = []
    for i in range(n):
        profile = PROFILES[i % 2]
        truths = separated_grasps(rng, truth_count(i))
        buf = io.BytesIO()
        write_bundle(noisy_bundle(truths, profile, rng, int(rng.integers(0, 2**31))), buf)
        images.append({"id": f"img{i:03d}", "profile": profile, "truths": truths, "gktb": buf.getvalue()})
    return images
