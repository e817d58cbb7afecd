"""Built-in numerical checks and the seeded generators they draw from.

``run_gradcheck_battery`` validates every loss gradient by finite
differences; ``run_selftest`` runs a quick oracle round trip through the
pipeline, the gradient battery and the GKTB format.  ``separated_grasps``
and ``random_bundle`` are the seeded inputs of these checks and of the
test suite; their draw order is part of the determinism contract.
"""

from __future__ import annotations

import io
import math

import numpy as np

from . import losses
from .bundle import _PLANE_COUNTS, HeatmapBundle, _plane_shape, read_bundle, write_bundle
from .encoder import EncoderConfig, ideal_bundle
from .geometry import Grasp, _integer, _shown, rect_from_grasp, rotated_iou, wrap_angle
from .grouper import group
from .profiles import get_profile


def _detection_sample(rng, step):
    truth = rng.uniform(0.0, 0.9, size=(2, 4, 4))
    truth[rng.random(size=(2, 4, 4)) < 0.1] = 1.0
    pred = rng.uniform(0.05, 0.95, size=(2, 4, 4))
    n = int(rng.integers(1, 5))
    return (lambda x: losses.detection_loss(x, truth, n)), pred


def _detection_center_sample(rng, step):
    truth = rng.uniform(0.0, 0.9, size=(5, 5))
    truth[rng.integers(0, 5), rng.integers(0, 5)] = 1.0
    pred = rng.uniform(0.05, 0.95, size=(5, 5))
    return (lambda x: losses.detection_loss(x, truth, 1)), pred


def _offset_sample(rng, step):
    truth = rng.random((6, 2))
    # stay >= 10*step away from the smooth-L1 kink at |d| = 1
    pred = truth + rng.uniform(-0.9, 0.9, size=(6, 2))
    return (lambda x: losses.offset_loss(x, truth)), pred


def _pull_sample(rng, step):
    return losses.pull_loss, rng.normal(0.0, 2.0, size=(5, 2))


def _push_sample(rng, step):
    while True:
        pairs = rng.normal(0.0, 2.0, size=(4, 2))
        means = pairs.mean(axis=1)
        gaps = np.abs(means[:, None] - means[None, :])[~np.eye(4, dtype=bool)]
        # keep clear of the hinge kinks at gap 0 and gap 1
        if not (np.any(np.abs(gaps - 1.0) < 10 * step) or np.any(gaps < 10 * step)):
            return losses.push_loss, pairs


# Each sampler draws one smooth point from ``rng`` and returns ``(fn, point)``.
# They share one generator, so their order is part of the battery's output.
_SAMPLERS = {"detection": _detection_sample, "detection_center": _detection_center_sample,
             "offset": _offset_sample, "pull": _pull_sample, "push": _push_sample}


def run_gradcheck_battery(seed=0, points=100, step=1e-5, tolerance=1e-4):
    """Finite-difference validation of all five losses at random smooth points."""
    if not _integer(points) or points < 1:
        raise ValueError(f"points must be >= 1, got {_shown(points)}")
    rng = np.random.default_rng(seed)
    results = {}
    for name, sample in _SAMPLERS.items():
        worst = 0.0
        for _ in range(points):
            fn, point = sample(rng, step)
            report = losses.gradient_check(fn, point, step=step, rel_tol=tolerance)
            worst = max(worst, report.max_error)
        results[name] = {"max_error": worst, "passed": worst < tolerance}
    passed = all(entry["passed"] for entry in results.values())
    return {"seed": seed, "points": points, "step": step, "tolerance": tolerance,
            "losses": results, "passed": passed}


def run_selftest(seed=0):
    """Quick end-to-end health check: pipeline round-trip, gradients, format."""
    checks = []
    rng = np.random.default_rng(seed)

    recovered = 0
    expected = 0
    for trial in range(10):
        profile = get_profile("cornell" if trial % 2 == 0 else "ajd")
        config = EncoderConfig(228, 228, profile.num_classes, profile.downsample_ratio)
        grasps = separated_grasps(rng, int(rng.integers(1, 6)))
        bundle = ideal_bundle(grasps, config, seed=int(rng.integers(0, 2**31)))
        found = group(bundle, profile.thresholds)
        expected += len(grasps)
        for g in grasps:
            rect = rect_from_grasp(g, 20.0)
            recovered += any(rotated_iou(rect, rect_from_grasp(f, 20.0)) > 0.9 for f in found)
    checks.append(
        {"name": "pipeline-round-trip", "passed": recovered == expected,
         "detail": f"{recovered}/{expected} grasps recovered"}
    )

    grad = run_gradcheck_battery(seed=seed, points=20)
    checks.append(
        {"name": "gradient-check", "passed": grad["passed"],
         "detail": {k: v["max_error"] for k, v in grad["losses"].items()}}
    )

    fmt_ok = True
    for _ in range(10):
        bundle = random_bundle(rng)
        buf = io.BytesIO()
        write_bundle(bundle, buf)
        buf.seek(0)
        if not read_bundle(buf).equals(bundle):
            fmt_ok = False
    checks.append({"name": "gktb-round-trip", "passed": fmt_ok, "detail": "10 random bundles"})

    return {"seed": seed, "checks": checks, "passed": all(c["passed"] for c in checks)}


def separated_grasps(rng, n, image=228, grid=3):
    """1..grid^2 grasps in distinct cells of a grid over a square image, so
    their keypoints stay far apart pairwise."""
    cell = image // grid
    cells = rng.permutation(grid * grid)[:n]
    grasps = []
    for cellno in cells:
        r, c = divmod(int(cellno), grid)
        cx = c * cell + cell / 2 + float(rng.uniform(-4, 4))
        cy = r * cell + cell / 2 + float(rng.uniform(-4, 4))
        theta = wrap_angle(float(rng.uniform(-math.pi / 2, math.pi / 2)))
        w = float(rng.uniform(20, 36))
        grasps.append(Grasp(cx, cy, theta, w))
    return grasps


def random_bundle(rng):
    """A valid random bundle (uniform heatmaps, offsets in [0, 1), normal embeddings)."""
    c = int(rng.integers(1, 5))
    h = int(rng.integers(2, 12))
    w = int(rng.integers(2, 12))
    planes = {}
    for name in _PLANE_COUNTS:
        shape = _plane_shape(name, c, h, w)
        planes[name] = (rng.normal(size=shape).astype(np.float32) if name.startswith("embed")
                        else rng.random(shape, dtype=np.float32))
    return HeatmapBundle(**planes, num_classes=c, downsample_ratio=int(rng.integers(1, 8)))
