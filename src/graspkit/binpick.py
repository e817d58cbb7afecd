"""Seeded bin-picking simulation on synthetic block scenes.

A scene is a constant-depth support surface with axis-aligned rectangular
blocks; rendered depth at a block pixel is surface minus block height
(later blocks win where footprints overlap).  The picking loop mirrors the
physical protocol: detect grasps on the current depth image, score them,
attempt one, and stop when either the bin is empty or the same object has
failed five consecutive times.  A simulated attempt succeeds iff the grasp
is feasible by its scores (valid, collision-free s_c == 1 and
majority-occupied interior s_o > 0.5) and its center lies on a block
footprint.  The attempt takes the first grasp in score order that is
feasible, else the first grasp; the block footprints (the scene's ground
truth) play no part in the choice.

Everything is a pure function of (seed, detector): logs are bit-identical
across runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .depth import DepthImage, _require_surface_level, score_grasps
from .encoder import EncoderConfig, ideal_bundle
from .geometry import HALF_PI, Grasp, _finite_number, _require_count, _require_integer, _rng, _shown
from .geometry import grasp_to_record
from .grouper import GroupingThresholds, group

# Extra jaw opening beyond the block extent so finger footprints land on
# clear surface; blocks narrower than the gripper interior would fail the
# majority-occupancy rule.
GRASP_CLEARANCE_PX = 12


@dataclass(frozen=True)
class Block:
    """Axis-aligned block: integer top-left corner, integer pixel extents,
    physical height in millimeters."""

    block_id: int
    x0: int
    y0: int
    size_x: int
    size_y: int
    height_mm: float

    def __post_init__(self):
        for name in ("x0", "y0", "size_x", "size_y"):
            _require_integer(name, getattr(self, name))
        if not _finite_number(self.height_mm):  # checked once here, not on every render
            raise ValueError(f"height_mm must be a finite number, got {_shown(self.height_mm)}")

    @property
    def center(self):
        return (self.x0 + self.size_x / 2.0, self.y0 + self.size_y / 2.0)

    def contains(self, x, y):
        return self.x0 <= x < self.x0 + self.size_x and self.y0 <= y < self.y0 + self.size_y

    def oracle_grasp(self):
        """Grasp across the shorter extent with clearance for the fingers.  A
        block is frozen, so it builds this grasp once and returns it on every
        later call."""
        return self._oracle_grasp

    @functools.cached_property
    def _oracle_grasp(self):
        cx, cy = self.center
        if self.size_x <= self.size_y:
            return Grasp(cx, cy, 0.0, self.size_x + GRASP_CLEARANCE_PX)
        return Grasp(cx, cy, HALF_PI, self.size_y + GRASP_CLEARANCE_PX)


@dataclass
class SyntheticScene:
    """Mutable scene state for one bin-picking trial."""

    seed: int
    image_height: int
    image_width: int
    surface_mm: float
    blocks: list

    def render(self):
        # the scene is mutable, so its size and level are checked on every render
        shape = tuple(_require_integer(name, getattr(self, name)) for name in ("image_height", "image_width"))
        _require_surface_level(self.surface_mm)
        depth = np.full(shape, self.surface_mm, dtype=np.float32)
        for b in self.blocks:
            # clipped at 0: a negative slice bound would count from the far edge
            rows = slice(max(b.y0, 0), max(b.y0 + b.size_y, 0))
            cols = slice(max(b.x0, 0), max(b.x0 + b.size_x, 0))
            depth[rows, cols] = self.surface_mm - b.height_mm
        return DepthImage.flat_surface(depth, self.surface_mm)

    def block_at(self, x, y):
        return next((b for b in self.blocks if b.contains(x, y)), None)

    def nearest_block(self, x, y):
        return min(self.blocks, key=lambda b: math.dist(b.center, (x, y)), default=None)

    def remove(self, block_id):
        self.blocks = [b for b in self.blocks if b.block_id != block_id]


def make_scene(seed, n_objects):
    """Deterministic scene with well-separated blocks on a jittered grid.

    The support surface lies at a fixed 1000 mm and each grid cell is a
    fixed 120 px square.  The image grows with the object count (grid of
    ceil(sqrt(n)) cells per side, at least 3) so fingers of an oracle grasp
    never reach a neighbor.
    """
    cell_px = 120
    _require_count("n_objects", n_objects)
    rng = _rng(seed)
    grid = max(3, math.ceil(math.sqrt(n_objects)))
    side = grid * cell_px
    cells = rng.permutation(grid * grid)[:n_objects]
    blocks = []
    for bid, cell in enumerate(sorted(int(c) for c in cells)):
        crow, ccol = divmod(cell, grid)
        cy = crow * cell_px + cell_px // 2 + int(rng.integers(-6, 7))
        cx = ccol * cell_px + cell_px // 2 + int(rng.integers(-6, 7))
        size_x = 2 * int(rng.integers(14, 23))  # 28..44 px, even
        size_y = 2 * int(rng.integers(14, 23))
        height = float(rng.uniform(20.0, 60.0))
        blocks.append(
            Block(
                block_id=bid,
                x0=cx - size_x // 2,
                y0=cy - size_y // 2,
                size_x=size_x,
                size_y=size_y,
                height_mm=height,
            )
        )
    return SyntheticScene(
        seed=seed,
        image_height=side,
        image_width=side,
        surface_mm=1000.0,
        blocks=blocks,
    )


def oracle_detector(scene):
    """Perfect detector: proposes each remaining block's oracle grasp."""
    return lambda depth_image: [b.oracle_grasp() for b in scene.blocks]


def pipeline_detector(scene, thresholds, num_classes=18, seed=0):
    """Detector that routes the oracle annotations through the full
    encode -> decode -> group pipeline on an ideal heatmap bundle, decoding
    the top ``decoder.TOP_K`` keypoints per role.  It is not perception: it
    never reads the depth image it is given, and it re-encodes the scene's
    remaining oracle annotations on every attempt."""
    config = EncoderConfig(
        image_height=scene.image_height,
        image_width=scene.image_width,
        num_classes=num_classes,
    )

    def detect(depth_image):
        annotations = [b.oracle_grasp() for b in scene.blocks]
        if not annotations:
            return []
        bundle = ideal_bundle(annotations, config, seed=seed)
        return group(bundle, thresholds)

    return detect


@dataclass
class BinPickLog:
    """Deterministic record of one trial."""

    seed: int
    n_objects: int
    attempts: list = field(default_factory=list)

    @property
    def successes(self):
        return sum(a["success"] for a in self.attempts)

    cleared = successes  # each success removes exactly one block

    @property
    def success_rate(self):
        return 100.0 * self.successes / len(self.attempts) if self.attempts else 0.0

    @property
    def percent_cleared(self):
        return 100.0 * self.cleared / self.n_objects if self.n_objects else 0.0

    def to_dict(self):
        return {**vars(self), "successes": self.successes, "cleared": self.cleared,
                "success_rate": self.success_rate, "percent_cleared": self.percent_cleared}


def _feasible(score):
    """The score part of the success rule: valid, collision-free, and an
    interior more than half occupied."""
    return score.valid and score.collision == 1.0 and score.occupancy > 0.5


def run_bin_picking(scene, detector, model):
    """Run the sequential picking loop on ``scene`` (mutated in place).

    Each attempt scores the detector's first ``GroupingThresholds.max_output``
    grasps, the default grasp cap, and tries the first feasible one in score
    order, else the top-scored one.  Stops when (a) no blocks remain or (b)
    the same nearest object fails five times in a row.  Returns a BinPickLog.
    """
    log = BinPickLog(seed=scene.seed, n_objects=len(scene.blocks))
    failures = (None, 0)  # (nearest block id, length) of the current failure run
    while scene.blocks and failures[1] < 5:
        depth_image = scene.render()
        grasps = list(detector(depth_image))[: GroupingThresholds.max_output]
        attempt = {"attempt": len(log.attempts) + 1}
        best = block = None
        success = False
        if grasps:
            scored = score_grasps(grasps, depth_image, model)
            best, score = next((pair for pair in scored if _feasible(pair[1])), scored[0])
            block = scene.block_at(best.x, best.y)
            success = _feasible(score) and block is not None
            attempt["grasp"] = grasp_to_record(best)
            attempt["scores"] = score.to_dict()
        attempt["success"] = success
        attempt["block"] = block.block_id if block is not None else None
        log.attempts.append(attempt)
        if success:
            scene.remove(block.block_id)
            failures = (None, 0)
        else:
            near = scene.nearest_block(best.x, best.y) if best is not None else None
            key = near.block_id if near is not None else None
            failures = (key, failures[1] + 1 if key == failures[0] else 1)
    return log
