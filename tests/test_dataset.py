"""Coverage-ratio filtering rules and RG-D whitening."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit import (
    AJD_STATS,
    CORNELL_STATS,
    ChannelStats,
    DegenerateMaskError,
    Grasp,
    classify_annotation,
    compose_rgd,
    coverage_ratio,
    invert_rgd,
)
from helpers import coverage_ratio_reference


def test_classification_rules():
    assert classify_annotation(0.85).decision == "keep"
    assert classify_annotation(0.1).decision == "remove"
    assert classify_annotation(0.5).decision == "flag-for-review"


def test_classification_grid_and_boundaries():
    expected = {
        0.0: "remove", 0.1: "remove",
        0.2: "flag-for-review", 0.3: "flag-for-review", 0.4: "flag-for-review",
        0.5: "flag-for-review", 0.6: "flag-for-review", 0.7: "flag-for-review",
        0.8: "flag-for-review",
        0.9: "keep", 1.0: "keep",
    }
    for ratio, decision in expected.items():
        got = classify_annotation(ratio)
        assert got.decision == decision
        assert got.ratio == ratio


def test_classification_domain():
    with pytest.raises(ValueError):
        classify_annotation(1.2)
    with pytest.raises(ValueError):
        classify_annotation(-0.1)


def test_coverage_full_and_empty():
    mask = np.zeros((60, 60), np.float32)
    mask[20:40, 20:40] = 1.0
    big = Grasp(30, 30, 0.0, 50, h=50)
    assert coverage_ratio([big], mask) == 1.0
    assert coverage_ratio([], mask) == 0.0


def test_coverage_half_rect():
    mask = np.zeros((80, 80), np.float32)
    mask[20:60, 20:60] = 1.0  # 40x40 mask
    half = Grasp(30.0, 40.0, 0.0, 20, h=40)  # covers x in [20, 40), left half
    ratio = coverage_ratio([half], mask)
    assert ratio == pytest.approx(0.5, abs=2 / np.sqrt(mask.sum()))


def test_coverage_monotone_in_grasps():
    rng = np.random.default_rng(6)
    mask = np.zeros((80, 80), np.float32)
    mask[10:70, 10:70] = 1.0
    grasps = []
    prev = 0.0
    for _ in range(8):
        grasps.append(
            Grasp(float(rng.uniform(20, 60)), float(rng.uniform(20, 60)),
                  float(rng.uniform(-1.5, 1.5)), float(rng.uniform(5, 25)), h=float(rng.uniform(5, 20)))
        )
        ratio = coverage_ratio(grasps, mask)
        assert ratio >= prev - 1e-12
        prev = ratio


def test_coverage_requires_height_and_mask():
    mask = np.ones((10, 10), np.float32)
    with pytest.raises(ValueError):
        coverage_ratio([Grasp(5, 5, 0.0, 4)], mask)  # no h annotated
    with pytest.raises(DegenerateMaskError):
        coverage_ratio([], np.zeros((10, 10), np.float32))


_SIZES = st.one_of(st.integers(1, 50).map(float), st.floats(0.05, 50.0))
_THETAS = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi / 4, -math.pi / 4]),
    st.floats(-math.pi / 2, math.pi / 2, exclude_min=True),
)


@st.composite
def _coverage_cases(draw):
    """A mask (1-row and 1-column included) and grasps with integer,
    half-integer and off-image centers, some moved past one side."""
    shape = draw(st.one_of(
        st.sampled_from([(1, 1), (1, 30), (30, 1)]),
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
    ))
    rows, cols = shape
    grasps = []
    for _ in range(draw(st.integers(1, 4))):
        theta, w, h = draw(_THETAS), draw(_SIZES), draw(_SIZES)
        x, y = (
            draw(st.one_of(st.integers(-20, n + 20).map(float),
                           st.integers(-40, 2 * n + 40).map(lambda k: k / 2),
                           st.floats(-20.0, n + 20.0)))
            for n in (cols, rows)
        )
        # Move the rectangle past one side: its circumscribed circle then
        # touches the outermost pixel centers or lies beyond them.
        reach = math.hypot(w, h) / 2 + draw(st.sampled_from([0.0, 1e-9, 0.3, 0.5, 1.0, 7.25]))
        side = draw(st.sampled_from([None, "left", "right", "top", "bottom"]))
        if side == "left":
            x = -reach
        elif side == "right":
            x = cols - 1 + reach
        elif side == "top":
            y = -reach
        elif side == "bottom":
            y = rows - 1 + reach
        grasps.append(Grasp(x, y, theta, w, h=h))
    seed = draw(st.integers(0, 2**16))
    mask = np.random.default_rng(seed).random(shape) < draw(st.sampled_from([0.5, 1.0]))
    mask.flat[seed % mask.size] = True
    return grasps, mask.astype(np.float32)


@settings(max_examples=500, deadline=None)
@given(_coverage_cases())
def test_coverage_ratio_matches_rect_mask_reference(case):
    grasps, mask = case
    assert coverage_ratio(grasps, mask) == coverage_ratio_reference(grasps, mask)


def test_published_stats():
    assert CORNELL_STATS.means == (0.85, 0.81, 0.25)
    assert CORNELL_STATS.stds == (0.10, 0.11, 0.09)
    assert AJD_STATS.means == (0.71, 0.71, 0.20)
    assert AJD_STATS.stds == (0.06, 0.07, 0.09)


def test_whitening_fixed_points():
    stats = CORNELL_STATS
    rgb = np.zeros((3, 2, 2))
    rgb[0] = 0.85 * 255  # red channel exactly at its mean
    rgb[1] = (0.81 + 0.11) * 255  # green one std above its mean
    depth = np.full((2, 2), 0.25 * 255)
    out = compose_rgd(rgb, depth, stats)
    assert out[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert out[1, 0, 0] == pytest.approx(1.0, abs=1e-9)
    assert out[2, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_whitening_raw_255_red():
    out = compose_rgd(np.full((3, 2, 2), 255.0), np.full((2, 2), 255.0), CORNELL_STATS)
    assert out[0, 0, 0] == pytest.approx((1.0 - 0.85) / 0.10)  # 1.5


@pytest.mark.parametrize("stats", [CORNELL_STATS, AJD_STATS])
def test_whitening_roundtrip(stats):
    rng = np.random.default_rng(12)
    rgb = rng.uniform(0, 255, size=(3, 16, 16))
    depth = rng.uniform(0, 255, size=(16, 16))
    out = compose_rgd(rgb, depth, stats)
    back = invert_rgd(out, stats)
    assert np.abs(back[0] - rgb[0]).max() < 1e-6
    assert np.abs(back[1] - rgb[1]).max() < 1e-6
    assert np.abs(back[2] - depth).max() < 1e-6


def test_compose_shape_checks():
    with pytest.raises(ValueError):
        compose_rgd(np.zeros((4, 2, 2)), np.zeros((2, 2)), CORNELL_STATS)
    with pytest.raises(ValueError):
        compose_rgd(np.zeros((3, 2, 2)), np.zeros((3, 3)), CORNELL_STATS)


def test_channel_stats_validation():
    with pytest.raises(ValueError):
        ChannelStats(means=(0, 0), stds=(1, 1, 1), profile="x")
    with pytest.raises(ValueError):
        ChannelStats(means=(0, 0, 0), stds=(1, 0, 1), profile="x")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["means", "stds"])
def test_channel_stats_rejects_non_finite_statistics(field, bad):
    values = {"means": (0.5, 0.5, 0.5), "stds": (1.0, 1.0, 1.0)}
    values[field] = (bad, 1.0, 1.0)
    with pytest.raises(ValueError, match=field):
        ChannelStats(**values, profile="x")
