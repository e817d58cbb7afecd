"""Gripper regions, depth-based scores and dynamic grasp selection."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit import (
    DegenerateRegionError,
    DepthImage,
    DimensionError,
    Grasp,
    GraspScore,
    GripperCapacityError,
    GripperModel2D,
    HeaderError,
    collision_score,
    gripper_regions,
    height_score,
    occupancy_score,
    read_depth_gktb,
    score_grasp,
    score_grasps,
    select_dynamic,
    write_depth_gktb,
    write_gktb,
)
from graspkit.binpick import make_scene
from helpers import gripper_regions_reference, score_grasps_reference

MODEL = GripperModel2D()  # 17 mm fingers, 200 mm max open, 40 mm length, 1 px/mm


def flat_scene(side=300, surface=1000.0):
    return DepthImage.flat_surface(np.full((side, side), surface, np.float32), surface)


def block_scene(side=300, surface=1000.0, block=(130, 170, 130, 170), height=40.0):
    depth = np.full((side, side), surface, np.float32)
    r0, r1, c0, c1 = block
    depth[r0:r1, c0:c1] = surface - height
    return DepthImage.flat_surface(depth, surface)


def test_region_pixel_counts_match_areas():
    g = Grasp(150.0, 150.0, 0.0, 60.0)
    (fr, fc), (ir, ic) = gripper_regions(g, MODEL, (300, 300))
    finger_area = 2 * MODEL.finger_length_mm * MODEL.finger_thickness_mm  # 2 * 40 * 17
    interior_area = g.w * MODEL.finger_thickness_mm
    finger_perimeter = 2 * (2 * (MODEL.finger_length_mm + MODEL.finger_thickness_mm))
    interior_perimeter = 2 * (g.w + MODEL.finger_thickness_mm)
    assert abs(fr.size - finger_area) <= finger_perimeter + 4
    assert abs(ir.size - interior_area) <= interior_perimeter + 4
    # disjoint by construction
    fingers = set(zip(fr.tolist(), fc.tolist()))
    interior = set(zip(ir.tolist(), ic.tolist()))
    assert not (fingers & interior)


def test_region_rotation_preserves_counts():
    g0 = Grasp(150.0, 150.0, 0.0, 50.0)
    (fr0, _), (ir0, _) = gripper_regions(g0, MODEL, (300, 300))
    g1 = Grasp(150.0, 150.0, 0.7, 50.0)
    (fr1, _), (ir1, _) = gripper_regions(g1, MODEL, (300, 300))
    assert abs(fr0.size - fr1.size) < 0.05 * fr0.size + 20
    assert abs(ir0.size - ir1.size) < 0.05 * ir0.size + 20


def test_capacity_error():
    g = Grasp(150.0, 150.0, 0.0, 201.0)  # 201 px = 201 mm > 200 mm max open
    with pytest.raises(GripperCapacityError):
        gripper_regions(g, MODEL, (300, 300))


def test_corner_grasp_clipped_but_nonempty():
    g = Grasp(2.0, 2.0, math.pi / 4, 20.0)
    (fr, _), (ir, _) = gripper_regions(g, MODEL, (300, 300))
    assert fr.size > 0 and ir.size > 0


def test_collision_score_cases():
    scene = block_scene()  # block is 40 mm proud of the 1000 mm surface
    g = Grasp(150.0, 150.0, 0.0, 52.0)  # fingers land on empty surface
    assert collision_score(g, scene, MODEL) == 1.0
    flat = flat_scene()  # every pixel equals the center depth -> strict H gives 0
    assert collision_score(g, flat, MODEL) == 0.0


def test_collision_score_half():
    surface = 1000.0
    depth = np.full((300, 300), surface, np.float32)
    depth[:, :150] = surface + 10.0  # left half deeper than the center pixel
    di = DepthImage.flat_surface(depth, surface + 10.0)
    g = Grasp(150.0, 150.0, 0.0, 52.0)
    # fingers are symmetric 41x17 boxes about x=150: left one deeper, right at
    # center depth exactly, so exactly half the pixels pass the strict test
    assert collision_score(g, di, MODEL) == 0.5


def test_occupancy_score_cases():
    g = Grasp(150.0, 150.0, 0.0, 30.0)
    full = block_scene(block=(120, 180, 120, 180), height=5.0)  # interior fully on block
    assert occupancy_score(g, full, MODEL) == 1.0
    assert occupancy_score(g, flat_scene(), MODEL) == 0.0  # empty table, strict H


def test_occupancy_score_half():
    # block covers only the left half of the interior
    scene = block_scene(block=(120, 180, 100, 150), height=20.0)
    g = Grasp(150.0, 150.0, 0.0, 60.0)
    assert occupancy_score(g, scene, MODEL) == pytest.approx(0.5, abs=0.05)


def test_height_score_cases():
    di = DepthImage(np.full((10, 10), 8.0, np.float32), np.full((10, 10), 10.0, np.float32))
    g = Grasp(5.0, 5.0, 0.0, 3.0)
    assert height_score(g, di) == pytest.approx(0.2)
    flat = flat_scene(side=10)
    assert height_score(Grasp(5, 5, 0.0, 3), flat) == 0.0
    clamp = DepthImage(np.full((10, 10), 30.0, np.float32), np.full((10, 10), 10.0, np.float32))
    assert height_score(Grasp(5, 5, 0.0, 3), clamp) == 1.0  # clamped at 1


def test_score_bounds_and_sum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        scene = block_scene(height=float(rng.uniform(5, 80)))
        g = Grasp(float(rng.uniform(80, 220)), float(rng.uniform(80, 220)),
                  float(rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)), float(rng.uniform(10, 60)))
        sc = score_grasp(g, scene, MODEL)
        for v in (sc.collision, sc.occupancy, sc.height):
            assert 0.0 <= v <= 1.0
        assert sc.total == sc.collision + sc.occupancy + sc.height


def test_collision_monotone_in_finger_depth():
    rng = np.random.default_rng(9)
    for _ in range(20):
        scene = block_scene(height=float(rng.uniform(10, 60)))
        g = Grasp(float(rng.uniform(100, 200)), float(rng.uniform(100, 200)),
                  float(rng.uniform(-1.5, 1.5)), float(rng.uniform(15, 60)))
        regions = gripper_regions(g, MODEL, scene.shape)
        base = collision_score(g, scene, MODEL, regions)
        deeper = scene.depth.copy()
        (fr, fc), _ = regions
        pick = rng.random(fr.size) < 0.5
        deeper[fr[pick], fc[pick]] += 50.0
        assert collision_score(g, DepthImage(deeper, scene.surface), MODEL, regions) >= base


def test_scores_translation_invariant():
    scene = block_scene(block=(130, 170, 130, 170))
    g = Grasp(150.0, 150.0, 0.0, 52.0)
    sc = score_grasp(g, scene, MODEL)
    shifted = block_scene(block=(150, 190, 140, 180))
    g2 = Grasp(160.0, 170.0, 0.0, 52.0)
    sc2 = score_grasp(g2, shifted, MODEL)
    tol = 1.0 / min(200, 52 * 17)
    assert sc2.collision == pytest.approx(sc.collision, abs=tol)
    assert sc2.occupancy == pytest.approx(sc.occupancy, abs=tol)
    assert sc2.height == pytest.approx(sc.height, abs=1e-6)


def test_score_grasps_ranking_and_fallback():
    scene = block_scene()
    clear = Grasp(150.0, 150.0, 0.0, 52.0)
    colliding = Grasp(150.0, 130.0, math.pi / 2, 30.0)  # fingers inside the block
    ranked = score_grasps([colliding, clear], scene, MODEL)
    assert ranked[0][0] is clear
    # identical inputs -> identical ranking
    again = score_grasps([colliding, clear], scene, MODEL)
    assert [id(g) for g, _ in again] == [id(g) for g, _ in ranked]
    # all-degenerate batch keeps original order with totals -1
    over = [Grasp(150, 150, 0.0, 250.0), Grasp(160, 160, 0.0, 300.0)]
    failed = score_grasps(over, scene, MODEL)
    assert [g.w for g, _ in failed] == [250.0, 300.0]
    assert all(s.total == -1.0 for _, s in failed)
    assert not failed[0][1].valid


def test_degenerate_region_error():
    scene = flat_scene(side=10)
    g = Grasp(5.0, 5.0, 0.0, 14.0)
    # fingers start 7 px off-center: both land entirely outside the 10 px image
    with pytest.raises(DegenerateRegionError):
        collision_score(g, scene, MODEL)


def test_select_dynamic():
    prev = Grasp(100, 100, 0.0, 30)
    mk = lambda d: Grasp(100 + d, 100, 0.0, 30)
    assert select_dynamic(prev, [mk(3), mk(7), mk(9)], tau_close=5).x == 103
    assert select_dynamic(prev, [mk(7), mk(9)], tau_close=5) is prev
    assert select_dynamic(prev, [], tau_close=5) is prev


def test_depth_gktb_roundtrip():
    scene = block_scene(side=40, block=(10, 20, 10, 20))
    buf = io.BytesIO()
    write_depth_gktb(scene, buf)
    buf.seek(0)
    back = read_depth_gktb(buf)
    assert np.array_equal(back.depth, scene.depth)
    assert np.array_equal(back.surface, scene.surface)
    # single-plane file falls back to constant surface
    buf2 = io.BytesIO()
    write_depth_gktb(scene, buf2, include_surface=False)
    buf2.seek(0)
    back2 = read_depth_gktb(buf2)
    assert float(back2.surface.max()) == float(scene.depth.max())


def test_flat_surface_shares_one_read_only_plane_per_shape_and_level():
    depth = np.full((6, 7), 900.0, np.float32)
    a, b = DepthImage.flat_surface(depth, 1000.0), DepthImage.flat_surface(depth.copy(), 1000)
    assert a.surface is b.surface
    assert a.surface.dtype == np.float32 and a.surface.tobytes() == np.full((6, 7), np.float32(1000.0)).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        a.surface[0, 0] = 1.0
    changed = a.surface.copy()  # a copy is the caller's to change
    changed[0, 0] = 1.0
    assert b.surface[0, 0] == np.float32(1000.0)
    for shape, level in (((6, 7), 1200.0), ((7, 6), 1200.0)):
        image = DepthImage.flat_surface(np.full(shape, 900.0, np.float32), level)
        assert image.surface.shape == shape and np.all(image.surface == np.float32(level))
    # a file without a surface plane falls back to the shared plane
    buf = io.BytesIO()
    write_depth_gktb(DepthImage(depth, np.full((6, 7), 1000.0)), buf, include_surface=False)
    buf.seek(0)
    back = read_depth_gktb(buf, surface_mm=1000.0)
    assert back.surface is DepthImage.flat_surface(depth, 1000.0).surface
    assert not back.surface.flags.writeable


def test_grasp_score_failed_sentinel():
    s = GraspScore.failed()
    assert s.total == -1.0 and not s.valid
    assert math.isnan(s.collision)
    d = s.to_dict()
    assert d["collision"] is None and d["total"] == -1.0


def _center(draw, size):
    kind = draw(st.sampled_from(["integer", "half", "border", "free"]))
    if kind == "integer":
        return float(draw(st.integers(0, size - 1)))
    if kind == "half":
        return draw(st.integers(0, size - 1)) + 0.5
    if kind == "border":  # within 1 px of either border
        return draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0, size - 1.0, size - 0.5, size - 1e-9]))
    return draw(st.floats(0.0, size, exclude_max=True))


def _size(lo, hi):
    # whole sizes put rectangle edges exactly on pixel centers
    whole = st.integers(math.ceil(lo), math.floor(hi)).map(float) if math.ceil(lo) <= hi else st.nothing()
    return st.one_of(whole, st.floats(lo, hi))


@st.composite
def _grasp_cases(draw):
    h, w = draw(st.integers(1, 160)), draw(st.integers(1, 160))
    model = GripperModel2D(
        finger_thickness_mm=draw(_size(0.5, 30.0)),
        max_open_mm=draw(_size(1.0, 200.0)),
        finger_length_mm=draw(_size(0.5, 60.0)),
        pixels_per_mm=draw(st.sampled_from([0.25, 0.5, 1.0, 1.7, 3.0])),
    )
    theta = draw(st.one_of(
        st.sampled_from([0.0, math.pi / 2, math.pi / 4, -math.pi / 4]),
        st.floats(-math.pi / 2, math.pi / 2, exclude_min=True),
    ))
    max_w = model.max_open_mm * model.pixels_per_mm
    width = draw(st.one_of(
        st.sampled_from([0.01, max_w]),  # empty interior; opening exactly at capacity
        _size(0.01, max_w),
    ))
    return Grasp(_center(draw, w), _center(draw, h), theta, width), model, (h, w)


def _regions_or_error(fn, g, model, shape):
    try:
        return fn(g, model, shape)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(_grasp_cases())
def test_gripper_regions_match_circumscribed_window_reference(case):
    g, model, shape = case
    got = _regions_or_error(gripper_regions, g, model, shape)
    want = _regions_or_error(gripper_regions_reference, g, model, shape)
    if isinstance(want, type):
        assert got is want
        return
    for got_idx, want_idx in zip((*got[0], *got[1]), (*want[0], *want[1])):
        assert got_idx.dtype == want_idx.dtype
        assert np.array_equal(got_idx, want_idx)  # same pixels, same row-major order


def _scores_or_errors(g, scene, model, regions=None):
    out = []
    for fn in (collision_score, occupancy_score):
        try:
            out.append(fn(g, scene, model, regions))
        except ValueError as exc:
            out.append(type(exc))
    return out


@settings(max_examples=300, deadline=None)
@given(_grasp_cases(), st.integers(0, 2**32 - 1))
def test_scores_read_the_same_depths_by_mask_and_by_index_sets(case, seed):
    g, model, shape = case
    rng = np.random.default_rng(seed)
    # few depth levels over a non-constant surface, so the strict steps meet ties
    scene = DepthImage(rng.integers(990, 1010, shape).astype(np.float32),
                       rng.integers(995, 1005, shape).astype(np.float32))
    by_mask = _scores_or_errors(g, scene, model)
    try:
        scored = score_grasp(g, scene, model)
    except ValueError as exc:
        scored = type(exc)
    regions = _regions_or_error(gripper_regions, g, model, shape)
    if isinstance(regions, type):
        assert by_mask == [regions, regions] and scored is regions
        return
    (fr, fc), (ir, ic) = regions
    pc = (min(int(round(g.y)), shape[0] - 1), min(int(round(g.x)), shape[1] - 1))
    # the formulas written out on the index sets: exact means, or no pixels
    want = [
        float(np.mean(scene.depth[fr, fc] > scene.depth[pc])) if fr.size else DegenerateRegionError,
        float(np.mean(scene.depth[ir, ic] < scene.surface[pc])) if ir.size else DegenerateRegionError,
    ]
    assert by_mask == want
    assert _scores_or_errors(g, scene, model, regions) == want
    assert all(type(v) is float for v in by_mask if not isinstance(v, type))
    errors = [v for v in want if isinstance(v, type)]
    if errors:  # the finger region is checked first
        assert scored is errors[0]
    else:
        assert (scored.collision, scored.occupancy) == tuple(want)


def test_score_grasps_match_reference_loop_on_clean_and_noisy_scenes():
    rng = np.random.default_rng(11)
    for seed in range(12):
        scene = make_scene(seed, int(rng.integers(1, 26)))
        clean = scene.render()
        noisy = clean.depth + rng.normal(0.0, 5.0, clean.shape).astype(np.float32)
        h, w = clean.shape
        grasps = [b.oracle_grasp() for b in scene.blocks]
        grasps += [
            Grasp(float(rng.uniform(0, w)), float(rng.uniform(0, h)),
                  float(rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2)), float(rng.uniform(0.01, 250)))
            for _ in range(8)
        ]
        grasps += [
            Grasp(w + 3.0, 10.0, 0.0, 30.0),                       # off the image
            Grasp(0.2, h - 0.7, math.pi / 4, 0.05),                # tiny, in a corner
            Grasp(w / 2, h / 2, -math.pi / 4, 201.0),              # over capacity
            Grasp(w / 2 + 0.5, h / 2 + 0.5, math.pi / 2, 200.0),  # exactly at capacity
        ]
        for depth in (clean, DepthImage(noisy, clean.surface)):  # ties at the strict steps, then none
            got = score_grasps(grasps, depth, MODEL)
            want = score_grasps_reference(grasps, depth, MODEL)
            assert [id(g) for g, _ in got] == [id(g) for g, _ in want]
            assert [s.to_dict() for _, s in got] == [s.to_dict() for _, s in want]
            assert repr([s for _, s in got]) == repr([s for _, s in want])  # same types too


def test_huge_model_sizes_clip_to_the_image():
    # finite fields whose pixel sizes overflow to inf: the window is the image
    huge = GripperModel2D(finger_thickness_mm=1e300, max_open_mm=1e300,
                          finger_length_mm=1e300, pixels_per_mm=1e10)
    scene = flat_scene(side=20)
    (fr, _), (ir, _) = gripper_regions(Grasp(5.0, 5.0, 0.0, 3.0), huge, scene.shape)
    assert fr.size + ir.size == 20 * 20
    assert score_grasp(Grasp(5.0, 5.0, 0.0, 3.0), scene, huge).valid


@pytest.mark.parametrize(
    "field, value",
    [
        ("finger_thickness_mm", "x"),
        ("pixels_per_mm", None),
        ("finger_length_mm", math.inf),
        ("pixels_per_mm", math.nan),
        ("finger_thickness_mm", True),
        ("max_open_mm", 10**400),
        ("max_open_mm", -1.0),
    ],
    ids=["text", "null", "inf", "nan", "bool", "int-beyond-float", "negative"],
)
def test_gripper_model_rejects_non_finite_or_non_numeric_fields(field, value):
    with pytest.raises(ValueError, match=field):
        GripperModel2D(**{field: value})


def test_fraction_scores_equal_the_mean_over_random_index_sets():
    rng = np.random.default_rng(21)
    for _ in range(300):
        h, w = (int(n) for n in rng.integers(1, 30, size=2))
        # few distinct levels, so the strict steps meet ties
        depth = rng.choice(np.array([990.0, 995.0, 1000.0], np.float32), size=(h, w))
        scene = DepthImage(depth, rng.choice(np.array([995.0, 1000.0], np.float32), size=(h, w)))
        row, col = int(rng.integers(0, h)), int(rng.integers(0, w))
        g = Grasp(float(col), float(row), 0.0, 10.0)

        def index_set():
            n = int(rng.integers(1, 2 * h * w + 1))  # repeats allowed
            return rng.integers(0, h, n), rng.integers(0, w, n)

        fingers, interior = index_set(), index_set()
        assert collision_score(g, scene, MODEL, (fingers, interior)) == float(
            np.mean(scene.depth[fingers] > scene.depth[row, col]))
        assert occupancy_score(g, scene, MODEL, (fingers, interior)) == float(
            np.mean(scene.depth[interior] < scene.surface[row, col]))


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e39, 0.0])
def test_depth_image_requires_finite_positive_values(bad):
    good = np.full((4, 5), 1000.0)
    spoiled = good.copy()  # float64: 1e39 overflows only in the float32 cast
    spoiled[2, 3] = bad
    for depth, surface in ((spoiled, good), (good, spoiled)):
        with pytest.raises(ValueError, match="finite, strictly positive"):
            DepthImage(depth, surface)


def test_empty_depth_image_rejected():
    with pytest.raises(ValueError, match="finite, strictly positive"):
        DepthImage(np.zeros((0, 5), np.float32), np.zeros((0, 5), np.float32))


def test_grasp_score_record_lists_its_fields_in_order():
    s = GraspScore.compute(1.0, 0.25, 0.5)
    assert list(s.to_dict().items()) == [
        ("collision", 1.0), ("occupancy", 0.25), ("height", 0.5), ("total", 1.75)
    ]
    assert list(GraspScore.failed().to_dict().items()) == [
        ("collision", None), ("occupancy", None), ("height", None), ("total", -1.0)
    ]
    assert all(type(v) is float for v in GraspScore.compute(np.float32(1), 0, 1).to_dict().values())


def test_select_dynamic_takes_the_first_of_equidistant_candidates():
    prev = Grasp(100, 100, 0.0, 30)
    a, b, c = Grasp(103, 104, 0.0, 30), Grasp(95, 100, 0.0, 30), Grasp(100, 95, 0.0, 30)  # all 5 px away
    assert select_dynamic(prev, [a, b, c], tau_close=6) is a
    assert select_dynamic(prev, [c, b, a], tau_close=6) is c
    assert select_dynamic(prev, [Grasp(107, 100, 0.0, 30), b, a], tau_close=6) is b


def test_select_dynamic_keeps_previous_at_exactly_tau_close():
    prev = Grasp(100, 100, 0.0, 30)
    cand = Grasp(103, 104, 0.0, 30)  # exactly 5 px away
    assert select_dynamic(prev, [cand], tau_close=5) is prev
    assert select_dynamic(prev, [cand], tau_close=math.nextafter(5.0, math.inf)) is cand


@pytest.mark.parametrize("planes, error, match", [
    ((("depth", 2),), DimensionError, r"plane depth: expected 1 plane\(s\), header declares 2"),
    ((("depth", 1), ("surface", 2)), DimensionError, r"plane surface: expected 1 plane\(s\), header declares 2"),
    ((("depth", 1), ("mask", 1)), HeaderError, r"unexpected plane\(s\) \['mask'\]"),
    ((("depth", 1), ("surface", 1), ("depth2", 1)), HeaderError, r"\['depth2'\]"),
], ids=["depth-count-2", "surface-count-2", "extra-plane", "third-plane"])
def test_depth_file_holds_depth_and_surface_of_count_one(planes, error, match):
    buf = io.BytesIO()
    write_gktb(buf, [(name, np.full((count, 4, 4), 1000.0)) for name, count in planes],
               num_classes=0, downsample_ratio=1)
    buf.seek(0)
    with pytest.raises(error, match=match):
        read_depth_gktb(buf)


def test_depth_file_without_a_depth_plane_raises_header_error():
    buf = io.BytesIO()
    write_gktb(buf, [("surface", np.full((1, 4, 4), 1000.0))], num_classes=0, downsample_ratio=1)
    buf.seek(0)
    with pytest.raises(HeaderError, match=r"no 'depth' plane in file \(found \['surface'\]\)"):
        read_depth_gktb(buf)


def test_height_score_rejects_a_surface_set_to_zero_after_the_image_is_built():
    image = DepthImage(np.full((10, 10), 960.0), np.full((10, 10), 1000.0))
    g = Grasp(5.0, 5.0, 0.0, 4.0)
    assert height_score(g, image) == pytest.approx(0.04)
    image.surface[5, 5] = 0.0
    with pytest.raises(ValueError, match="surface depth at center must be positive, got 0.0"):
        height_score(g, image)
    with pytest.raises(ValueError, match="surface depth at center must be positive"):
        score_grasp(g, image, MODEL)
