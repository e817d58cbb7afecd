"""Pairing conditions, orientation filter and the end-to-end grouping loop."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graspkit import (
    AJD,
    CORNELL,
    DetectedKeypoint,
    EncoderConfig,
    Grasp,
    GraspCandidate,
    GroupingThresholds,
    KeypointPair,
    PayloadError,
    angle_diff,
    class_to_angle,
    decode_bundle,
    encode_targets,
    extract_center_scores,
    filter_pairs,
    group,
    group_candidates,
    ideal_bundle,
    orientation_filter,
    pair_to_grasp,
    wrap_angle,
)
from helpers import (
    clutter_bundle,
    grasp_key,
    group_candidates_reference,
    group_reference,
    grouping_bundle,
    random_separated_grasps,
    recovered_fraction,
)

CFG = EncoderConfig(image_height=228, image_width=228, num_classes=18, downsample_ratio=4)


def kp(x, y, cls=0, score=1.0, embed=0.0, role="left"):
    return DetectedKeypoint(x=x, y=y, class_index=cls, score=score, embedding=embed, role=role)


def test_center_scores_read_nearest_pixel():
    center = np.zeros((16, 16), np.float32)
    center[5, 7] = 1.0
    left = [kp(20, 16)]
    right = [kp(36, 24, role="right")]  # midpoint (28, 20) -> pixel (col 7, row 5)
    scores = extract_center_scores(left, right, center, ratio=4)
    assert scores.shape == (1, 1)
    assert scores[0, 0] == 1.0
    # a pair whose midpoint lands on a zero region scores 0
    right_far = [kp(60, 60, role="right")]
    assert extract_center_scores(left, right_far, center, ratio=4)[0, 0] == 0.0


def test_center_scores_full_cross_product():
    center = np.zeros((8, 8), np.float32)
    left = [kp(float(i), 2.0) for i in range(10)]
    right = [kp(float(i), 6.0, role="right") for i in range(10)]
    scores = extract_center_scores(left, right, center, ratio=4)
    assert scores.size == 100


def test_filter_conditions():
    th = AJD.thresholds  # rho_embed 0.65, rho_cen 0.15
    left = [kp(10, 10, cls=3, embed=0.0)]
    scores = np.array([[0.9]])
    kept = filter_pairs(left, [kp(30, 10, cls=3, embed=0.4, role="right")], scores, th, 36)
    assert len(kept) == 1  # classes agree, |d embed| 0.4 < 0.65, center 0.9 > 0.15
    assert kept[0].class_index == 3 and kept[0].center_score == 0.9
    removed = filter_pairs(left, [kp(30, 10, cls=4, embed=0.0, role="right")], scores, th, 36)
    assert removed == []  # class disagreement beats perfect scores
    boundary = filter_pairs(left, [kp(30, 10, cls=3, embed=0.65, role="right")], scores, th, 36)
    assert boundary == []  # |d embed| == rho_embed exactly -> removed (strict)
    low_center = filter_pairs(
        left, [kp(30, 10, cls=3, embed=0.0, role="right")], np.array([[0.15]]), th, 36
    )
    assert low_center == []  # center == rho_cen exactly -> removed (strict)


def test_filter_enforces_canonical_order():
    th = GroupingThresholds(1.0, 0.05, 1.0)
    left = [kp(50, 10, cls=0)]
    right = [kp(10, 10, cls=0, role="right")]  # right keypoint to the LEFT of left one
    scores = np.array([[1.0]])
    assert filter_pairs(left, right, scores, th, 18) == []


def test_orientation_filter_fig_scenario():
    # class representative at 30 deg, continuous orientation 45 deg, tau = 0.24
    cls_30 = 12  # with 18 classes: pi*12/18 - pi/2 = 30 deg
    assert class_to_angle(cls_30, 18) == pytest.approx(math.radians(30))
    left_kp = kp(0, 0, cls=cls_30)
    right_kp = kp(10, 10, cls=cls_30, role="right")  # 45 deg in pixel frame
    cands = filter_pairs([left_kp], [right_kp], np.array([[1.0]]), CORNELL.thresholds, 18)
    assert len(cands) == 1
    assert orientation_filter(cands, 0.24, 18) == []  # 15 deg > 13.75 deg
    assert len(orientation_filter(cands, math.radians(16), 18)) == 1


def test_orientation_filter_exact_and_wrapped():
    c9 = kp(0, 0, cls=9)
    r9 = kp(10, 0, cls=9, role="right")  # continuous 0 == discrete 0
    cands = filter_pairs([c9], [r9], np.array([[1.0]]), CORNELL.thresholds, 18)
    assert len(orientation_filter(cands, 0.0, 18)) == 1
    # theta1 = -88 deg (class 0 rep is -90; use explicit candidate instead)
    from graspkit import GraspCandidate

    cand = GraspCandidate(
        left=kp(0, 0, cls=0),
        right=kp(10, 0, cls=0, role="right"),
        class_index=0,
        center_score=1.0,
        theta_discrete=class_to_angle(0, 18),  # -90 deg == +90 deg wrapped
        theta_continuous=math.radians(89),
    )
    kept = orientation_filter([cand], 0.1745, 18)
    assert len(kept) == 1  # wrapped distance 1 deg


def test_group_recovers_ideal_bundle():
    rng = np.random.default_rng(23)
    grasps = random_separated_grasps(rng, 5)
    bundle = ideal_bundle(grasps, CFG, seed=3)
    found = group(bundle, CORNELL.thresholds)
    assert len(found) == 5
    assert recovered_fraction(grasps, found, 23.33, math.pi / 36) == 1.0


def test_group_empty_bundle():
    bundle = ideal_bundle([], CFG)
    assert group(bundle, CORNELL.thresholds) == []


@pytest.mark.parametrize("profile", [CORNELL, AJD])
def test_round_trip_twenty_grasps(profile):
    # recall stays 100% up to 20 well-separated grasps (keypoints > 4R apart)
    rng = np.random.default_rng(71)
    grasps = random_separated_grasps(rng, 20, image=380, grid=5)
    config = EncoderConfig(380, 380, profile.num_classes, profile.downsample_ratio)
    bundle = ideal_bundle(grasps, config, seed=71)
    found = group(bundle, profile.thresholds)
    assert len(found) == 20
    assert recovered_fraction(grasps, found, profile.eval_height, math.pi / 36) == 1.0


def test_equal_embeddings_cross_pairs_removed_by_center():
    # two parallel grasps, then force all keypoint embeddings equal
    grasps = [Grasp(60, 60, 0.0, 30), Grasp(160, 160, 0.0, 30)]
    bundle = ideal_bundle(grasps, CFG, seed=11)
    for plane in (bundle.embedL, bundle.embedR):
        plane[plane > 1.0] = 3.0
    found = group(bundle, CORNELL.thresholds)
    assert len(found) == 2
    assert recovered_fraction(grasps, found, 23.33, math.pi / 36) == 1.0


def test_ranking_by_center_score():
    grasps = [Grasp(60, 60, 0.0, 30), Grasp(160, 160, 0.0, 30)]
    bundle = ideal_bundle(grasps, CFG, seed=4)
    # degrade the second grasp's center peak
    bundle.center[bundle.center == 1.0] = 1.0  # no-op keeps dtype
    row, col = 40, 40  # heatmap pixel of center (160,160)
    bundle.center[row, col] = 0.6
    cands = group_candidates(bundle, CORNELL.thresholds)
    assert len(cands) == 2
    assert cands[0].center_score >= cands[1].center_score
    assert cands[0].center_score == 1.0


def test_group_output_capped():
    rng = np.random.default_rng(31)
    bundle = grouping_bundle(rng)
    th = GroupingThresholds(rho_embed=2.5, rho_cen=0.01, tau_orient=1.6, max_output=7)
    out = group(bundle, th, k=60)
    assert len(out) <= 7


def test_filter_monotonicity_on_random_bundles():
    rng = np.random.default_rng(47)
    base = GroupingThresholds(rho_embed=1.0, rho_cen=0.05, tau_orient=0.4, max_output=10000)
    tighter = [
        GroupingThresholds(0.5, 0.05, 0.4, 10000),
        GroupingThresholds(1.0, 0.30, 0.4, 10000),
        GroupingThresholds(1.0, 0.05, 0.15, 10000),
    ]
    for _ in range(10):
        bundle = grouping_bundle(rng)
        loose = {grasp_key(g) for g in group(bundle, base, k=60)}
        assert loose  # random uniform maps must produce candidates
        for th in tighter:
            tight = {grasp_key(g) for g in group(bundle, th, k=60)}
            assert tight <= loose


def test_group_deterministic():
    rng = np.random.default_rng(53)
    bundle = grouping_bundle(rng)
    th = GroupingThresholds(1.0, 0.05, 0.4, 100)
    first = [grasp_key(g) for g in group(bundle, th, k=60)]
    for _ in range(3):
        assert [grasp_key(g) for g in group(bundle, th, k=60)] == first


def test_outputs_come_from_decoded_keypoints():
    rng = np.random.default_rng(59)
    bundle = grouping_bundle(rng)
    th = GroupingThresholds(1.5, 0.02, 1.0, 10000)
    from graspkit import decode_bundle

    left, right = decode_bundle(bundle, k=60)
    lefts = {(kp.x, kp.y) for kp in left}
    rights = {(kp.x, kp.y) for kp in right}
    for cand in group_candidates(bundle, th, k=60):
        assert (cand.left.x, cand.left.y) in lefts
        assert (cand.right.x, cand.right.y) in rights


@pytest.mark.parametrize("profile", [CORNELL, AJD])
def test_group_equals_the_keypoint_pair_round_trip_exactly(profile):
    rng = np.random.default_rng(profile.num_classes + 5)
    total = 0
    for n in (1, 5, 9):
        bundle, _ = clutter_bundle(rng, profile, n)
        expected = [
            pair_to_grasp(KeypointPair.of((c.left.x, c.left.y), (c.right.x, c.right.y)))
            for c in group_candidates(bundle, profile.thresholds)
        ]
        assert group(bundle, profile.thresholds) == expected
        total += len(expected)
    assert total >= 10


def test_thresholds_validation():
    with pytest.raises(ValueError):
        GroupingThresholds(-0.1, 0.05, 0.24)
    with pytest.raises(ValueError):
        GroupingThresholds(1.0, 0.05, 0.24, max_output=0)


def _filter_pairs_reference(left_kps, right_kps, center_scores, thresholds, num_classes):
    """Per-candidate loop: one scalar arctan2/wrap_angle and class_to_angle each."""
    candidates = []
    for i, kp_l in enumerate(left_kps):
        for j, kp_r in enumerate(right_kps):
            canonical = (kp_l.x, kp_l.y) < (kp_r.x, kp_r.y)
            if not (
                kp_l.class_index == kp_r.class_index
                and abs(kp_l.embedding - kp_r.embedding) < thresholds.rho_embed
                and center_scores[i, j] > thresholds.rho_cen
                and canonical
            ):
                continue
            candidates.append(
                GraspCandidate(
                    left=kp_l,
                    right=kp_r,
                    class_index=kp_l.class_index,
                    center_score=float(center_scores[i, j]),
                    theta_discrete=class_to_angle(kp_l.class_index, num_classes),
                    theta_continuous=wrap_angle(np.arctan2(kp_r.y - kp_l.y, kp_r.x - kp_l.x)),
                )
            )
    return candidates


def _orientation_filter_reference(candidates, tau_orient, num_classes):
    return [
        cand
        for cand in candidates
        if angle_diff(class_to_angle(cand.class_index, num_classes), cand.theta_continuous)
        <= tau_orient
    ]


@pytest.mark.parametrize("profile", [CORNELL, AJD])
def test_array_grouping_matches_per_candidate_reference(profile):
    rng = np.random.default_rng(profile.num_classes)
    th = profile.thresholds
    for n_grasps in (1, 5, 9):
        bundle, _ = clutter_bundle(rng, profile, n_grasps)
        left, right = decode_bundle(bundle, k=100)
        scores = extract_center_scores(left, right, bundle.center, bundle.downsample_ratio)
        cands = filter_pairs(left, right, scores, th, bundle.num_classes)
        assert cands == _filter_pairs_reference(left, right, scores, th, bundle.num_classes)
        kept = orientation_filter(cands, th.tau_orient, bundle.num_classes)
        assert kept == _orientation_filter_reference(cands, th.tau_orient, bundle.num_classes)
        assert 0 < len(kept) < len(cands)


_annotation_sets = st.lists(
    st.builds(
        Grasp,
        st.floats(30.0, 198.0),
        st.floats(30.0, 198.0),
        st.floats(-math.pi / 2, math.pi / 2, exclude_min=True),
        st.floats(8.0, 50.0),
    ),
    min_size=1,
    max_size=9,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([CORNELL, AJD]), _annotation_sets, st.randoms(use_true_random=False),
       st.integers(0, 99))
def test_annotation_order_does_not_change_grouping(profile, truths, rnd, seed):
    # metamorphic: when the encoder keeps every grasp, the grouped output
    # depends on the set of annotations, not on their order in the file.
    config = EncoderConfig(228, 228, profile.num_classes, profile.downsample_ratio)
    assume(len(encode_targets(truths, config)[1]) == len(truths))
    shuffled = rnd.sample(truths, len(truths))
    want = group(ideal_bundle(truths, config, seed=seed), profile.thresholds)
    assert group(ideal_bundle(shuffled, config, seed=seed), profile.thresholds) == want


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _candidate_bits(cands):
    """Every field of every candidate, floats as ``float.hex``."""
    return [
        tuple(_hex(getattr(c.left, f)) for f in ("x", "y", "class_index", "score", "embedding", "role"))
        + tuple(_hex(getattr(c.right, f)) for f in ("x", "y", "class_index", "score", "embedding", "role"))
        + tuple(_hex(v) for v in (c.class_index, c.center_score, c.theta_discrete, c.theta_continuous))
        for c in cands
    ]


def _grasp_bits(grasps):
    return [tuple(_hex(v) for v in (g.x, g.y, g.theta, g.w, g.h)) for g in grasps]


def _quantize(bundle, levels):
    """Round the heatmap and center values up to ``levels`` steps: plateaus
    make equal scores, and a pixel peaking in several classes gives pairs
    with equal positions, so whole rank keys tie."""
    for name in ("left", "right", "center"):
        plane = getattr(bundle, name)
        setattr(bundle, name, (np.ceil(plane * levels) / levels).astype(np.float32))
    return bundle


@st.composite
def _grouping_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["grouping", "cornell", "ajd"]))
    if source == "grouping":
        bundle = grouping_bundle(rng, num_classes=draw(st.integers(1, 6)), dim=draw(st.integers(3, 24)))
        th = GroupingThresholds(
            draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 1.6)),
            draw(st.integers(1, 300)),
        )
        k = draw(st.integers(1, 80))
    else:
        profile = CORNELL if source == "cornell" else AJD
        bundle, _ = clutter_bundle(rng, profile, draw(st.integers(1, 9)))
        th, k = profile.thresholds, 100
    levels = draw(st.sampled_from([None, 1, 2, 3, 5]))
    return (_quantize(bundle, levels) if levels else bundle), th, k


@settings(max_examples=150, deadline=None)
@given(_grouping_inputs())
def test_group_equals_the_object_pipeline_bitwise(inputs):
    bundle, th, k = inputs
    assert _candidate_bits(group_candidates(bundle, th, k=k)) == _candidate_bits(
        group_candidates_reference(bundle, th, k=k)
    )
    assert _grasp_bits(group(bundle, th, k=k)) == _grasp_bits(group_reference(bundle, th, k=k))


def test_rank_ties_keep_the_row_major_pair_order():
    rng = np.random.default_rng(67)
    th = GroupingThresholds(rho_embed=3.0, rho_cen=0.0, tau_orient=1.6, max_output=10000)
    ties = 0
    for _ in range(5):
        # every pixel at 1.0 is a peak, and all of them fit in top-k
        bundle = _quantize(grouping_bundle(rng, num_classes=2, dim=6), 2)
        want = group_candidates_reference(bundle, th, k=100)
        assert _candidate_bits(group_candidates(bundle, th, k=100)) == _candidate_bits(want)
        keys = [
            (c.center_score, c.left.score + c.right.score, c.left.x, c.left.y, c.right.x, c.right.y)
            for c in want
        ]
        ties += len(keys) - len(set(keys))
    assert ties > 0  # whole rank keys tie, so the stable order decides


@pytest.mark.parametrize("plane", ["offsetL", "offsetR", "embedL", "embedR"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_value_at_a_selected_keypoint_raises_payload_error(plane, value):
    bundle = grouping_bundle(np.random.default_rng(61))
    heat = bundle.left if plane.endswith("L") else bundle.right
    _, row, col = np.unravel_index(np.argmax(heat), heat.shape)  # the best keypoint's pixel
    getattr(bundle, plane)[..., row, col] = value
    th = GroupingThresholds(1.5, 0.02, 1.0)
    for call in (lambda: group(bundle, th, k=5), lambda: group_candidates(bundle, th, k=5),
                 lambda: decode_bundle(bundle, k=5)):
        with pytest.raises(PayloadError, match="non-finite"):
            call()


def test_non_finite_values_off_the_selected_keypoints_are_not_read():
    bundle = grouping_bundle(np.random.default_rng(62))
    th = GroupingThresholds(1.5, 0.02, 1.0, 10000)
    for stack in (bundle.left, bundle.right):
        stack[:, 5:9, 5:9] = 0.0  # no keypoint can sit here
    want = _grasp_bits(group(bundle, th, k=60))
    for plane in (bundle.offsetL, bundle.offsetR, bundle.embedL, bundle.embedR):
        plane[..., 5:9, 5:9] = np.nan
    assert _grasp_bits(group(bundle, th, k=60)) == want
    assert want


@pytest.mark.parametrize("name", ["rho_embed", "rho_cen", "tau_orient"])
def test_nan_threshold_raises(name):
    values = {"rho_embed": 1.0, "rho_cen": 0.05, "tau_orient": 0.24, name: math.nan}
    with pytest.raises(ValueError, match="NaN"):
        GroupingThresholds(**values)


@pytest.mark.parametrize("max_output", [2.5, 100.0, "100", None])
def test_max_output_that_is_not_an_integer_raises(max_output):
    with pytest.raises(ValueError, match="max_output must be an integer"):
        GroupingThresholds(1.0, 0.05, 0.24, max_output=max_output)


def test_integer_max_output_of_any_integer_type_is_accepted():
    assert GroupingThresholds(1.0, 0.05, 0.24, max_output=np.int64(3)).max_output == 3


def test_extract_center_scores_float64_beyond_float32_is_inf_without_warning():
    # numpy's cast warning would fail the suite
    center = np.zeros((5, 5))
    center[2, 2] = 1e39
    left = [DetectedKeypoint(4.0, 8.0, 0, 1.0, 0.0, "left")]
    right = [DetectedKeypoint(12.0, 8.0, 0, 1.0, 0.0, "right")]
    assert extract_center_scores(left, right, center, 4).tolist() == [[np.inf]]


@pytest.mark.parametrize("max_output", [True, 2.5, "4"])
def test_thresholds_reject_a_grasp_cap_that_is_not_an_integer(max_output):
    with pytest.raises(ValueError, match=f"^max_output must be an integer >= 1, got {max_output!r}"):
        GroupingThresholds(1.0, 0.05, 0.24, max_output=max_output)
    assert GroupingThresholds(1.0, 0.05, 0.24, max_output=np.int64(4)).max_output == 4
