"""Grasp representation conversions, orientation classes and rotated IoU."""

import io
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graspkit import (
    DegenerateGraspError,
    Grasp,
    KeypointPair,
    OrientedRect,
    angle_diff,
    angle_to_class,
    class_to_angle,
    grasp_to_pair,
    pair_to_grasp,
    read_annotation_groups,
    read_annotations,
    rotated_iou,
    wrap_angle,
    write_annotations,
)
from graspkit.geometry import _clip_convex, _integer, _rotated_ious
from helpers import (
    annotation_texts,
    corners_reference,
    iou_rasterized,
    random_rect,
    reference_clip_divides_by_zero,
    rotated_iou_reference,
)


def test_pair_to_grasp_axis_aligned():
    g = pair_to_grasp(KeypointPair.of((0, 0), (4, 0)))
    assert (g.x, g.y, g.theta, g.w) == (2, 0, 0, 4)


def test_pair_to_grasp_45deg():
    g = pair_to_grasp(KeypointPair.of((0, 0), (2, 2)))
    assert (g.x, g.y) == (1, 1)
    assert g.theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert g.w == pytest.approx(2.8284271247461903, abs=1e-12)


def test_pair_to_grasp_hand_computed():
    g = pair_to_grasp(KeypointPair.of((3, 7), (9, 4)))
    assert (g.x, g.y) == (6, 5.5)
    assert g.w == pytest.approx(6.708203932499369, abs=1e-12)
    assert g.theta == pytest.approx(-0.4636476090008061, abs=1e-12)


def test_coincident_points_rejected():
    with pytest.raises(DegenerateGraspError):
        KeypointPair.of((1.0, 2.0), (1.0, 2.0))


def test_grasp_to_pair_inverses():
    p = grasp_to_pair(Grasp(2, 0, 0.0, 4))
    assert p.left == (0, 0) and p.right == (4, 0)
    p = grasp_to_pair(Grasp(1, 1, math.pi / 4, 2 * math.sqrt(2)))
    assert p.left == pytest.approx((0, 0), abs=1e-12)
    assert p.right == pytest.approx((2, 2), abs=1e-12)


def test_pair_grasp_roundtrip_500_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        g = Grasp(
            x=float(rng.uniform(-50, 50)),
            y=float(rng.uniform(-50, 50)),
            theta=wrap_angle(float(rng.uniform(-math.pi / 2, math.pi / 2))),
            w=float(rng.uniform(0.1, 80)),
        )
        back = pair_to_grasp(grasp_to_pair(g))
        assert abs(back.x - g.x) < 1e-9
        assert abs(back.y - g.y) < 1e-9
        assert abs(back.w - g.w) < 1e-9
        assert angle_diff(back.theta, g.theta) < 1e-9


def test_angle_class_representatives():
    assert angle_to_class(0.0, 18) == 9
    assert angle_to_class(-math.pi / 2, 18) == 0
    assert angle_to_class(0.52, 18) == 12  # nearest representative is 30 deg
    assert class_to_angle(9, 18) == 0.0
    assert class_to_angle(0, 18) == -math.pi / 2
    assert class_to_angle(11, 18) == pytest.approx(0.3490658503988659, abs=1e-12)


def test_class_to_angle_bounds():
    with pytest.raises(IndexError):
        class_to_angle(18, 18)
    with pytest.raises(IndexError):
        class_to_angle(-1, 18)


@pytest.mark.parametrize("n", [18, 36])
def test_angle_class_roundtrip(n):
    for c in range(n):
        assert angle_to_class(class_to_angle(c, n), n) == c


@pytest.mark.parametrize("n", [18, 36])
def test_quantization_error_bound(n):
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-10, 10, size=300):
        c = angle_to_class(float(theta), n)
        assert angle_diff(class_to_angle(c, n), theta) <= math.pi / (2 * n) + 1e-12


@pytest.mark.parametrize("n", [18, 36])
def test_angle_to_class_matches_enumeration(n):
    # independent oracle: literal nearest-representative search
    rng = np.random.default_rng(13)
    reps = [class_to_angle(c, n) for c in range(n)]
    for theta in rng.uniform(-7, 7, size=400):
        dists = [angle_diff(theta, rep) for rep in reps]
        assert angle_to_class(float(theta), n) == int(np.argmin(dists))


def test_wrap_angle():
    assert wrap_angle(math.pi / 2) == pytest.approx(math.pi / 2)
    assert wrap_angle(-math.pi / 2) == pytest.approx(math.pi / 2)
    assert wrap_angle(math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(0.3 + 5 * math.pi) == pytest.approx(0.3, abs=1e-12)
    assert angle_diff(math.radians(-89), math.radians(89)) == pytest.approx(
        math.radians(2), abs=1e-12
    )


def _bits(x):
    return struct.pack("<d", x)


def _quiet(fn, *args):
    """``fn(*args)`` without numpy's warnings for inf - inf, as on a non-finite angle."""
    with np.errstate(invalid="ignore", over="ignore"):
        return fn(*args)


def _array_wrap(theta):
    return float(_quiet(wrap_angle, np.array([theta]))[0])


def _array_diff(a, b):
    return float(_quiet(angle_diff, np.array([a]), np.array([b]))[0])


_HALF_PI = math.pi / 2
_EDGE_ANGLES = [0.0, -0.0, _HALF_PI, -_HALF_PI, math.pi, -math.pi, 1e300, -1e300,
                5e-324, -5e-324, math.nan, math.inf, -math.inf]
_EDGE_ANGLES += [math.nextafter(v, d) for v in (_HALF_PI, -_HALF_PI) for d in (math.inf, -math.inf)]
_EDGE_ANGLES += [(n + 0.5) * math.pi for n in range(-6, 6)]
_EDGE_ANGLES += [math.nextafter((n + 0.5) * math.pi, d) for n in range(-6, 6) for d in (math.inf, -math.inf)]


@pytest.mark.parametrize("theta", _EDGE_ANGLES)
def test_scalar_wrap_angle_equals_array_path_bitwise_on_edge_values(theta):
    assert _bits(_quiet(wrap_angle, theta)) == _bits(_array_wrap(theta))
    assert type(_quiet(wrap_angle, theta)) is float
    for other in _EDGE_ANGLES:
        assert _bits(_quiet(angle_diff, theta, other)) == _bits(_array_diff(theta, other)), other


def test_infinite_angles_give_nan_without_warnings():
    inf = np.array([math.inf, -math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (math.inf, -math.inf):
            assert math.isnan(wrap_angle(theta))
            assert math.isnan(angle_diff(theta, theta))
            assert math.isnan(angle_diff(0.5, theta))
        assert np.isnan(wrap_angle(inf)).all()
        assert np.isnan(angle_diff(inf, inf)).all()
        assert np.isnan(angle_diff(inf[:, None], np.array([0.5, math.inf]))).all()


def test_wrap_angle_of_negative_zero_is_positive_zero():
    assert _bits(wrap_angle(-0.0)) == _bits(0.0)


@settings(max_examples=2000, deadline=None)
@given(a=st.floats(), b=st.floats())
@example(a=-0.0, b=0.0)
@example(a=1e300, b=-1e300)
@example(a=math.nextafter(_HALF_PI, 0.0), b=math.nextafter(-_HALF_PI, 0.0))
def test_scalar_angle_paths_equal_array_paths_bitwise(a, b):
    assert _bits(_quiet(wrap_angle, a)) == _bits(_array_wrap(a))
    assert _bits(_quiet(angle_diff, a, b)) == _bits(_array_diff(a, b))


def test_rect_corners_ccw_and_area():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = random_rect(rng)
        corners = r.corners()
        assert corners.shape == (4, 2)
        x, y = corners[:, 0], corners[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0  # counterclockwise
        assert signed == pytest.approx(r.area, rel=1e-9)


def test_iou_identical_and_disjoint():
    r = OrientedRect((3, 4), 2, 1, 0.7)
    assert rotated_iou(r, r) == 1.0
    far = OrientedRect((100, 100), 2, 1, -0.2)
    assert rotated_iou(r, far) == 0.0


def test_iou_half_offset_squares():
    a = OrientedRect((0, 0), 1, 1, 0.0)
    b = OrientedRect((0.5, 0), 1, 1, 0.0)
    assert rotated_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
    assert abs(rotated_iou(a, b) - iou_rasterized(a, b)) < 0.01


def test_iou_symmetric_and_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        a, b = random_rect(rng), random_rect(rng)
        iou = rotated_iou(a, b)
        assert iou == rotated_iou(b, a)
        assert 0.0 <= iou <= 1.0
        assert abs(iou - iou_rasterized(a, b)) < 0.01


def test_iou_rigid_transform_invariant():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a, b = random_rect(rng), random_rect(rng)
        base = rotated_iou(a, b)
        phi = float(rng.uniform(-math.pi, math.pi))
        tx, ty = rng.uniform(-10, 10, size=2)
        c, s = math.cos(phi), math.sin(phi)

        def moved(r):
            cx, cy = r.center
            return OrientedRect(
                (c * cx - s * cy + tx, s * cx + c * cy + ty), r.width, r.height, r.theta + phi
            )

        assert abs(rotated_iou(moved(a), moved(b)) - base) < 1e-6


def test_iou_theta_plus_pi_is_same_rect():
    r = OrientedRect((1, 2), 3, 1.5, 0.4)
    flipped = OrientedRect((1, 2), 3, 1.5, 0.4 + math.pi)
    assert rotated_iou(r, flipped) == pytest.approx(1.0, abs=1e-12)


def test_grasp_validation():
    with pytest.raises(ValueError):
        Grasp(0, 0, math.pi, 1.0)  # angle outside (-pi/2, pi/2]
    with pytest.raises(ValueError):
        Grasp(0, 0, 0.0, -1.0)
    with pytest.raises(ValueError):
        Grasp(0, 0, 0.0, 1.0, h=0.0)


def test_annotation_file_roundtrip(tmp_path):
    grasps = [Grasp(1.5, 2.5, 0.3, 10.0, 5.0), Grasp(7.0, 8.0, -1.2, 4.0, None)]
    path = tmp_path / "ann.jsonl"
    write_annotations(grasps, path)
    text = path.read_text()
    assert '"theta_deg"' in text  # degrees on disk
    back = read_annotations(path)
    assert len(back) == 2
    for g, b in zip(grasps, back):
        assert (b.x, b.y, b.w, b.h) == (g.x, g.y, g.w, g.h)
        assert angle_diff(b.theta, g.theta) < 1e-12


def test_grasp_rejects_infinite_size():
    with pytest.raises(ValueError, match="width"):
        Grasp(1.0, 2.0, 0.3, math.inf)
    with pytest.raises(ValueError, match="height"):
        Grasp(1.0, 2.0, 0.3, 10.0, h=math.inf)


@pytest.mark.parametrize("field", ["x", "y", "theta", "w", "h"])
def test_grasp_rejects_an_integer_beyond_the_float_range(field):
    values = {"x": 1.0, "y": 2.0, "theta": 0.3, "w": 10.0, "h": 5.0}
    values[field] = 10**400
    with pytest.raises(ValueError, match="float range"):
        Grasp(**values)


GOOD_RECORD = '{"x": 1.0, "y": 2.0, "theta_deg": 10.0, "w": 8.0, "h": null}'


@pytest.mark.parametrize(
    "record, field",
    [
        ("[1, 2]", "JSON object"),
        ('"str"', "JSON object"),
        ("3.5", "JSON object"),
        ('{"x": null, "y": 2, "theta_deg": 0, "w": 8}', "'x'"),
        ('{"x": 1, "y": [2], "theta_deg": 0, "w": 8}', "'y'"),
        ('{"x": 1, "y": 2, "theta_deg": true, "w": 8}', "'theta_deg'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": "8"}', "'w'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": 1e400}', "'w'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": 8, "h": false}', "'h'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": 8, "h": NaN}', "'h'"),
        ('{"x": 1' + "0" * 400 + ', "y": 2, "theta_deg": 0, "w": 8}', "'x'"),
        ('{"y": 2, "theta_deg": 0, "w": 8}', "'x'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": -8}', "width"),
    ],
    ids=["list", "string", "number", "null", "list-field", "bool", "text", "inf", "bool-h",
         "nan-h", "int-beyond-float", "missing", "negative-width"],
)
def test_annotation_readers_reject_bad_records(tmp_path, record, field):
    path = tmp_path / "ann.jsonl"
    path.write_text(GOOD_RECORD + "\n\n" + record + "\n")
    for reader in (read_annotations, read_annotation_groups):
        with pytest.raises(ValueError, match="line 3") as info:
            reader(path)
        assert field in str(info.value)


def test_annotation_line_with_an_over_long_integer_names_the_line():
    # beyond Python's 4300-digit limit on int parsing, which json.loads hits
    line = '{"x": 1' + "0" * 5000 + ', "y": 2, "theta_deg": 0, "w": 8}\n'
    for reader in (read_annotations, read_annotation_groups):
        with pytest.raises(ValueError, match="^line 1: invalid JSON"):
            reader(io.StringIO(line))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_annotation_file_with_a_non_utf8_byte_names_the_line(tmp_path, newline):
    path = tmp_path / "ann.jsonl"
    path.write_bytes(GOOD_RECORD.encode() + newline + b'{"x": 1\xff}' + newline)
    for reader in (read_annotations, read_annotation_groups):
        with pytest.raises(ValueError, match="^line 2: invalid UTF-8"):
            reader(path)
    # the same line, valid UTF-8 but not JSON, gets the same number
    path.write_bytes(GOOD_RECORD.encode() + newline + b'{"x": 1}}' + newline)
    with pytest.raises(ValueError, match="^line 2: invalid JSON"):
        read_annotations(path)


def _iou_outcome(fn, *args):
    """``float.hex`` of an IoU, or "ValueError" for an area overflow."""
    try:
        return float.hex(fn(*args))
    except ValueError as exc:
        assert "areas overflow" in str(exc)
        return "ValueError"


def _kernel_outcomes(a, b):
    try:
        return [float.hex(v) for v in _rotated_ious([a, b], [(0, 1), (1, 0)])]
    except ValueError as exc:
        assert "areas overflow" in str(exc)
        return ["ValueError"] * 2


def _assert_kernel_matches_reference(a, b):
    got = [_iou_outcome(rotated_iou, a, b), _iou_outcome(rotated_iou, b, a)]
    assert _kernel_outcomes(a, b) == got
    if max(a.width, a.height, b.width, b.height) <= 1e6:
        assert "ValueError" not in got  # only areas near the float range raise
    if reference_clip_divides_by_zero(a, b):
        # the kernel leaves that crossing out and returns one symmetric value
        assert got[0] == got[1]
        assert got[0] == "ValueError" or 0.0 <= float.fromhex(got[0]) <= 1.0
    else:
        expected = _iou_outcome(rotated_iou_reference, a, b)
        assert got == [expected, expected]


_SIDE = st.floats(1e-6, 1e6)
_HUGE_SIDE = st.floats(1e154, 1.7e308)
_CENTER = st.floats(-1e6, 1e6)
_THETA = st.sampled_from([-_HALF_PI, _HALF_PI, 0.0]) | st.floats(-_HALF_PI, _HALF_PI)


@st.composite
def _rect_pairs(draw):
    kind = draw(st.sampled_from(["overlapping", "identical", "nested", "touching", "overflow"]))
    cx, cy = draw(_CENTER), draw(_CENTER)
    a = OrientedRect((cx, cy), draw(_SIDE), draw(_SIDE), draw(_THETA))
    if kind == "identical":
        return a, OrientedRect(a.center, a.width, a.height, a.theta)
    if kind == "nested":
        # same center and axis; a factor of 1 makes two edges collinear
        fw, fh = (draw(st.just(1.0) | st.floats(0.01, 1.0)) for _ in range(2))
        return a, OrientedRect(a.center, a.width * fw, a.height * fh, a.theta)
    if kind == "touching":
        # b beside a along a's axis: the facing edges meet up to rounding
        bw = draw(_SIDE)
        shift = (a.width + bw) / 2
        c, s = math.cos(a.theta), math.sin(a.theta)
        return a, OrientedRect((cx + shift * c, cy + shift * s), bw, a.height, a.theta)
    if kind == "overflow":
        return OrientedRect((cx, cy), draw(_HUGE_SIDE), draw(_SIDE | _HUGE_SIDE), draw(_THETA)), a
    u, v = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    b_center = (cx + u * a.width, cy + v * a.height)
    return a, OrientedRect(b_center, draw(_SIDE), draw(_SIDE), draw(_THETA))


@settings(max_examples=1500, deadline=None)
@given(pair=_rect_pairs())
def test_iou_kernel_equals_pairwise_reference_bitwise(pair):
    _assert_kernel_matches_reference(*pair)


def test_iou_kernel_equals_reference_for_3_to_8_clip_vertices():
    """One kernel call over 3000 seeded pairs (many polygons per shoelace
    call) equals the pair-at-a-time reference, and the pairs' clips have
    every vertex count from 3 to 8.  Each rectangle's corners, one row of
    a stacked matmul, equal its own 2-D matmul."""
    rng = np.random.default_rng(0)
    rects = [random_rect(rng, span=2.0) for _ in range(6000)]
    assert all(r.corners().tobytes() == corners_reference(r).tobytes() for r in rects)
    pairs = [(2 * k, 2 * k + 1) for k in range(3000)]
    got = [float.hex(v) for v in _rotated_ious(rects, pairs)]
    assert got == [float.hex(rotated_iou_reference(rects[i], rects[j])) for i, j in pairs]
    counts = {len(_clip_convex(rects[i].corners().tolist(), rects[j].corners().tolist())) for i, j in pairs}
    assert set(range(3, 9)) <= counts


def test_iou_of_nested_rects_with_collinear_ends_is_their_area_ratio():
    """Same center, width and angle, different heights: the short edges are
    collinear, and rounding puts one corner of each on the far side of the
    other's edge line.  The pairwise reference divided by zero there and
    raised "areas overflow"."""
    center, width, theta = (36.52031583294033, 36.75912897579344), 29.05790484402766, -0.6379087388378138
    outer = OrientedRect(center, width, 20.0, theta)
    inner = OrientedRect(center, width, 12.869723226770699, theta)
    assert reference_clip_divides_by_zero(outer, inner)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="areas overflow"):
        rotated_iou_reference(outer, inner)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iou = rotated_iou(outer, inner)
    assert iou == rotated_iou(inner, outer)
    assert iou == pytest.approx(12.869723226770699 / 20.0, rel=1e-12)


def test_iou_overflow_raises_value_error_without_numpy_warnings():
    truth = OrientedRect((50.0, 50.0), 20.0, 10.0, 0.0)
    huge = OrientedRect((50.0, 50.0), 1e308, 23.33, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((huge, truth), (truth, huge)):
            with pytest.raises(ValueError, match="areas overflow"):
                rotated_iou(a, b)


@settings(max_examples=400, deadline=None)
@given(text=annotation_texts)
def test_annotation_readers_parse_or_name_the_line(text):
    for reader in (read_annotations, read_annotation_groups):
        try:
            reader(io.StringIO(text))
        except ValueError as exc:
            found = re.match(r"line (\d+): ", str(exc))
            assert found, str(exc)
            assert 1 <= int(found.group(1)) <= len(text.splitlines())


def test_deeply_nested_annotation_line_is_invalid_json():
    text = "[" * 100_000 + "]" * 100_000 + "\n"
    for reader in (read_annotations, read_annotation_groups):
        with pytest.raises(ValueError, match="line 1: invalid JSON"):
            reader(io.StringIO(text))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_iou_rejects_areas_beyond_the_float_range():
    truth = OrientedRect((50.0, 50.0), 20.0, 10.0, 0.0)
    huge = OrientedRect((50.0, 50.0), 1e308, 23.33, 0.0)  # shoelace area overflows
    for a, b in ((huge, truth), (truth, huge)):
        with pytest.raises(ValueError, match="areas overflow"):
            rotated_iou(a, b)
    big = OrientedRect((50.0, 50.0), 1e200, 23.33, 0.0)
    assert rotated_iou(big, truth) == pytest.approx(200.0 / (1e200 * 23.33), rel=1e-12)  # 8.57e-200


@pytest.mark.parametrize("source", ["path", "text", "binary"])
def test_unicode_line_separators_inside_a_string_are_data(tmp_path, source):
    # JSON allows U+2028, U+2029 and U+0085 raw inside a string; a line ends
    # only at \n, \r\n or \r
    image_id = "a\u2028b\u2029c\u0085d"
    line = json.dumps({"x": 1.0, "y": 2.0, "theta_deg": 10.0, "w": 8.0, "image_id": image_id},
                      ensure_ascii=False)
    text = GOOD_RECORD + "\n" + line + "\n"
    path = tmp_path / "ann.jsonl"
    path.write_bytes(text.encode("utf-8"))
    open_source = {"path": lambda: path, "text": lambda: io.StringIO(text),
                   "binary": lambda: io.BytesIO(text.encode("utf-8"))}[source]
    groups = read_annotation_groups(open_source())
    assert list(groups) == ["0", image_id]
    assert groups["0"] == groups[image_id] == read_annotations(open_source())[:1]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_binary_stream_with_a_non_utf8_byte_names_the_line(newline):
    data = GOOD_RECORD.encode() + newline + b'{"x": 1\xff}' + newline
    for reader in (read_annotations, read_annotation_groups):
        with pytest.raises(ValueError, match="^line 2: invalid UTF-8: invalid start byte"):
            reader(io.BytesIO(data))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_files_keep_their_line_numbers(tmp_path, newline):
    path = tmp_path / "ann.jsonl"
    for bad, message in (('{"x": 1}}', "^line 4: invalid JSON"), ('{"x": 1}', "^line 4: field 'y'")):
        path.write_bytes(newline.join([GOOD_RECORD, "", GOOD_RECORD, bad, ""]).encode())
        for reader in (read_annotations, read_annotation_groups):
            with pytest.raises(ValueError, match=message):
                reader(path)


def test_the_integer_rule_holds_int64s_range():
    for value in (2**63 - 1, -(2**63), np.int64(-(2**63)), np.uint64(2**63 - 1), 0):
        assert _integer(value)
    for value in (2**63, -(2**63) - 1, np.uint64(2**63), np.bool_(True), True, 10**5000):
        assert not _integer(value)
