"""GKTB format: round-trips and rejection of every invariant violation."""

import hashlib
import io
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit import (
    BadMagicError,
    DimensionError,
    GKTBError,
    HeaderError,
    HeatmapBundle,
    PayloadError,
    ValueRangeError,
    read_bundle,
    read_depth_gktb,
    read_gktb,
    write_bundle,
    write_gktb,
)
from graspkit.bundle import CANONICAL_PLANES, _plane_shape
from helpers import random_bundle


def roundtrip(bundle):
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    buf.seek(0)
    return read_bundle(buf)


def serialized(bundle):
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    return buf.getvalue()


def test_header_declares_left_stack_dims():
    # 18-class 57x57 bundle, the Cornell-sized configuration
    rng = np.random.default_rng(0)
    b = HeatmapBundle(
        left=rng.random((18, 57, 57), dtype=np.float32),
        right=rng.random((18, 57, 57), dtype=np.float32),
        center=rng.random((57, 57), dtype=np.float32),
        offsetL=rng.random((2, 57, 57), dtype=np.float32),
        offsetR=rng.random((2, 57, 57), dtype=np.float32),
        embedL=rng.normal(size=(57, 57)).astype(np.float32),
        embedR=rng.normal(size=(57, 57)).astype(np.float32),
        num_classes=18,
        downsample_ratio=4,
    )
    blob = serialized(b)
    assert blob[:4] == b"GKTB"
    assert blob[4] == 1
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9 : 9 + hlen].decode("utf-8"))
    assert header["planes"][0] == {"name": "left", "count": 18}
    assert (header["num_classes"], header["height"], header["width"]) == (18, 57, 57)


def test_trivial_1x1_roundtrip():
    b = HeatmapBundle(
        left=np.zeros((1, 1, 1), np.float32),
        right=np.zeros((1, 1, 1), np.float32),
        center=np.zeros((1, 1), np.float32),
        offsetL=np.zeros((2, 1, 1), np.float32),
        offsetR=np.zeros((2, 1, 1), np.float32),
        embedL=np.zeros((1, 1), np.float32),
        embedR=np.zeros((1, 1), np.float32),
        num_classes=1,
        downsample_ratio=1,
    )
    assert roundtrip(b).equals(b)


def test_random_roundtrips_are_byte_identical():
    rng = np.random.default_rng(42)
    for _ in range(100):
        b = random_bundle(rng)
        blob = serialized(b)
        b2 = read_bundle(io.BytesIO(blob))
        assert b2.equals(b)
        assert serialized(b2) == blob


def test_path_roundtrip(tmp_path):
    b = random_bundle(np.random.default_rng(1))
    path = tmp_path / "b.gktb"
    n = write_bundle(b, path)
    assert path.stat().st_size == n
    assert read_bundle(path).equals(b)


def test_bad_magic():
    blob = bytearray(serialized(random_bundle(np.random.default_rng(2))))
    blob[:4] = b"NOPE"
    with pytest.raises(BadMagicError):
        read_bundle(io.BytesIO(bytes(blob)))


def test_bad_version():
    blob = bytearray(serialized(random_bundle(np.random.default_rng(3))))
    blob[4] = 9
    with pytest.raises(HeaderError):
        read_bundle(io.BytesIO(bytes(blob)))


def test_truncated_payload():
    blob = serialized(random_bundle(np.random.default_rng(4)))
    with pytest.raises(DimensionError, match="truncated"):
        read_bundle(io.BytesIO(blob[:-8]))


def test_trailing_garbage():
    blob = serialized(random_bundle(np.random.default_rng(5)))
    with pytest.raises(DimensionError, match="trailing"):
        read_bundle(io.BytesIO(blob + b"\x00"))


def _patch_first_left_float(blob, value):
    (hlen,) = struct.unpack("<I", blob[5:9])
    start = 9 + hlen  # left plane begins here
    return blob[:start] + struct.pack("<f", value) + blob[start + 4 :]


def test_nan_payload_rejected():
    blob = serialized(random_bundle(np.random.default_rng(6)))
    with pytest.raises(PayloadError, match="left"):
        read_bundle(io.BytesIO(_patch_first_left_float(blob, float("nan"))))


def test_out_of_range_heatmap_rejected():
    blob = serialized(random_bundle(np.random.default_rng(7)))
    with pytest.raises(ValueRangeError, match="left"):
        read_bundle(io.BytesIO(_patch_first_left_float(blob, 1.5)))
    with pytest.raises(ValueRangeError, match="left"):
        read_bundle(io.BytesIO(_patch_first_left_float(blob, -0.25)))


def test_offset_range_is_half_open():
    b = random_bundle(np.random.default_rng(8))
    b.offsetL[0, 0, 0] = 1.0  # offsets must stay strictly below 1
    with pytest.raises(ValueRangeError, match="offsetL"):
        write_bundle(b, io.BytesIO())


def test_validate_rejects_plane_count_mismatch():
    b = random_bundle(np.random.default_rng(9))
    b.num_classes = b.num_classes + 1
    with pytest.raises(DimensionError, match="left"):
        b.validate()


def test_validate_rejects_shape_mismatch():
    b = random_bundle(np.random.default_rng(10))
    b.center = np.zeros((b.height + 1, b.width), np.float32)
    with pytest.raises(DimensionError):
        b.validate()


@pytest.mark.parametrize("height, width", [(0, 0), (0, 5), (4, 0)])
def test_validate_rejects_a_grid_the_writer_rejects(height, width):
    c = 3
    bundle = HeatmapBundle(
        **{name: np.zeros(_plane_shape(name, c, height, width), np.float32) for name in CANONICAL_PLANES},
        num_classes=c, downsample_ratio=4,
    )
    with pytest.raises(DimensionError, match=f"grid must be at least 1x1, got {height}x{width}"):
        bundle.validate()
    with pytest.raises(DimensionError, match="grid must be at least 1x1"):
        write_bundle(bundle, io.BytesIO())


def test_header_count_mismatch_rejected():
    blob = bytearray(serialized(random_bundle(np.random.default_rng(11))))
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(bytes(blob[9 : 9 + hlen]).decode())
    header["num_classes"] = header["num_classes"] + 1
    new = json.dumps(header, separators=(",", ":")).encode()
    patched = bytes(blob[:5]) + struct.pack("<I", len(new)) + new + bytes(blob[9 + hlen :])
    with pytest.raises(DimensionError):
        read_bundle(io.BytesIO(patched))


def test_missing_plane_rejected():
    blob = bytearray(serialized(random_bundle(np.random.default_rng(12))))
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(bytes(blob[9 : 9 + hlen]).decode())
    dropped = header["planes"].pop()  # embedR, the last plane
    new = json.dumps(header, separators=(",", ":")).encode()
    h, w = header["height"], header["width"]
    payload_end = len(blob) - 4 * dropped["count"] * h * w
    patched = bytes(blob[:5]) + struct.pack("<I", len(new)) + new + bytes(blob[9 + hlen : payload_end])
    with pytest.raises(HeaderError, match="embedR"):
        read_bundle(io.BytesIO(patched))


def test_malformed_header_json():
    junk = b"GKTB" + struct.pack("<B", 1) + struct.pack("<I", 4) + b"{oop"
    with pytest.raises(HeaderError):
        read_bundle(io.BytesIO(junk))


def test_generic_reader_accepts_other_plane_names():
    buf = io.BytesIO()
    depth = np.full((1, 4, 6), 1000.0, dtype=np.float32)
    from graspkit import write_gktb

    write_gktb(buf, [("depth", depth)], num_classes=0, downsample_ratio=1)
    buf.seek(0)
    header, planes = read_gktb(buf)
    assert planes[0][0] == "depth"
    assert planes[0][1].shape == (1, 4, 6)
    assert header["downsample_ratio"] == 1


def _gktb_with_header(header):
    blob = json.dumps(header).encode("utf-8")
    return b"GKTB" + struct.pack("<B", 1) + struct.pack("<I", len(blob)) + blob + b"\0" * 4


_ONE_PLANE = {"num_classes": 1, "height": 1, "width": 1, "downsample_ratio": 1,
              "planes": [{"name": "depth", "count": 1}]}


@pytest.mark.parametrize(
    "header",
    [
        ["num_classes", "height", "width", "downsample_ratio", "planes"],
        5,
        dict(_ONE_PLANE, planes=5),
        dict(_ONE_PLANE, planes=[{"name": "depth", "count": None}]),
        dict(_ONE_PLANE, height="x"),
        dict(_ONE_PLANE, height=2.7),
        dict(_ONE_PLANE, planes=[]),
    ],
    ids=["list-header", "number-header", "planes-not-list", "count-null", "height-text", "height-float",
         "no-planes"],
)
def test_malformed_header_fields_raise_header_error(header):
    assert read_gktb(io.BytesIO(_gktb_with_header(_ONE_PLANE)))[1][0][1].shape == (1, 1, 1)
    with pytest.raises(HeaderError):
        read_gktb(io.BytesIO(_gktb_with_header(header)))


# 10**6 x 10**6 grid, 1000 planes: 4e15 declared bytes on a stream of ~150
_HUGE_PLANE = dict(_ONE_PLANE, height=10**6, width=10**6, planes=[{"name": "depth", "count": 1000}])


def test_declared_sizes_beyond_the_stream_are_not_allocated(tmp_path):
    path = tmp_path / "huge.gktb"
    path.write_bytes(_gktb_with_header(_HUGE_PLANE))
    with pytest.raises(DimensionError, match="truncated"):
        read_gktb(path)
    path.write_bytes(b"GKTB" + struct.pack("<B", 1) + struct.pack("<I", 2**32 - 1) + b"{}")
    with pytest.raises(HeaderError, match="inside the JSON header"):
        read_gktb(path)


def test_planes_larger_than_one_read_chunk_roundtrip(tmp_path):
    depth = np.random.default_rng(8).random((2, 600, 600), dtype=np.float32)  # 2.9 MB
    path = tmp_path / "big.gktb"
    write_gktb(path, [("depth", depth)], num_classes=0, downsample_ratio=1)
    _, planes = read_gktb(path)
    assert np.array_equal(planes[0][1], depth)
    with pytest.raises(DimensionError, match="truncated"):
        read_gktb(io.BytesIO(path.read_bytes()[:-1]))


def test_write_bundle_bytes_are_pinned():
    # header layout, plane order and byte order of one fixed bundle (4 classes, 8x7)
    blob = serialized(random_bundle(np.random.default_rng(0)))
    want = "f2dba57a5999ec00f7e19cec59a6ac88df592de7394a3af0cf0eca998de3c7bb"
    assert hashlib.sha256(blob).hexdigest() == want


def test_write_gives_one_stream_for_any_plane_layout_and_counts_its_bytes():
    # planes are written straight from C-contiguous little-endian float32
    # memory, so strided, float64 and big-endian planes must be converted first
    base = np.random.default_rng(18).random((2, 6, 10), dtype=np.float32)
    want = io.BytesIO()
    nbytes = write_gktb(want, [("p", base)], num_classes=0, downsample_ratio=1)
    assert nbytes == len(want.getvalue())
    wide = np.repeat(base, 2, axis=2)
    for plane in (np.asfortranarray(base), wide[:, :, ::2], base.astype(np.float64), base.astype(">f4")):
        buf = io.BytesIO()
        assert write_gktb(buf, [("p", plane)], num_classes=0, downsample_ratio=1) == nbytes
        assert buf.getvalue() == want.getvalue()


def test_header_center_count_two_rejected():
    b = random_bundle(np.random.default_rng(13))
    planes = [(n, np.concatenate([arr, arr]) if n == "center" else arr) for n, arr in b.planes()]
    buf = io.BytesIO()
    write_gktb(buf, planes, num_classes=b.num_classes, downsample_ratio=b.downsample_ratio)
    buf.seek(0)
    with pytest.raises(DimensionError, match="plane center: expected 1 plane"):
        read_bundle(buf)


def test_write_rejects_duplicate_names_and_non_3d_planes():
    depth = np.full((1, 3, 3), 1000.0, dtype=np.float32)
    with pytest.raises(HeaderError, match="duplicate plane 'depth'"):
        write_gktb(io.BytesIO(), [("depth", depth), ("depth", depth + 1.0)], num_classes=0,
                   downsample_ratio=1)
    with pytest.raises(DimensionError, match="plane depth: expected a 3-D array"):
        write_gktb(io.BytesIO(), [("depth", depth[0])], num_classes=0, downsample_ratio=1)


def test_read_rejects_duplicate_plane_names(tmp_path):
    header = dict(_ONE_PLANE, planes=[{"name": "depth", "count": 1}] * 2)
    stream = _gktb_with_header(header) + struct.pack("<f", 2000.0)
    with pytest.raises(HeaderError, match="duplicate plane 'depth'"):
        read_gktb(io.BytesIO(stream))
    path = tmp_path / "two-depths.gktb"
    path.write_bytes(stream)
    with pytest.raises(HeaderError, match="duplicate plane 'depth'"):
        read_depth_gktb(path)


def test_deeply_nested_header_raises_header_error():
    blob = b"[" * 100_000 + b"]" * 100_000
    stream = b"GKTB" + struct.pack("<B", 1) + struct.pack("<I", len(blob)) + blob
    with pytest.raises(HeaderError, match="not valid UTF-8 JSON"):
        read_gktb(io.BytesIO(stream))


def test_validate_finite_test_precedes_range_tests():
    b = random_bundle(np.random.default_rng(14))
    b.left[0, 0, 0] = np.inf
    with pytest.raises(PayloadError, match="plane left: non-finite"):
        b.validate()
    b = random_bundle(np.random.default_rng(15))
    b.embedR[0, 0] = np.nan
    with pytest.raises(PayloadError, match="plane embedR: non-finite"):
        b.validate()
    b.left[0, 0, 0] = 1.5  # out of range, but embedR's NaN is reported first
    with pytest.raises(PayloadError, match="plane embedR"):
        b.validate()


def test_float64_overflow_in_a_bundle_plane_is_payload_error_without_warning():
    b = random_bundle(np.random.default_rng(16))
    planes = {name: getattr(b, name) for name in CANONICAL_PLANES}
    planes["embedL"] = np.full(b.embedL.shape, 1e39)  # finite float64, inf as float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's cast warning would raise here
        bundle = HeatmapBundle(**planes, num_classes=b.num_classes, downsample_ratio=b.downsample_ratio)
    with pytest.raises(PayloadError, match="plane embedL: non-finite"):
        bundle.validate()


def test_read_planes_are_writable_little_endian_float32_and_independent():
    b = random_bundle(np.random.default_rng(17))
    blob = serialized(b)
    _, planes = read_gktb(io.BytesIO(blob))
    for name, arr in planes:
        assert arr.dtype == np.dtype("<f4") and arr.flags.writeable, name
        arr[...] = 0.0
    _, again = read_gktb(io.BytesIO(blob))
    assert all(np.array_equal(a, p) for (_, a), (_, p) in zip(again, b.planes()))
    assert all(not arr.any() for _, arr in planes)


_A = np.ones((1, 2, 2), np.float32)


@pytest.mark.parametrize(
    "planes, error, message",
    [
        ([(1, _A), ("1", _A + 1.0)], HeaderError, "duplicate plane '1'"),
        ([], HeaderError, "header declares no planes"),
        ([("x", np.full((1, 2, 2), np.nan, np.float32))], PayloadError, "plane x: non-finite"),
        ([("x", np.full((1, 2, 2), 1e39))], PayloadError, "plane x: non-finite"),
        ([("x", np.zeros((1, 0, 5), np.float32))], HeaderError, "invalid grid size 0x5"),
        ([("x", np.zeros((0, 2, 2), np.float32))], HeaderError, "count must be >= 1"),
        ([("x", _A), ("y", np.ones((1, 3, 2), np.float32))], DimensionError, "plane y: grid"),
    ],
    ids=["int-and-str-name", "no-planes", "nan", "float64-overflow", "empty-grid", "empty-stack",
         "grid-mismatch"],
)
def test_write_applies_the_reader_rules_before_opening_dest(tmp_path, planes, error, message):
    with warnings.catch_warnings(), pytest.raises(error, match=message):
        warnings.simplefilter("error")  # the float64 overflow raises, numpy prints nothing
        write_gktb(io.BytesIO(), planes, num_classes=0, downsample_ratio=1)
    path = tmp_path / "existing.gktb"
    path.write_bytes(b"previous contents")
    with pytest.raises(error, match=message):
        write_gktb(path, planes, num_classes=0, downsample_ratio=1)
    assert path.read_bytes() == b"previous contents"


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"num_classes": 2.5, "downsample_ratio": 4}, "'num_classes' must be an integer, got 2.5"),
        ({"num_classes": 2, "downsample_ratio": True}, "'downsample_ratio' must be an integer, got True"),
        ({"num_classes": "2", "downsample_ratio": 4}, "'num_classes' must be an integer, got '2'"),
    ],
)
def test_write_checks_the_header_values_it_is_given(tmp_path, counts, message):
    path = tmp_path / "existing.gktb"
    path.write_bytes(b"previous contents")
    with pytest.raises(HeaderError, match=message):
        write_gktb(path, [("x", _A)], **counts)
    assert path.read_bytes() == b"previous contents"


def test_write_numpy_integer_counts_as_python_ints():
    plain, numpy_counts = io.BytesIO(), io.BytesIO()
    write_gktb(plain, [("x", _A)], num_classes=36, downsample_ratio=4)
    write_gktb(numpy_counts, [("x", _A)], num_classes=np.int64(36), downsample_ratio=np.int32(4))
    assert numpy_counts.getvalue() == plain.getvalue()
    numpy_counts.seek(0)
    assert read_gktb(numpy_counts)[0]["num_classes"] == 36


def test_write_stores_any_name_as_its_string():
    key = object()
    buf = io.BytesIO()
    write_gktb(buf, [(key, _A)], num_classes=0, downsample_ratio=1)
    buf.seek(0)
    assert [name for name, _ in read_gktb(buf)[1]] == [str(key)]


# Names mix ints with strings that print alike.  A quarter of the planes
# carry one value the reader rejects, float64 1e39 among them (finite, but
# inf as float32).
_NAMES = st.sampled_from([0, 1, "0", "1", "a"])
_FINITE = st.sampled_from([0.0, -0.0, 0.5, -2.5, 3e38])
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, 1e39])


@st.composite
def _plane_lists(draw):
    height, width = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    planes = []
    for _ in range(draw(st.integers(0, 3))):
        shape = (draw(st.sampled_from([0, 1, 1, 2])), height, width + draw(st.sampled_from([0, 0, 0, 1])))
        values = np.array(draw(st.lists(_FINITE, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape)))), dtype=np.float64)
        if values.size and draw(st.integers(0, 3)) == 0:
            values[draw(st.integers(0, values.size - 1))] = draw(_NON_FINITE)
        planes.append((draw(_NAMES), values.reshape(shape)))
    return planes


@settings(max_examples=300, deadline=None)
@given(planes=_plane_lists())
def test_every_plane_list_raises_or_reads_back_bit_exactly(tmp_path_factory, planes):
    path = tmp_path_factory.mktemp("write") / "existing.gktb"
    path.write_bytes(b"previous contents")
    buf = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            n = write_gktb(path, planes, num_classes=0, downsample_ratio=1)
        except GKTBError:
            assert path.read_bytes() == b"previous contents"
            return
        write_gktb(buf, planes, num_classes=0, downsample_ratio=1)
    assert path.read_bytes() == buf.getvalue() and len(buf.getvalue()) == n
    _, back = read_gktb(path)
    assert [name for name, _ in back] == [str(name) for name, _ in planes]
    for (_, got), (_, arr) in zip(back, planes):
        assert got.tobytes() == arr.astype(np.float32).tobytes()


_VALID = serialized(random_bundle(np.random.default_rng(16)))
_HEADER_LEN = struct.unpack("<I", _VALID[5:9])[0]
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(allow_nan=True),
                         st.text(max_size=4), st.just("9" * 5000), st.lists(st.integers(0, 3), max_size=2),
                         st.just({}))


def _with_header(header):
    long_int = b"9" * 5000  # beyond Python's int-parsing digit limit; written unquoted
    blob = json.dumps(header).encode("utf-8").replace(b'"%s"' % long_int, long_int)
    return _VALID[:5] + struct.pack("<I", len(blob)) + blob + _VALID[9 + _HEADER_LEN :]


@st.composite
def _edited_header(draw):
    header = json.loads(_VALID[9 : 9 + _HEADER_LEN])
    entry = draw(st.sampled_from([header] + header["planes"]))
    entry[draw(st.sampled_from(sorted(entry)) | st.text(max_size=3))] = draw(_JSON_VALUES)
    return _with_header(header)


@st.composite
def _flipped(draw):
    blob = bytearray(_VALID)
    for _ in range(draw(st.integers(1, 4))):
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    return bytes(blob)


_CORRUPT = st.one_of(_flipped(), st.integers(0, len(_VALID) - 1).map(lambda n: _VALID[:n]),
                     _edited_header())


@settings(max_examples=500, deadline=None)
@given(stream=_CORRUPT)
def test_corrupt_streams_parse_or_raise_gktb_error(stream):
    for read in (read_gktb, read_bundle):
        try:
            read(io.BytesIO(stream))
        except GKTBError:
            pass


def test_validate_and_write_reject_a_3d_center_with_dimension_error():
    b = random_bundle(np.random.default_rng(17))
    planes = {name: getattr(b, name) for name in CANONICAL_PLANES}
    planes["center"] = b.center[None]  # (1, H, W), where a bundle holds (H, W)
    bundle = HeatmapBundle(**planes, num_classes=b.num_classes, downsample_ratio=b.downsample_ratio)
    with pytest.raises(DimensionError, match=r"plane center: shape \(1, \d+, \d+\) does not match"):
        bundle.validate()
    with pytest.raises(DimensionError, match="plane center"):
        write_bundle(bundle, io.BytesIO())


def test_bundle_with_an_extra_plane_names_it():
    b = random_bundle(np.random.default_rng(18))
    buf = io.BytesIO()
    write_gktb(buf, [*b.planes(), ("mask", b.center[None])],
               num_classes=b.num_classes, downsample_ratio=b.downsample_ratio)
    buf.seek(0)
    with pytest.raises(HeaderError, match=r"\['mask'\]"):
        read_bundle(buf)


@pytest.mark.parametrize("field", ["num_classes", "downsample_ratio"])
@pytest.mark.parametrize("value", [2.5, "4", True])
def test_bundle_counts_must_be_integers(field, value):
    b = random_bundle(np.random.default_rng(19))
    planes = {name: getattr(b, name) for name in CANONICAL_PLANES}
    counts = {"num_classes": b.num_classes, "downsample_ratio": b.downsample_ratio, field: value}
    with pytest.raises(DimensionError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        HeatmapBundle(**planes, **counts)


def test_bundle_counts_accept_numpy_integers():
    b = random_bundle(np.random.default_rng(20))
    planes = {name: getattr(b, name) for name in CANONICAL_PLANES}
    bundle = HeatmapBundle(**planes, num_classes=np.int64(b.num_classes), downsample_ratio=np.int32(3))
    assert type(bundle.num_classes) is int and type(bundle.downsample_ratio) is int
    assert bundle.validate().downsample_ratio == 3
