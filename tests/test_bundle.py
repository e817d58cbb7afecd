"""GKTB format: round-trips and rejection of every invariant violation."""

import hashlib
import io
import json
import struct

import numpy as np
import pytest

from graspkit import (
    BadMagicError,
    DimensionError,
    HeaderError,
    HeatmapBundle,
    PayloadError,
    ValueRangeError,
    read_bundle,
    read_gktb,
    write_bundle,
    write_gktb,
)
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


def test_header_center_count_two_rejected():
    b = random_bundle(np.random.default_rng(13))
    planes = [(n, np.concatenate([arr, arr]) if n == "center" else arr) for n, arr in b.planes()]
    buf = io.BytesIO()
    write_gktb(buf, planes, num_classes=b.num_classes, downsample_ratio=b.downsample_ratio)
    buf.seek(0)
    with pytest.raises(DimensionError, match="plane center: expected 1 plane"):
        read_bundle(buf)
