"""Heatmap bundle container and the GKTB on-disk tensor format.

A :class:`HeatmapBundle` holds the dense per-pixel maps a keypoint detector
produces for one image: per-orientation-class left/right keypoint heatmaps,
a single center heatmap, two-plane sub-pixel offset stacks and one scalar
embedding plane per keypoint role.  Grids are float32 numpy arrays and every
plane of a bundle shares one (height, width).

GKTB v1 layout (little-endian throughout):

    bytes 0..3   magic "GKTB"
    byte  4      format version, currently 1
    bytes 5..8   header length, unsigned 32-bit
    header       UTF-8 JSON: {"num_classes", "height", "width",
                 "downsample_ratio", "planes": [{"name", "count"}, ...]}
    payload      per plane, count * height * width float32 values,
                 row-major, concatenated in header order

Canonical plane order for bundles: left, right, center, offsetL, offsetR,
embedL, embedR.  Heatmap values live in [0, 1], offsets in [0, 1); value
ranges are enforced at load time, not during arithmetic.  A write followed
by a read round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .geometry import _require_integer

MAGIC = b"GKTB"
VERSION = 1

# The bundle layout, in canonical order: plane name -> stack count, with
# None standing for num_classes.  A count-1 plane is held as (H, W).
_PLANE_COUNTS = {"left": None, "right": None, "center": 1, "offsetL": 2, "offsetR": 2,
                 "embedL": 1, "embedR": 1}

CANONICAL_PLANES = tuple(_PLANE_COUNTS)


def _plane_shape(name, num_classes, height, width):
    """The shape a bundle holds plane ``name`` in, by ``_PLANE_COUNTS``."""
    count = _PLANE_COUNTS[name]
    return (height, width) if count == 1 else (count or num_classes, height, width)


class GKTBError(ValueError):
    """Base class for every bundle format / validation failure."""


class BadMagicError(GKTBError):
    """Stream does not start with the GKTB magic."""


class HeaderError(GKTBError):
    """Version, JSON header or header fields are malformed."""


class DimensionError(GKTBError):
    """Plane counts, shapes or payload length do not match the header."""


class PayloadError(GKTBError):
    """Payload contains NaN or infinite values."""


class ValueRangeError(GKTBError):
    """A heatmap or offset plane holds values outside its allowed range."""


def _float32(value):
    """``value`` as a float32 array; a value beyond the float32 range becomes
    +-inf without a numpy warning, for the caller's own finite check."""
    with np.errstate(over="ignore"):
        return np.asarray(value, dtype=np.float32)


@dataclass
class HeatmapBundle:
    """Stacked detector outputs for one image.

    Shapes: ``left`` / ``right`` are (num_classes, H, W); ``center``,
    ``embedL`` and ``embedR`` are (H, W); ``offsetL`` / ``offsetR`` are
    (2, H, W) holding the x-offset plane first, then the y-offset plane.
    Treat instances as immutable after construction.
    """

    left: np.ndarray
    right: np.ndarray
    center: np.ndarray
    offsetL: np.ndarray
    offsetR: np.ndarray
    embedL: np.ndarray
    embedR: np.ndarray
    num_classes: int
    downsample_ratio: int

    def __post_init__(self):
        for name in _PLANE_COUNTS:
            arr = _float32(getattr(self, name))  # an overflow to inf fails validate()
            if arr.ndim not in (2, 3):
                raise DimensionError(f"plane {name}: expected 2-D or 3-D array, got ndim={arr.ndim}")
            setattr(self, name, arr)
        for field in ("num_classes", "downsample_ratio"):
            setattr(self, field, int(_require_integer(field, getattr(self, field), DimensionError)))

    @property
    def height(self):
        return self.center.shape[0]

    @property
    def width(self):
        return self.center.shape[1]

    def planes(self):
        """Planes as (name, array) pairs in canonical order, 3-D views."""
        return [
            (name, getattr(self, name)[None] if count == 1 else getattr(self, name))
            for name, count in _PLANE_COUNTS.items()
        ]

    def _check_layout(self):
        """The half of :meth:`validate` that reads no plane value: counts,
        ratio, grid and plane shapes.  Raises DimensionError."""
        if self.num_classes < 1:
            raise DimensionError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.downsample_ratio < 1:
            raise DimensionError(f"downsample_ratio must be >= 1, got {self.downsample_ratio}")
        h, w = self.center.shape[-2:]
        if h < 1 or w < 1:
            raise DimensionError(f"grid must be at least 1x1, got {h}x{w}")
        for name in _PLANE_COUNTS:
            arr, expected = getattr(self, name), _plane_shape(name, self.num_classes, h, w)
            if arr.shape != expected:
                raise DimensionError(
                    f"plane {name}: shape {arr.shape} does not match expected {expected}"
                )

    def validate(self):
        """Check every bundle invariant; raises a GKTBError subclass, a
        DimensionError before any fault of a plane's values."""
        self._check_layout()
        bounds = {name: _bounds(name, getattr(self, name)) for name in _PLANE_COUNTS}
        for name in ("left", "right", "center"):
            lo, hi = bounds[name]
            if lo < 0.0 or hi > 1.0:
                raise ValueRangeError(f"plane {name}: heatmap value outside [0, 1] (min={lo}, max={hi})")
        for name in ("offsetL", "offsetR"):
            lo, hi = bounds[name]
            if lo < 0.0 or hi >= 1.0:
                raise ValueRangeError(f"plane {name}: offset value outside [0, 1) (min={lo}, max={hi})")
        return self

    def equals(self, other):
        """Value-for-value equality (exact, bit-level on plane data)."""
        if (self.num_classes, self.downsample_ratio) != (other.num_classes, other.downsample_ratio):
            return False
        return all(
            np.array_equal(a, b, equal_nan=True)
            for (_, a), (_, b) in zip(self.planes(), other.planes())
        )


def write_gktb(dest, planes, *, num_classes, downsample_ratio):
    """Write named float32 plane stacks as a GKTB stream.

    ``planes`` is an ordered list of (name, array), each array of shape
    (count, H, W), written in list order under ``str(name)``.  The writer
    applies the reader's rules (``_layout`` and the finite test) and raises
    HeaderError, DimensionError or PayloadError before it opens ``dest``,
    so every stream it writes reads back.  Returns the number of bytes
    written.  ``dest`` may be a path or a binary file object.
    """
    named = [(str(name), _float32(arr)) for name, arr in planes]
    for name, arr in named:
        if arr.ndim != 3:
            raise DimensionError(f"plane {name}: expected a 3-D array, got ndim={arr.ndim}")
    # one contiguous copy, if any, after the ndim check (it would make a 0-d
    # plane 1-d): a reduction over a plane with strides 0 is slow
    named = [(name, np.ascontiguousarray(arr, dtype="<f4")) for name, arr in named]
    height, width = named[0][1].shape[1:] if named else (0, 0)
    header = {
        "num_classes": num_classes,
        "height": height,
        "width": width,
        "downsample_ratio": downsample_ratio,
        "planes": [{"name": name, "count": arr.shape[0]} for name, arr in named],
    }
    _layout(header)
    for name, arr in named:
        if arr.shape[1:] != (height, width):
            raise DimensionError(f"plane {name}: grid {arr.shape[1:]} differs from {(height, width)}")
        _bounds(name, arr)
    # default=int writes the integers _layout accepts that json does not know (numpy's)
    blob = json.dumps(header, separators=(",", ":"), default=int).encode("utf-8")
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "wb") as fh:
        written = fh.write(MAGIC + struct.pack("<BI", VERSION, len(blob)) + blob)
        for _, arr in named:
            # written straight from the array, without a bytes copy per plane
            written += fh.write(memoryview(arr).cast("B"))
    return written


def _bounds(name, arr):
    """(min, max) of a plane, taking 0.0 into both; raises PayloadError
    unless both are finite, which NaN and infinities carry through."""
    lo, hi = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PayloadError(f"plane {name}: non-finite value in payload")
    return lo, hi


def _layout(header):
    """Check a decoded header by the rules reader and writer share; returns
    (height, width, [(name, count), ...]) or raises HeaderError."""
    if not isinstance(header, dict):
        raise HeaderError(f"header must be a JSON object, got {type(header).__name__}")
    for key in ("num_classes", "height", "width", "downsample_ratio", "planes"):
        if key not in header:
            raise HeaderError(f"header missing field {key!r}")
    for key in ("num_classes", "height", "width", "downsample_ratio"):
        _require_integer(f"header field {key!r}", header[key], HeaderError)
    if not isinstance(header["planes"], list):
        raise HeaderError(f"header field 'planes' must be a list, got {header['planes']!r}")
    if not header["planes"]:
        raise HeaderError("header declares no planes")
    height, width = header["height"], header["width"]
    if height < 1 or width < 1:
        raise HeaderError(f"invalid grid size {height}x{width}")
    counts = {}
    for entry in header["planes"]:
        if not isinstance(entry, dict) or "name" not in entry or "count" not in entry:
            raise HeaderError(f"malformed plane entry {entry!r}")
        name, count = str(entry["name"]), _require_integer("header field 'count'", entry["count"], HeaderError)
        if name in counts:
            raise HeaderError(f"duplicate plane {name!r}")
        if count < 1:
            raise HeaderError(f"plane {name}: count must be >= 1, got {count}")
        counts[name] = count
    return height, width, list(counts.items())


_READ_CHUNK = 1 << 20


def _read_upto(fh, nbytes):
    """Read at most ``nbytes`` into a writable uint8 array, in chunks of at
    most 1 MiB.

    A size comes from the header before it can be checked against the
    stream, so a short stream ends the read without allocating the
    declared size.  Each chunk is read straight into its own array, so a
    read of up to one chunk copies each byte once.
    """
    chunks = []
    while nbytes > 0:
        chunk = np.empty(min(nbytes, _READ_CHUNK), dtype=np.uint8)
        got = fh.readinto(chunk)
        if not got:
            break
        chunks.append(chunk[:got])
        nbytes -= got
    return chunks[0] if len(chunks) == 1 else np.concatenate([np.empty(0, np.uint8), *chunks])


def read_gktb(src):
    """Parse a GKTB stream into (header dict, list of (name, array)).

    Arrays come back float32 with shape (count, H, W).  Raises BadMagicError,
    HeaderError, DimensionError or PayloadError on malformed input.  Any
    plane holding NaN or infinities is rejected, and so is a header that
    names a plane twice or nests too deeply to parse (HeaderError).
    """
    with nullcontext(src) if hasattr(src, "read") else open(src, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        raw = fh.read(5)
        if len(raw) < 5:
            raise HeaderError("stream ends inside the fixed header")
        version = raw[0]
        if version != VERSION:
            raise HeaderError(f"unsupported GKTB version {version}")
        (header_len,) = struct.unpack("<I", raw[1:5])
        blob = _read_upto(fh, header_len)
        if len(blob) < header_len:
            raise HeaderError("stream ends inside the JSON header")
        try:
            header = json.loads(blob.tobytes().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or an over-long int
            raise HeaderError(f"header is not valid UTF-8 JSON: {exc}") from exc
        height, width, layout = _layout(header)
        planes = []
        for name, count in layout:
            nbytes = 4 * count * height * width
            payload = _read_upto(fh, nbytes)
            if len(payload) < nbytes:
                raise DimensionError(
                    f"plane {name}: truncated payload, expected {nbytes} bytes, got {len(payload)}"
                )
            arr = payload.view("<f4").reshape(count, height, width)
            _bounds(name, arr)
            planes.append((name, arr))
        if fh.read(1):
            raise DimensionError("trailing data after declared payload")
        return header, planes


def write_bundle(bundle, dest):
    """Serialize a validated bundle in canonical plane order; returns byte count."""
    bundle.validate()
    return write_gktb(
        dest,
        bundle.planes(),
        num_classes=bundle.num_classes,
        downsample_ratio=bundle.downsample_ratio,
    )


def _read_planes(src, counts, required):
    """``read_gktb`` as (header, {name: array}), holding every ``required`` plane
    and only the planes of ``counts``, each at its count (None: num_classes)."""
    header, planes = read_gktb(src)
    by_name = dict(planes)
    for name in required:
        if name not in by_name:
            raise HeaderError(f"no {name!r} plane in file (found {sorted(by_name)})")
    extra = [n for n in by_name if n not in counts]
    if extra:
        raise HeaderError(f"unexpected plane(s) {extra}")
    for name, arr in by_name.items():
        want, got = counts[name] or header["num_classes"], arr.shape[0]
        if got != want:
            raise DimensionError(f"plane {name}: expected {want} plane(s), header declares {got}")
    return header, by_name


def read_bundle(src):
    """Read and validate a HeatmapBundle from a GKTB stream."""
    header, by_name = _read_planes(src, _PLANE_COUNTS, _PLANE_COUNTS)
    for name, arr in by_name.items():
        by_name[name] = arr.reshape(_plane_shape(name, header["num_classes"], *arr.shape[1:]))
    bundle = HeatmapBundle(**by_name, num_classes=header["num_classes"],
                           downsample_ratio=header["downsample_ratio"])
    return bundle.validate()
