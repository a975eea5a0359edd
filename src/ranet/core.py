"""Domain value types and bit-exact image / annotation / density I/O.

All raster types wrap read-only numpy arrays so instances can be shared
freely across threads.  File formats:

* images: binary PGM (magic ``P5``, ASCII width/height, maxval 255),
* annotations: JSON object with a ``points`` list of ``[x, y]`` pairs,
* density maps: ``RADM`` header + row-major little-endian float32 payload.

Config dataclasses serialize to JSON-ready dicts derived from their fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

DENSITY_MAGIC = b"RADM"
DENSITY_VERSION = 1


class FormatError(ValueError):
    """A file does not conform to its declared on-disk format."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    # Copy a writable array, so the caller's own array is neither frozen nor shared.
    arr = arr.copy(order="C") if arr.flags.writeable else np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _grid(values, what: str, lo: float, hi: float) -> np.ndarray:
    """``values`` as a read-only float64 grid: 2D, non-empty, finite, within [lo, hi]."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.size == 0:
        raise ValueError(f"{what} must be a non-empty 2D grid, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} contains non-finite values")
    if v.min() < lo or v.max() > hi:
        raise ValueError(
            f"{what} values must lie in [{lo:g}, {hi:g}], "
            f"got range [{v.min():.6g}, {v.max():.6g}]"
        )
    return _readonly(v)


@dataclass(frozen=True)
class GrayImage:
    """Single-channel raster with pixel values in [0, 1]."""

    pixels: np.ndarray  # 2D float64, row-major

    def __post_init__(self):
        object.__setattr__(self, "pixels", _grid(self.pixels, "image", 0.0, 1.0))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class PointAnnotations:
    """Head-point ground truth: continuous (x=column, y=row) coordinates.

    Coordinates are referenced to pixel centers, origin at the top-left
    pixel.  The list may be empty (background-only scene).
    """

    points: np.ndarray  # shape (N, 2), columns (x, y); float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (N, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("annotation coordinates must be finite")
        object.__setattr__(self, "points", _readonly(pts))

    def __len__(self) -> int:
        return self.points.shape[0]

    def inside(self, height: int, width: int) -> bool:
        """True when every point lies within [0, width) x [0, height)."""
        x, y = self.points[:, 0], self.points[:, 1]
        return bool(
            (x >= 0).all() and (x < width).all() and (y >= 0).all() and (y < height).all()
        )


@dataclass(frozen=True)
class _ValueGrid:
    """A 2D float64 ``values`` field within the subclass's ``_range``: (name, lo, hi)."""

    values: np.ndarray  # 2D float64

    def __post_init__(self):
        object.__setattr__(self, "values", _grid(self.values, *self._range))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PriorityMap(_ValueGrid):
    """Image-sized [0, 1] field marking candidate crowd regions."""

    _range = ("priority map", 0.0, 1.0)


@dataclass(frozen=True)
class DensityMap(_ValueGrid):
    """Non-negative per-pixel density; the grid sum is the predicted count.

    Values live as float64 in memory; the RADM file format quantizes to
    float32, and loading gives those float32 values back exactly.
    """

    _range = ("density map", 0.0, math.inf)

    @property
    def count(self) -> float:
        """Predicted person count: the sum of all cells (float64 accumulation)."""
        return float(self.values.sum(dtype=np.float64))


@dataclass(frozen=True)
class Scene:
    """One sample: an image and its head annotations."""

    image: GrayImage
    annotations: PointAnnotations

    def __post_init__(self):
        if not self.annotations.inside(self.image.height, self.image.width):
            raise ValueError("annotation coordinates fall outside the image bounds")


# ---------------------------------------------------------------------------
# Config documents
# ---------------------------------------------------------------------------


class ConfigDoc:
    """Mixin giving a config dataclass ``to_dict`` / ``from_dict`` derived from its fields.

    Tuples are stored as lists and a nested config as a nested dict.

    Every float field must be finite: a subclass's ``__post_init__`` calls
    this one first, so no config holds a value its own document refuses.

    ``_retired`` maps each key of a setting that older builds wrote and this
    build fixes to the one JSON value it may still hold; ``from_dict``
    accepts such a key at that value and refuses it at any other.
    """

    _retired = {}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")

    def to_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ConfigDoc):
                value = value.to_dict()
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_dict(cls, doc: dict):
        """Inverse of ``to_dict``; FormatError on a missing, unknown or mistyped key."""
        if not isinstance(doc, dict):
            raise FormatError(f"{cls.__name__} document must be a JSON object")
        hints = get_type_hints(cls)
        names = [f.name for f in fields(cls)]
        for key, value in doc.items():
            if key in cls._retired:
                fixed = cls._retired[key]
                if not (_fits(value, type(fixed)) and value == fixed):
                    raise FormatError(f"config key {key!r}: {value!r:.40} is retired; "
                                      f"this build fixes it at {fixed!r}")
            elif key not in names:
                raise FormatError(f"config key {key!r} is not a setting of {cls.__name__}")
        kwargs = {}
        for key in names:
            if key not in doc:
                raise FormatError(f"config key {key!r} is missing")
            hint, value = hints[key], doc[key]
            if issubclass(get_origin(hint) or hint, ConfigDoc):
                kwargs[key] = hint.from_dict(value)
            elif _fits(value, hint):
                kwargs[key] = tuple(value) if isinstance(value, list) else value
            else:
                expected = hint.__name__ if isinstance(hint, type) else hint
                raise FormatError(f"config key {key!r}: {value!r:.40} is not a valid {expected}")
        return cls(**kwargs)


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field of type ``hint`` (floats finite)."""
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if hint is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is hint


# ---------------------------------------------------------------------------
# PGM image I/O
# ---------------------------------------------------------------------------


def _pgm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < n and data[pos : pos + 1] not in b" \t\r\n":
                pos += 1
            yield data[start:pos].decode("ascii", errors="replace"), pos
            pos += 1  # consume the single whitespace after the token


def load_image(path) -> GrayImage:
    """Read a binary PGM file into a GrayImage (byte b maps to b / 255)."""
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise FormatError(f"{path}: empty file, missing PGM magic") from None
    if magic != "P5":
        raise FormatError(f"{path}: bad magic {magic!r}, expected 'P5'")

    fields = []
    end = 0
    for name in ("width", "height", "maxval"):
        try:
            tok, end = next(tokens)
        except StopIteration:
            raise FormatError(f"{path}: truncated header, missing {name}") from None
        if not tok.isdigit() or len(tok) > 9:
            raise FormatError(f"{path}: non-numeric or oversized {name} field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: degenerate size {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255, got {maxval}")

    payload = data[end + 1 :]
    expected = width * height
    if len(payload) < expected:
        raise FormatError(
            f"{path}: truncated payload, expected {expected} bytes, got {len(payload)}"
        )
    raster = np.frombuffer(payload[:expected], dtype=np.uint8).reshape(height, width)
    return GrayImage(raster.astype(np.float64) / 255.0)


def save_image(img: GrayImage, path) -> None:
    """Write a GrayImage as binary PGM; values are quantized by round(p * 255)."""
    raster = np.rint(img.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster.tobytes(order="C"))


def quantize_image(img: GrayImage) -> GrayImage:
    """The image as it will read back after a save/load round trip."""
    return GrayImage(np.rint(img.pixels * 255.0) / 255.0)


# ---------------------------------------------------------------------------
# Annotation I/O
# ---------------------------------------------------------------------------


def parse_json(data: bytes, where):
    """Parse UTF-8 JSON bytes; FormatError naming ``where`` if not JSON or nested too deep."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise FormatError(f"{where}: JSON nested too deeply") from None


def load_json(path):
    """Parse a UTF-8 JSON file; FormatError when it is not one."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), path)


def load_annotations(path) -> PointAnnotations:
    """Read a JSON annotation file: object with a 'points' list of [x, y] pairs."""
    doc = load_json(path)
    if not isinstance(doc, dict) or "points" not in doc:
        raise FormatError(f"{path}: missing top-level 'points' key")
    raw = doc["points"]
    if not isinstance(raw, list):
        raise FormatError(f"{path}: 'points' must be a list")
    pts = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise FormatError(f"{path}: points[{i}] is not a numeric [x, y] pair")
        try:
            x, y = float(entry[0]), float(entry[1])
        except OverflowError:
            x = y = math.inf
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError(f"{path}: points[{i}] has a non-finite coordinate")
        if x < 0 or y < 0:
            raise FormatError(f"{path}: points[{i}] has a negative coordinate")
        pts.append((x, y))
    return PointAnnotations(np.array(pts, dtype=np.float64).reshape(len(pts), 2))


def save_annotations(ann: PointAnnotations, path) -> None:
    """Write annotations as the JSON format load_annotations reads."""
    doc = {"points": [[float(x), float(y)] for x, y in ann.points]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# RADM density-map I/O
# ---------------------------------------------------------------------------


def save_density(dmap: DensityMap, path) -> None:
    """Write a density map in the RADM binary format (bit-exact round trip).

    ValueError, before the file is opened, if a value exceeds the float32 range."""
    if dmap.values.max() > np.finfo(np.float32).max:
        raise ValueError(f"density value {dmap.values.max():.6g} exceeds the float32 range")
    header = DENSITY_MAGIC + np.array(
        [DENSITY_VERSION, dmap.height, dmap.width], dtype="<u4"
    ).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dmap.values.astype("<f4").tobytes(order="C"))


def load_density(path) -> DensityMap:
    """Read a RADM density-map file written by save_density."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise FormatError(f"{path}: file shorter than the 16-byte RADM header")
    if data[:4] != DENSITY_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {DENSITY_MAGIC!r}")
    version, height, width = np.frombuffer(data[4:16], dtype="<u4")
    if version != DENSITY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = int(height) * int(width) * 4
    payload = data[16:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes but {height}x{width} "
            f"needs {expected}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(int(height), int(width))
    try:
        return DensityMap(values.astype(np.float64))
    except ValueError as exc:  # empty, non-finite or negative values
        raise FormatError(f"{path}: {exc}") from None
