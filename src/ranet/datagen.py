"""Deterministic synthetic crowd scenes: bright shaded head discs over a
noisy background with unannotated clutter blobs.

Head radii grow from the top of the frame to the bottom (a perspective
gradient), clutter blobs imitate background structures that look vaguely
head-like but carry no annotation, and uniform noise sits on top.  Every
scene is a pure function of (seed, index), so datasets regenerate
bit-identically in any order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    FormatError,
    GrayImage,
    PointAnnotations,
    Scene,
    load_annotations,
    load_image,
    load_json,
    save_annotations,
    save_image,
)

MANIFEST_KEYS = ("image", "annotations")  # relative paths per manifest entry

HEAD_PEAK_LO, HEAD_PEAK_HI = 0.85, 1.0
HEAD_RADIUS_LO, HEAD_RADIUS_HI = 2.0, 5.0  # at the top and bottom of the frame
CLUTTER_COUNT_LO, CLUTTER_COUNT_HI = 0, 4  # unannotated blobs per scene, inclusive
CLUTTER_PEAK_LO, CLUTTER_PEAK_HI = 0.15, 0.30
CLUTTER_RADIUS_LO, CLUTTER_RADIUS_HI = 3.0, 8.0
BACKGROUND_LEVEL = 0.08
NOISE_AMPLITUDE = 0.05  # uniform noise in [0, NOISE_AMPLITUDE) on every pixel


@dataclass(frozen=True)
class SceneSpec:
    width: int = 64
    height: int = 64
    min_heads: int = 1
    max_heads: int = 15
    seed: int = 0

    def __post_init__(self):
        min_side = int(2 * HEAD_RADIUS_HI) + 1  # the largest head disc fits: radius < side / 2
        if min(self.width, self.height) < min_side:
            raise ValueError(
                f"scene sides must be at least {min_side} pixels, got {self.width}x{self.height}"
            )
        if not (0 <= self.min_heads <= self.max_heads):
            raise ValueError("need 0 <= min_heads <= max_heads")
        for name in ("width", "height", "max_heads"):  # numpy's draws and array sides are int64
            if getattr(self, name) > np.iinfo(np.int64).max:
                raise ValueError(f"{name} must be below 2**63, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _stamp_disc(canvas: np.ndarray, x: float, y: float, radius: float, peak: float):
    """Add a radially shaded disc: peak at the center, zero at the rim."""
    h, w = canvas.shape
    r0 = max(0, int(np.floor(y - radius)))
    r1 = min(h, int(np.ceil(y + radius)) + 1)
    c0 = max(0, int(np.floor(x - radius)))
    c1 = min(w, int(np.ceil(x + radius)) + 1)
    ys = np.arange(r0, r1, dtype=np.float64)[:, None]
    xs = np.arange(c0, c1, dtype=np.float64)[None, :]
    d2 = ((ys - y) ** 2 + (xs - x) ** 2) / (radius * radius)
    canvas[r0:r1, c0:c1] += peak * np.clip(1.0 - d2, 0.0, None)


def gen_scene(spec: SceneSpec, index: int) -> Scene:
    """Render scene number `index`; deterministic in (spec.seed, index)."""
    canvas, ann = _render(spec, index)
    return Scene(GrayImage(canvas), ann)


def _render(spec: SceneSpec, index: int) -> tuple[np.ndarray, PointAnnotations]:
    """Scene number `index` as its float64 canvas in [0, 1] and its head points."""
    rng = np.random.default_rng([spec.seed, int(index)])
    h, w = spec.height, spec.width
    canvas = np.full((h, w), BACKGROUND_LEVEL, dtype=np.float64)

    n_clutter = int(rng.integers(CLUTTER_COUNT_LO, CLUTTER_COUNT_HI + 1))
    for _ in range(n_clutter):
        cx = rng.uniform(0, w - 1)
        cy = rng.uniform(0, h - 1)
        cr = rng.uniform(CLUTTER_RADIUS_LO, CLUTTER_RADIUS_HI)
        peak = rng.uniform(CLUTTER_PEAK_LO, CLUTTER_PEAK_HI)
        _stamp_disc(canvas, cx, cy, cr, peak)

    n_heads = int(rng.integers(spec.min_heads, spec.max_heads + 1))
    pts = []
    for _ in range(n_heads):
        x = rng.uniform(0, w - 1)
        y = rng.uniform(0, h - 1)
        # perspective: heads lower in the frame are closer, hence larger
        depth = y / (h - 1)
        radius = HEAD_RADIUS_LO + (HEAD_RADIUS_HI - HEAD_RADIUS_LO) * depth
        radius = float(np.clip(radius * rng.uniform(0.9, 1.1), HEAD_RADIUS_LO, HEAD_RADIUS_HI))
        _stamp_disc(canvas, x, y, radius, rng.uniform(HEAD_PEAK_LO, HEAD_PEAK_HI))
        pts.append((x, y))

    canvas += rng.uniform(0.0, NOISE_AMPLITUDE, size=(h, w))
    np.clip(canvas, 0.0, 1.0, out=canvas)
    return canvas, PointAnnotations(np.array(pts, dtype=np.float64).reshape(len(pts), 2))


def head_mask(scene: Scene) -> np.ndarray:
    """Boolean mask of pixels within HEAD_RADIUS_HI of any annotation."""
    h, w = scene.image.height, scene.image.width
    mask = np.zeros((h, w), dtype=bool)
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    for x, y in scene.annotations.points:
        mask |= (ys - y) ** 2 + (xs - x) ** 2 <= HEAD_RADIUS_HI**2
    return mask


# ---------------------------------------------------------------------------
# Dataset directories and their manifest
# ---------------------------------------------------------------------------


def gen_dataset(spec: SceneSpec, n_train: int, n_test: int, out_dir) -> Path:
    """Write one image and one annotation file per scene, and manifest.json.

    Test scenes use indices n_train .. n_train + n_test - 1, so the same
    spec always produces the same bytes for every file.  Each image is
    quantized from its float64 canvas, before the float32 rounding of
    GrayImage could move a pixel across a byte boundary.  Directories are made
    after a scene renders, so a spec numpy cannot render leaves none behind.
    """
    if n_train < 0 or n_test < 0:
        raise ValueError(f"scene counts must be >= 0, got {n_train} train / {n_test} test")
    out = Path(out_dir)
    manifest = {"train": [], "test": []}
    for split, count, base in (("train", n_train, 0), ("test", n_test, n_train)):
        for i in range(count):
            canvas, ann = _render(spec, base + i)
            (out / split).mkdir(parents=True, exist_ok=True)
            stem = f"{split}/scene_{i:04d}"
            save_image(GrayImage(np.rint(canvas * 255.0) / 255.0), out / f"{stem}.pgm")
            save_annotations(ann, out / f"{stem}.json")
            manifest[split].append({"image": f"{stem}.pgm", "annotations": f"{stem}.json"})
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest_path


def load_manifest(manifest_path) -> dict:
    """Read manifest.json; FormatError unless both splits list entries whose
    MANIFEST_KEYS are paths a file name can hold.  Other keys are ignored."""
    doc = load_json(manifest_path)
    for split in ("train", "test"):
        if not isinstance(doc, dict) or not isinstance(doc.get(split), list):
            raise FormatError(f"{manifest_path}: manifest is missing the '{split}' list")
        for i, entry in enumerate(doc[split]):
            paths = [entry.get(key) if isinstance(entry, dict) else None for key in MANIFEST_KEYS]
            if not all(isinstance(p, str) for p in paths):
                raise FormatError(
                    f"{manifest_path}: {split}[{i}] needs {', '.join(MANIFEST_KEYS)} paths"
                )
            try:
                ok = all(b"\0" not in os.fsencode(p) for p in paths)
            except UnicodeEncodeError:  # a lone surrogate
                ok = False
            if not ok:
                raise FormatError(f"{manifest_path}: {split}[{i}] has a path with a NUL byte "
                                  "or a lone surrogate, which no file name holds")
    return doc


def load_split(manifest_path, split: str) -> list[Scene]:
    """Materialize one split's scenes relative to the manifest location: ValueError
    for a split other than train or test, FormatError for one that lists no scenes."""
    doc = load_manifest(manifest_path)
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    if not doc[split]:
        raise FormatError(f"{manifest_path}: split {split!r} lists no scenes")
    base = Path(manifest_path).parent
    scenes = []
    for entry in doc[split]:
        img = load_image(base / entry["image"])
        ann = load_annotations(base / entry["annotations"])
        try:
            scenes.append(Scene(img, ann))
        except ValueError as exc:  # the files disagree with each other
            raise FormatError(f"{base / entry['annotations']}: {exc}") from None
    return scenes
