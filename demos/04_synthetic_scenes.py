#!/usr/bin/env python3
"""Generate synthetic crowd scenes and look at what makes them learnable.

Heads are bright shaded discs whose radius grows toward the bottom of the
frame (perspective); dim clutter blobs are rendered but never annotated,
so a counter must learn to tell them apart from heads.
"""

import pathlib
import tempfile

import numpy as np

from ranet.core import save_image
from ranet.datagen import (
    HEAD_RADIUS_HI,
    HEAD_RADIUS_LO,
    SceneSpec,
    gen_dataset,
    gen_scene,
    head_mask,
    load_split,
)

spec = SceneSpec(seed=42)
print("scene spec:", spec)

scene = gen_scene(spec, 0)
print(f"scene 0: {len(scene.annotations)} heads")
print("annotations (x, y):")
for x, y in scene.annotations.points:
    print(f"  ({x:5.1f}, {y:5.1f})")

again = gen_scene(spec, 0)
print("regeneration is bit-identical:",
      scene.image.pixels.tobytes() == again.image.pixels.tobytes())

# Heads must outshine the background for the task to be learnable.
mask = head_mask(scene)
heads_mean = scene.image.pixels[mask].mean()
bg_p90 = np.percentile(scene.image.pixels[~mask], 90)
print(f"mean head-disc intensity {heads_mean:.3f} vs background 90th pct {bg_p90:.3f}")

# Perspective gradient: average radii by vertical position over many scenes.
top, bottom = [], []
for i in range(100):
    s = gen_scene(spec, i)
    for x, y in s.annotations.points:
        r = HEAD_RADIUS_LO + (HEAD_RADIUS_HI - HEAD_RADIUS_LO) * y / (spec.height - 1)
        (top if y < spec.height / 3 else bottom if y > 2 * spec.height / 3 else []).append(r)
print(f"mean head radius: top third {np.mean(top):.2f}px, "
      f"bottom third {np.mean(bottom):.2f}px")

# Write a small dataset tree and read it back through the manifest; the
# tree lives in a temporary directory that is removed at the end.
with tempfile.TemporaryDirectory(prefix="scenes_") as tmp:
    out = pathlib.Path(tmp)
    manifest = gen_dataset(spec, n_train=4, n_test=2, out_dir=out)
    print("dataset tree at", out)
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print("  ", p.relative_to(out))

    train = load_split(manifest, "train")
    print("loaded", len(train), "train scenes; counts:",
          [len(s.annotations) for s in train])

    save_image(scene.image, out / "preview.pgm")
    print("preview image written to", out / "preview.pgm")
