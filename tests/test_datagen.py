"""Scene generator determinism, learnability margins, and dataset layout."""

import json

import numpy as np
import pytest

from ranet.core import FormatError, quantize_image
from ranet.datagen import (
    BACKGROUND_LEVEL,
    HEAD_RADIUS_HI,
    HEAD_RADIUS_LO,
    MANIFEST_KEYS,
    NOISE_AMPLITUDE,
    SceneSpec,
    gen_dataset,
    gen_scene,
    head_mask,
    load_manifest,
    load_split,
)

SPEC = SceneSpec(seed=11)


class TestGenScene:
    def test_bit_identical_per_seed_index(self):
        a = gen_scene(SPEC, 3)
        b = gen_scene(SPEC, 3)
        assert a.image.pixels.tobytes() == b.image.pixels.tobytes()
        assert a.annotations.points.tobytes() == b.annotations.points.tobytes()

    def test_neighboring_indices_differ(self):
        a = gen_scene(SPEC, 0)
        b = gen_scene(SPEC, 1)
        assert a.image.pixels.tobytes() != b.image.pixels.tobytes()

    def test_head_count_in_range(self):
        for i in range(30):
            n = len(gen_scene(SPEC, i).annotations)
            assert SPEC.min_heads <= n <= SPEC.max_heads

    def test_annotations_inside_bounds(self):
        for i in range(20):
            scene = gen_scene(SPEC, i)
            assert scene.annotations.inside(SPEC.height, SPEC.width)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(width=10, height=10)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed"):
            SceneSpec(seed=-1)

    def test_heads_brighter_than_background(self):
        # mean disc intensity must clear the 90th percentile of background
        for i in range(25):
            scene = gen_scene(SPEC, i)
            mask = head_mask(scene)
            heads = scene.image.pixels[mask]
            background = scene.image.pixels[~mask]
            assert heads.mean() > np.percentile(background, 90)

    def test_perspective_gradient(self):
        # over many scenes, heads in the top third are smaller than in the
        # bottom third; radii are monotone in y, so compare mean y-derived radii
        top, bottom = [], []
        h = SPEC.height
        for i in range(100):
            scene = gen_scene(SPEC, i)
            for x, y in scene.annotations.points:
                r = HEAD_RADIUS_LO + (HEAD_RADIUS_HI - HEAD_RADIUS_LO) * y / (h - 1)
                if y < h / 3:
                    top.append(r)
                elif y > 2 * h / 3:
                    bottom.append(r)
        assert np.mean(top) < np.mean(bottom)

    def test_background_noise_has_the_fixed_amplitude(self):
        # without heads, clutter covers at most 4 discs of radius 8; the rest is
        # the background level plus uniform noise in [0, NOISE_AMPLITUDE)
        pixels = gen_scene(SceneSpec(min_heads=0, max_heads=0, seed=1), 0).image.pixels
        assert pixels.min() >= BACKGROUND_LEVEL
        background = pixels[pixels < BACKGROUND_LEVEL + NOISE_AMPLITUDE]
        assert background.size > pixels.size / 2
        assert background.max() > BACKGROUND_LEVEL + 0.9 * NOISE_AMPLITUDE


class TestGenDataset:
    def test_layout_and_cardinality(self, tmp_path):
        # the tree holds the manifest and exactly the files its entries name
        manifest = gen_dataset(SceneSpec(width=32, height=32, seed=2), 6, 3, tmp_path)
        doc = json.loads(manifest.read_text())
        assert len(doc["train"]) == 6 and len(doc["test"]) == 3
        entries = doc["train"] + doc["test"]
        assert all(tuple(entry) == MANIFEST_KEYS for entry in entries)
        named = {entry[key] for entry in entries for key in MANIFEST_KEYS}
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert written == named | {"manifest.json"}
        assert len(named) == 2 * len(entries)

    def test_regeneration_is_bit_identical(self, tmp_path):
        spec = SceneSpec(width=32, height=32, seed=5)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_dataset(spec, 4, 2, d1)
        gen_dataset(spec, 4, 2, d2)
        for rel in sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file()):
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_load_split_round_trips_counts(self, tmp_path):
        spec = SceneSpec(width=32, height=32, seed=8)
        manifest = gen_dataset(spec, 3, 2, tmp_path)
        for split, base in (("train", 0), ("test", 3)):
            for i, scene in enumerate(load_split(manifest, split)):
                reference = gen_scene(spec, base + i)
                np.testing.assert_array_equal(scene.annotations.points,
                                              reference.annotations.points)
                np.testing.assert_array_equal(scene.image.pixels,
                                              quantize_image(reference.image).pixels)

    def test_test_split_disjoint_from_train(self, tmp_path):
        spec = SceneSpec(width=32, height=32, seed=9)
        manifest = gen_dataset(spec, 2, 2, tmp_path)
        train = load_split(manifest, "train")
        test = load_split(manifest, "test")
        assert train[0].image.pixels.tobytes() != test[0].image.pixels.tobytes()


class TestManifest:
    def write(self, root, entry):
        gen_dataset(SceneSpec(width=16, height=16, seed=4), 1, 0, root)
        path = root / "manifest.json"
        path.write_text(json.dumps({"train": [entry], "test": []}))
        return path

    def test_entry_with_image_and_annotations_only_loads(self, tmp_path):
        manifest = self.write(tmp_path, {"image": "train/scene_0000.pgm",
                                         "annotations": "train/scene_0000.json"})
        assert len(load_split(manifest, "train")) == 1

    def test_older_layout_with_a_density_path_loads_without_opening_it(self, tmp_path):
        # manifests used to name a reference density per entry; nothing reads it
        manifest = self.write(tmp_path, {"image": "train/scene_0000.pgm",
                                         "annotations": "train/scene_0000.json",
                                         "density": "train/missing.radm"})
        assert not (tmp_path / "train" / "missing.radm").exists()
        assert load_manifest(manifest)["train"][0]["density"] == "train/missing.radm"
        assert len(load_split(manifest, "train")) == 1

    @pytest.mark.parametrize("path", ["train/scene\0.pgm", "train/\ud800.pgm"],
                             ids=["nul", "lone-surrogate"])
    def test_path_no_file_name_holds_is_format_error(self, tmp_path, path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": [{"image": path, "annotations": "a.json"}],
                                        "test": []}))
        with pytest.raises(FormatError, match=r"train\[0\] has a path with a NUL byte"):
            load_manifest(manifest)
