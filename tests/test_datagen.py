"""Scene generator determinism, learnability margins, and dataset layout."""

import numpy as np
import pytest

from ranet.core import load_annotations, load_density, rasterize_density
from ranet.datagen import (
    BACKGROUND_LEVEL,
    DENSITY_SIGMA,
    HEAD_RADIUS_HI,
    HEAD_RADIUS_LO,
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

    def test_reference_density_mass_matches_count(self):
        scene = gen_scene(SPEC, 7)
        density = rasterize_density(scene.annotations, SPEC.height, SPEC.width, DENSITY_SIGMA)
        assert density.count == pytest.approx(len(scene.annotations), abs=1e-8)

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
        manifest = gen_dataset(SceneSpec(width=32, height=32, seed=2), 6, 3, tmp_path)
        import json

        doc = json.loads(manifest.read_text())
        assert len(doc["train"]) == 6 and len(doc["test"]) == 3
        for split in ("train", "test"):
            for entry in doc[split]:
                for key in ("image", "annotations", "density"):
                    assert (tmp_path / entry[key]).exists()

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
        scenes = load_split(manifest, "train")
        assert len(scenes) == 3
        for i, (scene, entry) in enumerate(zip(scenes, load_manifest(manifest)["train"])):
            reference = gen_scene(spec, i)
            assert len(scene.annotations) == len(reference.annotations)
            density = load_density(tmp_path / entry["density"])
            assert density.count == pytest.approx(len(scene.annotations), abs=1e-4)

    def test_density_files_rasterize_their_annotations(self, tmp_path):
        spec = SceneSpec(width=40, height=32, seed=6)
        manifest = gen_dataset(spec, 3, 2, tmp_path)
        doc = load_manifest(manifest)
        for entry in doc["train"] + doc["test"]:
            ann = load_annotations(tmp_path / entry["annotations"])
            expect = rasterize_density(ann, spec.height, spec.width, DENSITY_SIGMA)
            written = load_density(tmp_path / entry["density"])
            np.testing.assert_array_equal(written.values, expect.values.astype(np.float32))

    def test_test_split_disjoint_from_train(self, tmp_path):
        spec = SceneSpec(width=32, height=32, seed=9)
        manifest = gen_dataset(spec, 2, 2, tmp_path)
        train = load_split(manifest, "train")
        test = load_split(manifest, "test")
        assert train[0].image.pixels.tobytes() != test[0].image.pixels.tobytes()
