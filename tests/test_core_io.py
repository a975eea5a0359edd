"""Value types and file-format round trips."""

import dataclasses

import numpy as np
import pytest

from ranet.bayes import posteriors_from_distances
from ranet.core import (
    DensityMap,
    FormatError,
    GrayImage,
    PointAnnotations,
    PriorityMap,
    Scene,
    load_annotations,
    load_density,
    load_image,
    quantize_image,
    save_annotations,
    save_density,
    save_image,
)


class TestTypes:
    @pytest.mark.parametrize("cls", [GrayImage, PointAnnotations, DensityMap, PriorityMap])
    def test_caller_array_stays_writable_and_unaliased(self, cls):
        arr = np.full((2, 2), 0.5)  # valid for every type
        obj = cls(arr)
        stored = getattr(obj, dataclasses.fields(obj)[0].name)
        assert arr.flags.writeable
        assert not stored.flags.writeable
        arr[0, 0] = 0.25
        assert stored[0, 0] == 0.5

    @pytest.mark.parametrize("n_heads", [0, 2])
    def test_posteriors_are_read_only(self, n_heads):
        probs = posteriors_from_distances(2, 3, np.ones((n_heads, 2)), 1.0, 1.0)
        assert probs.shape == (n_heads + 1, 6) and not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0, 0] = 0.5

    def test_image_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0.0, 1.5]]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[-0.1]]))

    def test_image_is_immutable(self):
        img = GrayImage(np.array([[0.5]]))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 0.0

    def test_annotations_empty_ok(self):
        ann = PointAnnotations(np.zeros((0, 2)))
        assert len(ann) == 0
        assert ann.inside(4, 4)

    def test_scene_checks_bounds(self):
        img = GrayImage(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            Scene(img, PointAnnotations(np.array([[5.0, 1.0]])))
        Scene(img, PointAnnotations(np.array([[3.5, 0.0]])))  # x < width is fine

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMap(np.array([[-1e-3]]))

    def test_priority_range(self):
        PriorityMap(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            PriorityMap(np.array([[1.0001]]))


class TestImageIO:
    def test_load_forced_by_format(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(p)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        np.testing.assert_allclose(img.pixels, expected, atol=1e-12)

    def test_load_single_pixel(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P5 1 1 255 " + bytes([255]))
        assert load_image(p).pixels[0, 0] == 1.0

    def test_save_quantization_endpoints(self, tmp_path):
        p = tmp_path / "c.pgm"
        save_image(GrayImage(np.array([[0.0, 1.0]])), p)
        assert p.read_bytes().endswith(bytes([0, 255]))

    def test_save_rounds_half_up_at_midpoint(self, tmp_path):
        # round(0.5 * 255) = round(127.5) = 128
        p = tmp_path / "d.pgm"
        save_image(GrayImage(np.array([[0.5]])), p)
        assert p.read_bytes()[-1] == 128

    def test_round_trip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        raster = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        p1, p2 = tmp_path / "e.pgm", tmp_path / "f.pgm"
        p1.write_bytes(b"P5\n13 9\n255\n" + raster.tobytes())
        save_image(load_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(8)
        img = GrayImage(rng.uniform(0, 1, size=(6, 5)))
        p = tmp_path / "g.pgm"
        save_image(img, p)
        np.testing.assert_array_equal(load_image(p).pixels, quantize_image(img).pixels)

    def test_pgm_comments_are_skipped(self, tmp_path):
        p = tmp_path / "h.pgm"
        p.write_bytes(b"P5\n# a comment\n1 1\n255\n\x7f")
        assert load_image(p).width == 1

    @pytest.mark.parametrize(
        "blob,field",
        [
            (b"P6\n1 1\n255\n\x00", "magic"),
            (b"P5\n1 1\n254\n\x00", "maxval"),
            (b"P5\n2 2\n255\n\x00\x00", "payload"),
            (b"P5\nx 1\n255\n\x00", "width"),
            (b"P5\n1 1\n", "maxval"),
        ],
    )
    def test_malformed_files(self, tmp_path, blob, field):
        p = tmp_path / "bad.pgm"
        p.write_bytes(blob)
        with pytest.raises(FormatError):
            load_image(p)

    def test_loaded_values_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(9)
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n8 8\n255\n" + rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
        img = load_image(p)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


class TestAnnotationIO:
    def test_single_point(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text('{"points": [[3.5, 2.0]]}')
        ann = load_annotations(p)
        np.testing.assert_array_equal(ann.points, [[3.5, 2.0]])

    def test_empty(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text('{"points": []}')
        assert len(load_annotations(p)) == 0

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"points": [[1, 1], [2, 2]]}')
        np.testing.assert_array_equal(load_annotations(p).points, [[1.0, 1.0], [2.0, 2.0]])

    def test_round_trip(self, tmp_path):
        ann = PointAnnotations(np.array([[0.25, 7.5], [3.0, 0.0]]))
        p = tmp_path / "d.json"
        save_annotations(ann, p)
        np.testing.assert_array_equal(load_annotations(p).points, ann.points)

    @pytest.mark.parametrize(
        "text",
        [
            '{"pts": []}',
            '{"points": [[1, "a"]]}',
            '{"points": [[-1, 2]]}',
            '{"points": [[1]]}',
            "not json",
        ],
    )
    def test_parse_errors(self, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(FormatError):
            load_annotations(p)

    @pytest.mark.parametrize("blob", [
        b'{"points": [[1.0, 2.0]]}\xff',
        b'{"points": [[1' + b"0" * 400 + b', 2]]}',
        b'{"points": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",  # deeper than the parser goes
    ])
    def test_undecodable_or_overflowing_is_format_error(self, tmp_path, blob):
        p = tmp_path / "bad.json"
        p.write_bytes(blob)
        with pytest.raises(FormatError):
            load_annotations(p)


class TestDensityIO:
    def test_header_layout(self, tmp_path):
        dm = DensityMap(np.arange(4, dtype=np.float32).reshape(2, 2))
        p = tmp_path / "m.radm"
        save_density(dm, p)
        blob = p.read_bytes()
        assert blob[:4] == b"RADM"
        assert len(blob) == 16 + 16

    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        dm = DensityMap(rng.uniform(0, 3, size=(5, 7)).astype(np.float32))
        p = tmp_path / "n.radm"
        save_density(dm, p)
        back = load_density(p)
        assert back.values.tobytes() == dm.values.tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "o.radm"
        p.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(FormatError):
            load_density(p)

    def test_shape_payload_mismatch(self, tmp_path):
        p = tmp_path / "p.radm"
        p.write_bytes(b"RADM" + np.array([1, 2, 2], dtype="<u4").tobytes() + bytes(12))
        with pytest.raises(FormatError):
            load_density(p)

    def test_value_beyond_float32_refused_before_writing(self, tmp_path):
        # float32 would store it as inf, which load_density refuses
        p = tmp_path / "big.radm"
        with pytest.raises(ValueError, match="float32"):
            save_density(DensityMap(np.full((2, 2), 1e39)), p)
        assert not p.exists()

    def test_float32_maximum_round_trips(self, tmp_path):
        p = tmp_path / "max.radm"
        dm = DensityMap(np.full((1, 2), np.finfo(np.float32).max, dtype=np.float64))
        save_density(dm, p)
        assert load_density(p).values.tobytes() == dm.values.tobytes()

    @pytest.mark.parametrize("shape,values", [
        ((1, 2), [0.5, -1.0]),
        ((1, 2), [0.5, np.nan]),
        ((0, 3), []),
    ])
    def test_invalid_payload_is_format_error(self, tmp_path, shape, values):
        p = tmp_path / "q.radm"
        p.write_bytes(b"RADM" + np.array([1, *shape], dtype="<u4").tobytes()
                      + np.array(values, dtype="<f4").tobytes())
        with pytest.raises(FormatError):
            load_density(p)
