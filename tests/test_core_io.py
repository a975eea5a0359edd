"""Value types and file-format round trips."""

import dataclasses
import re

import numpy as np
import pytest

from ranet.bayes import posteriors_from_distances
from ranet.core import (
    DensityMap,
    FormatError,
    GrayImage,
    PointAnnotations,
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
    @pytest.mark.parametrize("cls", [GrayImage, PointAnnotations, DensityMap])
    def test_caller_array_stays_writable_and_unaliased(self, cls):
        arr = np.full((2, 2), 0.5)  # valid for every type
        obj = cls(arr)
        stored = getattr(obj, dataclasses.fields(obj)[0].name)
        assert arr.flags.writeable
        assert not stored.flags.writeable
        arr[0, 0] = 0.25
        assert stored[0, 0] == 0.5

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_image_stores_read_only_float32(self, dtype):
        arr = np.array([[0.25, 1.0 / 3.0]], dtype=dtype)
        img = GrayImage(arr)
        assert img.pixels.dtype == np.float32 and not img.pixels.flags.writeable
        assert img.pixels.flags.c_contiguous and img.pixels is not arr
        assert img.pixels.tolist() == [[0.25, float(np.float32(1.0 / 3.0))]]

    def test_image_keeps_a_read_only_float32_array_without_a_copy(self):
        arr = np.array([[0.5, 0.75]], dtype=np.float32)
        arr.flags.writeable = False
        assert GrayImage(arr).pixels is arr
        assert GrayImage(arr[:, ::-1]).pixels.flags.c_contiguous  # a strided view is copied

    def test_image_values_are_checked_before_the_float32_rounding(self):
        # both round to 1.0 and 0.0 in float32, but lie outside [0, 1]
        for bad in (1.0 + 2.0**-40, -1e-50):
            with pytest.raises(ValueError, match="must lie in"):
                GrayImage(np.array([[bad]]))

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
        # a priority map is a GrayImage: both ends of [0, 1] are inside
        GrayImage(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[1.0001]]))


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

    def test_round_trip_at_half_byte_boundaries(self, tmp_path):
        # float32 pixels at and one ulp either side of (k + 1/2) / 255; for 128 of
        # them p * 255 rounds to another byte in float32 than in float64
        mid = ((np.arange(255) + 0.5) / 255).astype(np.float32)
        pixels = np.stack([np.nextafter(mid, np.float32(0)), mid, np.nextafter(mid, np.float32(1))])
        img = GrayImage(pixels)
        p = tmp_path / "half.pgm"
        save_image(img, p)
        raster = np.frombuffer(p.read_bytes()[-pixels.size:], np.uint8).reshape(pixels.shape)
        np.testing.assert_array_equal(raster, np.rint(pixels.astype(np.float64) * 255.0))
        assert load_image(p).pixels.tobytes() == quantize_image(img).pixels.tobytes()

    def test_loaded_pixels_are_float32_of_the_float64_quotient(self, tmp_path):
        p = tmp_path / "levels.pgm"
        p.write_bytes(b"P5 256 1 255\n" + bytes(range(256)))
        pixels = load_image(p).pixels
        assert pixels.dtype == np.float32 and not pixels.flags.writeable
        assert pixels.tobytes() == (np.arange(256.0) / 255.0).astype(np.float32)[None].tobytes()

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

    # Netpbm's header grammar: blanks are space, tab, CR and LF; a '#' comment
    # runs to the end of its line; exactly one byte separates maxval and raster.
    # A row expects the one pixel byte it loads, or the FormatError it raises.
    @pytest.mark.parametrize("blob,expected", [
        (b"# c\nP5 1 1 255\n\x07", 7),
        (b"P5 #a\n1 #b\n1 #c\n255\n\x07", 7),
        (b"P5\r1\t1\n255\n\x07", 7),
        (b"P5\f1 1 255\n\x07", "bad magic 'P5\\x0c1'"),
        (b"P5 1\v1 255\n\x07", "non-numeric or oversized width field '1\\x0b1'"),
        (b"P5 1#c 1 255\n\x07", "non-numeric or oversized width field '1#c'"),
        (b"P5 1 1 # to the end of the file", "truncated header, missing maxval"),
        (b"P5 0000000001 1 255\n\x07", "non-numeric or oversized width field '0000000001'"),
        (b"P5 1 1 255\r\n", 10),
        (b"", "empty file, missing PGM magic"),
        (b"P5 0 1 255\n", "degenerate size 0x1"),
    ], ids=["comment_before_magic", "comment_between_fields",
            "cr_lf_tab_separate", "form_feed_joins", "vertical_tab_joins", "hash_inside_width",
            "comment_to_eof", "ten_digit_width", "crlf_after_maxval", "empty_file", "zero_width"])
    def test_header_grammar(self, tmp_path, blob, expected):
        p = tmp_path / "grammar.pgm"
        p.write_bytes(blob)
        if isinstance(expected, str):
            with pytest.raises(FormatError, match=re.escape(expected)):
                load_image(p)
        else:
            assert load_image(p).pixels.tolist() == [[float(np.float32(expected / 255))]]

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
            '{"points": {"x": 1}}',
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

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "v2.radm"
        p.write_bytes(b"RADM" + np.array([2, 1, 1], dtype="<u4").tobytes() + bytes(4))
        with pytest.raises(FormatError, match="unsupported version 2"):
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

    # refused without a warning: a signalling NaN must not reach a float64 cast
    @pytest.mark.parametrize("shape,values", [
        ((1, 2), [0.5, -1.0]),
        ((1, 2), [0.5, np.nan]),
        ((0, 3), []),
        ((1, 1), np.frombuffer(b"\x01\x00\x80\x7f", dtype="<f4")),  # signalling NaN
    ])
    def test_invalid_payload_is_format_error(self, tmp_path, shape, values):
        p = tmp_path / "q.radm"
        p.write_bytes(b"RADM" + np.array([1, *shape], dtype="<u4").tobytes()
                      + np.array(values, dtype="<f4").tobytes())
        with pytest.raises(FormatError):
            load_density(p)


@pytest.mark.parametrize("build, fragment", [
    (lambda: GrayImage(np.array([[0.5, np.nan]])), "image contains non-finite"),
    (lambda: PointAnnotations(np.zeros((2, 3))), r"points must have shape \(N, 2\)"),
    (lambda: PointAnnotations(np.array([[1.0, np.inf]])), "annotation coordinates must be finite"),
], ids=["image-non-finite", "points-three-columns", "points-non-finite"])
def test_invalid_value_is_refused_naming_it(build, fragment):
    with pytest.raises(ValueError, match=fragment) as raised:
        build()
    assert raised.type is ValueError  # a constructor's check, not a file's FormatError
