"""Bayesian point-supervision loss against direct formula evaluation."""

import inspect
import tracemalloc

import numpy as np
import pytest

from ranet import autodiff as ad
from ranet import bayes
from ranet.autodiff import NumericError, ShapeError, Tape
from ranet.bayes import bayes_loss, expected_counts, posteriors_from_distances
from ranet.training import TrainConfig

from oracles import bf_bayes, check_gradient, pixel_list, ref_posteriors

RNG = np.random.default_rng(57)


class TestPosteriors:
    def test_columns_sum_to_one(self):
        heads = RNG.uniform(0, 5, size=(3, 2))
        probs = posteriors_from_distances(5, 4, heads, 1.5, 2.0)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-9)

    def test_symmetric_fifty_fifty(self):
        # the one pixel is 1 from the head with d = 2: the head and background exponents agree
        probs = posteriors_from_distances(1, 1, np.array([[-1.0, 0.0]]), 1.0, 2.0)
        np.testing.assert_allclose(probs, [[0.5], [0.5]], atol=1e-12)

    def test_worked_example_2x2(self):
        heads = np.array([[0.0, 0.0]])
        probs = posteriors_from_distances(2, 2, heads, 1.0, 1.0)
        # pixel order is row-major: (0,0), (1,0), (0,1), (1,1) as (x, y)
        head_row = probs[0]
        assert head_row[0] == pytest.approx(0.62246, abs=1e-4)
        assert head_row[1] == pytest.approx(0.37754, abs=1e-4)
        assert head_row[3] == pytest.approx(0.28615, abs=1e-4)

    def test_matches_brute_force(self):
        heads = [(0.7, 1.1), (3.2, 2.9)]
        probs = posteriors_from_distances(4, 5, np.array(heads), 1.2, 1.8)
        expect, _, _, _ = bf_bayes(np.zeros((4, 5)), heads, 1.2, 1.8)
        np.testing.assert_allclose(probs, expect, atol=1e-10)

    def test_log_space_survives_huge_distances(self):
        # direct exponentials underflow at distance ~300 with delta 1
        probs = posteriors_from_distances(1, 1, np.array([[-300.0, 0.0]]), 1.0, 2.0)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)
        assert probs[-1, 0] > 0.999  # far pixel is background

    def test_zero_heads_background_is_one(self):
        probs = posteriors_from_distances(3, 3, np.zeros((0, 2)), 1.0, 1.0)
        np.testing.assert_array_equal(probs, np.ones((1, 9)))

    @pytest.mark.parametrize("heads", [np.array([1.0, 2.0, 3.0]), np.zeros((2, 3)),
                                       np.zeros((1, 2, 2)), np.zeros(0)])
    def test_heads_not_n_by_2_rejected(self, heads):
        with pytest.raises(ShapeError, match="heads"):
            posteriors_from_distances(3, 3, heads, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_heads_rejected(self, bad):
        with pytest.raises(NumericError, match="heads"):
            posteriors_from_distances(3, 3, np.array([[bad, 1.0]]), 1.0, 1.0)

    @pytest.mark.parametrize("height, width", [(0, 3), (3, 0)], ids=["height0", "width0"])
    def test_empty_grid_rejected(self, height, width):
        with pytest.raises(ShapeError, match="grid"):
            posteriors_from_distances(height, width, np.array([[1.0, 2.0]]), 1.0, 1.0)

    @pytest.mark.parametrize("delta, d", [(0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (1.0, -1.0),
                                          (1.0, np.inf)],
                             ids=["delta0", "delta-neg", "delta-nan", "d-neg", "d-inf"])
    def test_bad_spread_or_margin_rejected(self, delta, d):
        # with or without heads: no ZeroDivisionError, no silent NaN posteriors
        for heads in (np.array([[1.0, 2.0]]), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="delta"):
                posteriors_from_distances(3, 3, heads, delta, d)


def _random_heads(n, h, w, rng):
    return np.column_stack([rng.uniform(0, w - 1, size=n), rng.uniform(0, h - 1, size=n)])


class TestPosteriorBits:
    """The in-place posteriors equal the out-of-place formula byte for byte."""

    def assert_same_bits(self, h, w, heads, delta, d):
        got = posteriors_from_distances(h, w, heads, delta, d)
        assert np.array_equal(got, ref_posteriors(pixel_list(h, w), heads, delta, d))

    def test_criterion_5_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            h, w = int(rng.integers(2, 33)), int(rng.integers(2, 33))
            heads = _random_heads(int(rng.integers(1, 51)), h, w, rng)
            self.assert_same_bits(h, w, heads, float(rng.uniform(0.5, 9.0)),
                                  float(rng.uniform(0.5, 8.0)))

    @pytest.mark.parametrize("n", [60, 120])
    @pytest.mark.parametrize("delta", [2.0, 16.0])
    def test_dense_crop(self, n, delta):
        rng = np.random.default_rng(n)
        self.assert_same_bits(128, 128, _random_heads(n, 128, 128, rng), delta, 12.8)

    def test_fractional_heads(self):
        heads = np.array([[0.5, 0.25], [3.125, 7.75], [6.999, 0.001], [2.0, 2.0]])
        self.assert_same_bits(8, 8, heads, 1.3, 1.7)


class TestFloat32Posteriors:
    """The float32 posteriors a float32 tape trains on, against the float64 oracle."""

    TOL = 2e-6  # absolute, on every entry and on every column sum

    def assert_close(self, h, w, heads, delta, d):
        got = posteriors_from_distances(h, w, heads, delta, d, np.float32)
        assert got.dtype == np.float32 and not got.flags.writeable
        want = ref_posteriors(pixel_list(h, w), heads, delta, d)
        np.testing.assert_allclose(got, want, rtol=0, atol=self.TOL)
        np.testing.assert_allclose(got.sum(axis=0, dtype=np.float64), 1.0, rtol=0, atol=self.TOL)

    def test_criterion_5_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            h, w = int(rng.integers(2, 33)), int(rng.integers(2, 33))
            heads = _random_heads(int(rng.integers(1, 51)), h, w, rng)
            self.assert_close(h, w, heads, float(rng.uniform(0.5, 9.0)),
                              float(rng.uniform(0.5, 8.0)))

    @pytest.mark.parametrize("n", [60, 120])
    @pytest.mark.parametrize("delta", [2.0, 16.0])
    def test_dense_crop(self, n, delta):
        rng = np.random.default_rng(n)
        self.assert_close(128, 128, _random_heads(n, 128, 128, rng), delta, 12.8)

    def test_zero_heads(self):
        probs = posteriors_from_distances(3, 3, np.zeros((0, 2)), 1.0, 1.0, np.float32)
        assert probs.dtype == np.float32 and not probs.flags.writeable
        np.testing.assert_array_equal(probs, np.ones((1, 9)))

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="dtype"):
            posteriors_from_distances(3, 3, np.array([[1.0, 1.0]]), 1.0, 1.0, dtype)


def _posteriors_peak_bytes(n, side, dtype):
    heads = _random_heads(n, side, side, np.random.default_rng(90))
    tracemalloc.start()
    try:
        posteriors_from_distances(side, side, heads, 16.0, 12.8, dtype)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_posteriors_need_no_n_by_m_temporary():
    # the grid form builds distances from [N, W] and [N, H] arrays, so besides
    # the result only a few M-sized rows are live
    n, side = 90, 128
    assert _posteriors_peak_bytes(n, side, np.float64) <= 1.3 * (n + 1) * side * side * 8


def test_float32_posteriors_need_no_n_by_m_temporary():
    # nor a float64 one: the one buffer is float32 from the start
    n, side = 90, 128
    assert _posteriors_peak_bytes(n, side, np.float32) <= 1.3 * (n + 1) * side * side * 4


class TestExpectedCounts:
    def test_zero_density(self):
        probs = posteriors_from_distances(3, 3, np.array([[1.0, 1.0]]), 1.0, 1.0)
        per_head, bg = expected_counts(probs, np.zeros((3, 3)))
        assert per_head[0] == 0.0 and bg == 0.0

    def test_count_conservation(self):
        for _ in range(20):
            h, w = int(RNG.integers(2, 9)), int(RNG.integers(2, 9))
            heads = RNG.uniform(0, min(h, w), size=(int(RNG.integers(1, 6)), 2))
            density = RNG.uniform(0, 2, size=(h, w))
            probs = posteriors_from_distances(h, w, heads, 1.5, 1.0)
            per_head, bg = expected_counts(probs, density)
            total = per_head.sum() + bg
            assert total == pytest.approx(density.sum(), rel=1e-9)

    def test_worked_example_counts(self):
        density = np.zeros((2, 2))
        density[0, 0] = 1.0
        probs = posteriors_from_distances(2, 2, np.array([[0.0, 0.0]]), 1.0, 1.0)
        per_head, bg = expected_counts(probs, density)
        assert per_head[0] == pytest.approx(0.62246, abs=1e-4)
        assert bg == pytest.approx(0.37754, abs=1e-4)

    def test_shape_mismatch(self):
        probs = posteriors_from_distances(2, 2, np.array([[0.0, 0.0]]), 1.0, 1.0)
        with pytest.raises(ShapeError):
            expected_counts(probs, np.zeros((3, 3)))


class TestBayesLoss:
    def params_for_unit_margin(self, side=2):
        # d_ratio * side = 1 pixel
        return 1.0, 1.0 / side

    def test_zero_density_single_head(self):
        tape = Tape(np.float64)
        dmap = tape.tensor(np.zeros((2, 2)), requires_grad=True)
        loss = bayes_loss(dmap, np.array([[0.0, 0.0]]), *self.params_for_unit_margin())
        assert float(loss.data) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_value(self):
        density = np.zeros((2, 2))
        density[0, 0] = 1.0
        tape = Tape(np.float64)
        dmap = tape.tensor(density, requires_grad=True)
        loss = bayes_loss(dmap, np.array([[0.0, 0.0]]), *self.params_for_unit_margin())
        assert float(loss.data) == pytest.approx(0.75508, abs=1e-4)

    def test_matches_brute_force_random(self):
        for _ in range(10):
            h, w = int(RNG.integers(2, 7)), int(RNG.integers(2, 7))
            n = int(RNG.integers(0, 5))
            heads = RNG.uniform(0, min(h, w) - 1, size=(n, 2))
            density = RNG.uniform(0, 1, size=(h, w))
            delta, d_ratio = 1.7, 0.3
            tape = Tape(np.float64)
            loss = bayes_loss(tape.tensor(density), heads, delta, d_ratio)
            d = d_ratio * min(h, w)
            _, _, _, expect = bf_bayes(density, [tuple(p) for p in heads], 1.7, d)
            assert float(loss.data) == pytest.approx(expect, rel=1e-9)

    def test_empty_scene_pushes_density_to_zero(self):
        density = RNG.uniform(0, 1, size=(4, 4))
        tape = Tape(np.float64)
        dmap = tape.tensor(density, requires_grad=True)
        loss = bayes_loss(dmap, np.zeros((0, 2)), 2.0, 0.25)
        assert float(loss.data) == pytest.approx(density.sum(), rel=1e-12)
        ad.backward(loss)
        np.testing.assert_allclose(dmap.grad, np.ones((4, 4)), atol=1e-12)

    def test_loss_nonnegative_and_zero_iff_perfect(self):
        # build a density whose expected counts are exactly [1, 0]: all mass
        # at the head pixel scaled by 1/posterior
        heads = np.array([[1.0, 1.0]])
        probs = posteriors_from_distances(4, 4, heads, 1.0, 1.0)
        density = np.zeros(16)
        idx = 1 * 4 + 1
        density[idx] = 1.0 / probs[0, idx]
        bg_count = probs[1, idx] * density[idx]
        tape = Tape(np.float64)
        loss = bayes_loss(
            tape.tensor(density.reshape(4, 4)), heads, 1.0, 0.25
        )
        assert float(loss.data) == pytest.approx(bg_count, rel=1e-9)  # only bg term left

    def test_translation_invariance(self):
        # heads shifted by whole pixels on a larger grid give the same
        # posteriors, and so the same counts, on the sub-window the shift
        # carries the 5x5 grid to
        heads = RNG.uniform(1, 3, size=(3, 2))
        density = RNG.uniform(0, 1, size=(5, 5))
        delta, d = 1.3, 1.0
        base = posteriors_from_distances(5, 5, heads, delta, d)
        (sx, sy), (h, w) = (7, 3), (12, 14)
        moved = posteriors_from_distances(h, w, heads + [sx, sy], delta, d)
        window = moved.reshape(4, h, w)[:, sy:sy + 5, sx:sx + 5]
        np.testing.assert_allclose(window.reshape(4, 25), base, rtol=0, atol=1e-12)
        padded = np.zeros((h, w))
        padded[sy:sy + 5, sx:sx + 5] = density
        for got, want in zip(expected_counts(moved, padded), expected_counts(base, density)):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        for _ in range(10):
            density = RNG.uniform(0.05, 1.0, size=(4, 4))
            heads = RNG.uniform(0, 3, size=(2, 2))
            delta, d_ratio = 1.5, 0.3

            def run(dv):
                tape = Tape(np.float64)
                dmap = tape.tensor(dv, requires_grad=True)
                return dmap, bayes_loss(dmap, heads, delta, d_ratio)

            dmap, loss = run(density)
            # keep clear of the |.| kink: residuals are O(1) here
            d = d_ratio * min(4, 4)
            _, per_head, bg, _ = bf_bayes(density, [tuple(p) for p in heads], 1.5, d)
            assert min(abs(1 - c) for c in per_head) > 1e-3 and abs(bg) > 1e-3
            ad.backward(loss)
            f = lambda v: float(run(v)[1].data)
            assert check_gradient(f, density, dmap.grad, 6, RNG) < 1e-4

    def test_nan_density_rejected(self):
        tape = Tape(np.float64)
        bad = tape.tensor(np.zeros((2, 2)))
        bad.data = bad.data.copy()
        bad.data[0, 0] = np.nan
        with pytest.raises(NumericError):
            bayes_loss(bad, np.array([[0.0, 0.0]]), 1.0, 0.5)

    def test_bad_heads_rejected_at_entry(self):
        dmap = Tape(np.float64).tensor(np.zeros((3, 3)))
        params = (1.0, 0.5)  # delta, d_ratio
        with pytest.raises(ShapeError, match="heads"):
            bayes_loss(dmap, np.array([1.0, 2.0, 3.0]), *params)
        with pytest.raises(NumericError, match="heads"):
            bayes_loss(dmap, np.array([[np.nan, 1.0]]), *params)

    def test_posteriors_called_once_through_the_module(self, monkeypatch):
        # the benchmark traces the loss's posteriors at this module attribute
        calls = []
        inner = bayes.posteriors_from_distances

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(bayes, "posteriors_from_distances", counting)
        tape = Tape(np.float64)
        for heads in (np.array([[1.0, 2.0], [0.5, 0.5]]), np.zeros((0, 2))):
            bayes_loss(tape.tensor(np.ones((4, 4))), heads, 1.0, 0.25)
        assert len(calls) == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_posteriors_in_the_tapes_dtype(self, monkeypatch, dtype):
        # a float32 tape gets float32 posteriors, which it wraps without a copy
        requested, made, wrapped = [], [], []
        inner, constant = bayes.posteriors_from_distances, Tape.constant

        def spy(*args, **kwargs):
            call = inspect.signature(inner).bind(*args, **kwargs)
            call.apply_defaults()
            requested.append(np.dtype(call.arguments["dtype"]))
            made.append(inner(*args, **kwargs))
            return made[-1]

        def recording_constant(tape, data):
            out = constant(tape, data)
            wrapped.append(out.data)
            return out

        monkeypatch.setattr(bayes, "posteriors_from_distances", spy)
        monkeypatch.setattr(Tape, "constant", recording_constant)
        tape = Tape(dtype)
        bayes_loss(tape.tensor(np.ones((4, 4))), np.array([[1.0, 2.0]]), 1.0, 0.25)
        assert requested == [np.dtype(dtype)]
        assert made[0].dtype == dtype and wrapped[0] is made[0]

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(delta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(d_ratio=1.0)


class TestPosteriorInvariantsAtScale:
    def test_normalization_and_conservation_random_configs(self):
        for _ in range(60):
            h = int(RNG.integers(2, 33))
            w = int(RNG.integers(2, 33))
            n = int(RNG.integers(1, 51))
            heads = np.column_stack(
                [RNG.uniform(0, w - 1, size=n), RNG.uniform(0, h - 1, size=n)]
            )
            delta = float(RNG.uniform(0.5, 9.0))
            d = float(RNG.uniform(0.5, 8.0))
            probs = posteriors_from_distances(h, w, heads, delta, d)
            np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-9)
            density = RNG.uniform(0, 0.5, size=(h, w))
            per_head, bg = expected_counts(probs, density)
            assert per_head.sum() + bg == pytest.approx(density.sum(), rel=1e-6)
