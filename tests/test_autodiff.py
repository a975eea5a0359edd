"""Forward values and finite-difference gradient checks for every primitive."""

import gc
import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ranet import autodiff as ad
from ranet.autodiff import GraphError, NumericError, ShapeError, Tape
from ranet.network import NetConfig, full_forward, init_params
from ranet.training import TrainConfig

from oracles import (
    ORACLE_TOL,
    bf_adaptive_pool,
    bf_conv2d,
    bf_upsample,
    check_gradient,
    two_branch_sigmoid,
)

RNG = np.random.default_rng(20240811)
N_TRIALS = 20
PRIMITIVE_TOL = 1e-6


def scalar_through(op, x_arr: np.ndarray, *, weights=None):
    """Wrap op into a scalar function sum(weights * op(x)) of the raw array."""

    def f(arr):
        tape = Tape(np.float64)
        x = tape.tensor(arr, requires_grad=True)
        out = op(tape, x)
        w = tape.tensor(weights if weights is not None else np.ones(out.shape))
        return float(ad.sum_all(ad.mul(out, w)).data)

    return f


def grad_of(op, x_arr: np.ndarray, *, weights=None):
    tape = Tape(np.float64)
    x = tape.tensor(x_arr, requires_grad=True)
    out = op(tape, x)
    w = tape.tensor(weights if weights is not None else np.ones(out.shape))
    ad.backward(ad.sum_all(ad.mul(out, w)))
    return x.grad


def assert_op_gradient(op, shape, trials=N_TRIALS, tol=PRIMITIVE_TOL, min_mag=0.0,
                       sampler=None):
    """Run repeated randomized finite-difference checks on a unary-style op."""
    for _ in range(trials):
        x_arr = sampler(RNG) if sampler else RNG.uniform(-1.0, 1.0, size=shape)
        # random cotangent keeps the check sensitive beyond sum-of-outputs
        tape = Tape(np.float64)
        probe_out = op(tape, tape.tensor(x_arr))
        weights = RNG.uniform(-1.0, 1.0, size=probe_out.shape)
        g = grad_of(op, x_arr, weights=weights)
        f = scalar_through(op, x_arr, weights=weights)
        worst = check_gradient(f, x_arr, g, n_probes=4, rng=RNG, min_mag=min_mag)
        assert worst < tol, f"worst rel err {worst:.3e}"


class TestMatmul:
    def test_identity(self):
        tape = Tape()
        a = tape.tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, tape.tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        tape = Tape()
        out = ad.matmul(tape.tensor([[1.0, 2.0], [3.0, 4.0]]), tape.tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_shape_error_lists_both(self):
        tape = Tape()
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(tape.tensor(np.zeros((2, 3))), tape.tensor(np.zeros((2, 2))))

    def test_gradient_both_operands(self):
        for _ in range(N_TRIALS):
            a_arr = RNG.normal(size=(3, 4))
            b_arr = RNG.normal(size=(4, 2))
            w_arr = RNG.normal(size=(3, 2))

            def run(a_in, b_in):
                tape = Tape(np.float64)
                a = tape.tensor(a_in, requires_grad=True)
                b = tape.tensor(b_in, requires_grad=True)
                loss = ad.sum_all(ad.mul(ad.matmul(a, b), tape.tensor(w_arr)))
                return tape, a, b, loss

            tape, a, b, loss = run(a_arr, b_arr)
            ad.backward(loss)
            fa = lambda arr: float(run(arr, b_arr)[3].data)
            fb = lambda arr: float(run(a_arr, arr)[3].data)
            assert check_gradient(fa, a_arr, a.grad, 4, RNG) < PRIMITIVE_TOL
            assert check_gradient(fb, b_arr, b.grad, 4, RNG) < PRIMITIVE_TOL


class TestSoftmaxRows:
    def test_constant_row_uniform(self):
        tape = Tape()
        out = ad.softmax_rows(tape.tensor(np.full((2, 3), 4.2)))
        np.testing.assert_allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_large_values_no_overflow(self):
        tape = Tape()
        out = ad.softmax_rows(tape.tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form_exponentials(self):
        tape = Tape()
        out = ad.softmax_rows(tape.tensor([[np.log(1.0), np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        for _ in range(50):
            tape = Tape()
            out = ad.softmax_rows(tape.tensor(RNG.normal(0, 5, size=(6, 7))))
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_nan_rejected(self):
        tape = Tape()
        with pytest.raises(NumericError):
            ad.softmax_rows(tape.tensor([[np.nan, 0.0]]))

    def test_gradient(self):
        assert_op_gradient(lambda t, x: ad.softmax_rows(x), (4, 5))


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        tape = Tape()
        x = tape.tensor(RNG.uniform(size=(1, 5, 5)))
        k = tape.tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(ad.conv2d(x, k).data, x.data)

    def test_all_ones_kernel_interior(self):
        tape = Tape()
        x = tape.tensor(np.full((1, 6, 6), 0.7))
        out = ad.conv2d(x, tape.tensor(np.ones((1, 1, 3, 3))))
        np.testing.assert_allclose(out.data[0, 1:-1, 1:-1], 9 * 0.7, atol=1e-12)

    def test_even_kernel_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError, match="odd"):
            ad.conv2d(tape.tensor(np.zeros((1, 4, 4))), tape.tensor(np.zeros((1, 1, 2, 2))))

    def test_dilation_matches_explicit_sum(self):
        # dilation-2 3x3 kernel reads a 5x5 footprint with holes
        x_arr = RNG.uniform(size=(1, 7, 7))
        k_arr = RNG.normal(size=(1, 1, 3, 3))
        tape = Tape()
        out = ad.conv2d(tape.tensor(x_arr), tape.tensor(k_arr), dilation=2).data
        xp = np.pad(x_arr[0], 2)
        expect = sum(
            k_arr[0, 0, i, j] * xp[2 * i : 2 * i + 7, 2 * j : 2 * j + 7]
            for i in range(3)
            for j in range(3)
        )
        np.testing.assert_allclose(out[0], expect, atol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2, 3, 4], ids=lambda d: f"d{d}")
    @pytest.mark.parametrize("side", [1, 3], ids=lambda s: f"k{s}")
    def test_gradient_input_kernel_bias(self, side, dilation):
        for _ in range(N_TRIALS // 2):
            x_arr = RNG.normal(size=(2, 5, 7))
            k_arr = RNG.normal(size=(3, 2, side, side)) * 0.5
            b_arr = RNG.normal(size=(3,))
            w_arr = RNG.normal(size=(3, 5, 7))

            def run(xv, kv, bv):
                tape = Tape(np.float64)
                x = tape.tensor(xv, requires_grad=True)
                k = tape.tensor(kv, requires_grad=True)
                b = tape.tensor(bv, requires_grad=True)
                out = ad.conv2d(x, k, bias=b, dilation=dilation)
                loss = ad.sum_all(ad.mul(out, tape.tensor(w_arr)))
                return x, k, b, loss

            x, k, b, loss = run(x_arr, k_arr, b_arr)
            ad.backward(loss)
            fx = lambda v: float(run(v, k_arr, b_arr)[3].data)
            fk = lambda v: float(run(x_arr, v, b_arr)[3].data)
            fb = lambda v: float(run(x_arr, k_arr, v)[3].data)
            assert check_gradient(fx, x_arr, x.grad, 4, RNG) < PRIMITIVE_TOL
            assert check_gradient(fk, k_arr, k.grad, 4, RNG) < PRIMITIVE_TOL
            assert check_gradient(fb, b_arr, b.grad, 2, RNG) < PRIMITIVE_TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("dilation", [1, 2, 3, 4], ids=lambda d: f"d{d}")
    @pytest.mark.parametrize(("kernel", "W", "budget", "blocks"), [
        ((3, 3), 64, 64, 20),   # one output row per block
        ((3, 3), 64, 192, 7),   # six blocks of 3 rows, the last of 2
        ((3, 5), 20, 150, 4),   # blocks of 128 columns end mid-row; the last has 16
        ((3, 3), 7, 64, 3),     # an odd width: 64, 64 and 12 columns
        ((3, 3), 7, 140, 1),    # the whole matrix fits: one product
        ((1, 1), 64, 64, 1),    # a 1x1 kernel's columns are the input itself and cost nothing
    ], ids=["rows1", "rows3", "midrow", "odd", "whole", "k1"])
    def test_column_blocks_are_bit_identical(self, monkeypatch, dtype, dilation, kernel, W, budget,
                                             blocks):
        C, H, F = 3, 20, 4
        rng = np.random.default_rng(dilation)
        x_arr, g_arr = rng.normal(size=(C, H, W)), rng.normal(size=(F, H, W))
        k_arr, b_arr = rng.normal(size=(F, C) + kernel), rng.normal(size=F)
        lowered = []
        monkeypatch.setattr(ad, "_im2col", lambda *a, f=ad._im2col: lowered.append(a) or f(*a))

        def run(budget_bytes):
            monkeypatch.setattr(ad, "COLUMN_BUDGET", budget_bytes)
            lowered.clear()
            tape = Tape(dtype)
            x, k, b = (tape.tensor(a, requires_grad=True) for a in (x_arr, k_arr, b_arr))
            out = ad.conv2d(x, k, bias=b, dilation=dilation)
            ad.backward(ad.sum_all(ad.mul(out, tape.tensor(g_arr))))
            return [a.tobytes() for a in (out.data, x.grad, k.grad, b.grad)]

        whole = run(1 << 62)
        assert len(lowered) == 1
        # a budget of `budget` columns of the column matrix
        assert run(budget * C * kernel[0] * kernel[1] * np.dtype(dtype).itemsize) == whole
        assert len(lowered) == blocks


class TestPooling:
    def test_window_mean(self):
        tape = Tape()
        out = ad.avgpool(tape.tensor([[[1.0, 3.0], [5.0, 7.0]]]))
        np.testing.assert_array_equal(out.data, [[[4.0]]])

    def test_constant_stays_constant(self):
        tape = Tape()
        out = ad.avgpool(tape.tensor(np.full((3, 8, 8), 0.3)))
        np.testing.assert_allclose(out.data, 0.3, atol=1e-15)

    def test_odd_side_is_refused(self):
        tape = Tape()
        with pytest.raises(ValueError, match="4x3"):
            ad.avgpool(tape.tensor(np.zeros((1, 4, 3))))

    def test_adaptive_identity_at_full_grid(self):
        tape = Tape()
        x = tape.tensor(RNG.uniform(size=(2, 5, 5)))
        np.testing.assert_array_equal(ad.adaptive_avgpool(x, 5).data, x.data)

    def test_adaptive_grid_one_is_global_mean(self):
        tape = Tape()
        x_arr = RNG.uniform(size=(2, 6, 4))
        out = ad.adaptive_avgpool(tape.tensor(x_arr), 1)
        np.testing.assert_allclose(out.data[:, 0, 0], x_arr.mean(axis=(1, 2)), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avgpool_equals_adaptive_matrix_form(self, dtype):
        # adaptive_avgpool still applies one matrix per axis; avgpool's strided
        # sums round exactly as those products do, forward and backward
        outs, grads = [], []
        for op in (ad.avgpool, lambda t: ad.adaptive_avgpool(t, 8)):
            tape = Tape(dtype)
            x = tape.tensor(np.random.default_rng(8).normal(size=(3, 16, 16)),
                            requires_grad=True)
            out = op(x)
            g = tape.tensor(np.random.default_rng(9).normal(size=(3, 8, 8)))
            ad.backward(ad.sum_all(ad.mul(out, g)))
            outs.append(out.data)
            grads.append(x.grad)
        assert outs[0].dtype == grads[0].dtype == dtype
        assert outs[0].tobytes() == outs[1].tobytes()
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_avgpool_gradient(self):
        assert_op_gradient(lambda t, x: ad.avgpool(x), (2, 6, 6))

    def test_adaptive_gradient_nondivisible(self):
        assert_op_gradient(lambda t, x: ad.adaptive_avgpool(x, 3), (2, 7, 5))
        assert_op_gradient(lambda t, x: ad.adaptive_avgpool(x, 6), (2, 4, 3))


class TestUpsample:
    def test_constant_map(self):
        tape = Tape()
        out = ad.upsample_bilinear(tape.tensor(np.full((1, 3, 3), 0.6)), 7, 11)
        np.testing.assert_allclose(out.data, 0.6, atol=1e-12)

    def test_identity_when_same_shape(self):
        tape = Tape()
        x = tape.tensor(RNG.uniform(size=(2, 4, 6)))
        np.testing.assert_allclose(ad.upsample_bilinear(x, 4, 6).data, x.data, atol=1e-12)

    def test_corners_map_to_corners(self):
        tape = Tape()
        x_arr = RNG.uniform(size=(1, 3, 3))
        out = ad.upsample_bilinear(tape.tensor(x_arr), 9, 9).data
        for (r_out, c_out), (r_in, c_in) in [
            ((0, 0), (0, 0)), ((0, 8), (0, 2)), ((8, 0), (2, 0)), ((8, 8), (2, 2)),
        ]:
            assert out[0, r_out, c_out] == pytest.approx(x_arr[0, r_in, c_in], abs=1e-12)

    def test_zero_target_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.upsample_bilinear(tape.tensor(np.zeros((1, 2, 2))), 0, 4)

    def test_gradient(self):
        assert_op_gradient(lambda t, x: ad.upsample_bilinear(x, 9, 7), (2, 4, 4))
        assert_op_gradient(lambda t, x: ad.upsample_bilinear(x, 3, 3), (1, 5, 5))


def vjp_of(op, *arrays, cotangent):
    """Forward value of op on float64 leaves, and the leaves' cotangents."""
    tape = Tape(np.float64)
    leaves = [tape.tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    ad.backward(ad.sum_all(ad.mul(out, tape.tensor(cotangent))))
    return out.data, [t.grad for t in leaves]


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=ORACLE_TOL, atol=ORACLE_TOL)


class TestSpatialOracles:
    """Forward values and VJPs against the per-tap, per-corner and per-bin loops."""

    @pytest.mark.parametrize("shape, kernel, dilation", [
        ((2, 5, 7), (3, 1, 1), 1),
        ((2, 5, 7), (3, 3, 3), 1),
        ((3, 6, 4), (2, 3, 3), 2),
        ((1, 7, 9), (2, 3, 3), 3),
        ((2, 8, 5), (4, 3, 3), 4),
        ((2, 9, 6), (3, 1, 1), 4),
        ((2, 3, 2), (2, 3, 3), 4),  # dilation >= side: off-centre taps read only padding
        ((1, 1, 1), (2, 3, 3), 2),
        ((2, 4, 6), (3, 1, 3), 2),
        ((2, 6, 7), (3, 5, 3), 2),  # unequal kernel sides: taps step along both axes
    ])
    def test_conv2d(self, shape, kernel, dilation):
        f, kh, kw = kernel
        x = RNG.normal(size=shape)
        k = RNG.normal(size=(f, shape[0], kh, kw))
        b = RNG.normal(size=(f,))
        g = RNG.normal(size=(f,) + shape[1:])
        out, grads = vjp_of(lambda *t: ad.conv2d(*t, dilation=dilation), x, k, b,
                            cotangent=g)
        expect, vjp = bf_conv2d(x, k, b, dilation)
        assert_close(out, expect)
        for got, want in zip(grads, vjp(g)):
            assert_close(got, want)

    @pytest.mark.parametrize("shape, target", [
        ((2, 4, 4), (9, 7)),
        ((2, 3, 5), (8, 13)),
        ((1, 1, 1), (5, 3)),   # from size 1
        ((2, 1, 4), (3, 7)),
        ((2, 5, 3), (1, 1)),   # to size 1
        ((1, 6, 5), (4, 1)),
        ((2, 7, 9), (3, 4)),   # downsampling
        ((2, 4, 6), (4, 6)),   # same size
    ])
    def test_upsample_bilinear(self, shape, target):
        x = RNG.normal(size=shape)
        g = RNG.normal(size=(shape[0],) + target)
        out, (gx,) = vjp_of(lambda t: ad.upsample_bilinear(t, *target), x, cotangent=g)
        expect, vjp = bf_upsample(x, *target)
        assert_close(out, expect)
        assert_close(gx, vjp(g))

    @pytest.mark.parametrize("shape, grid", [
        ((2, 7, 5), 3),
        ((1, 13, 6), 4),
        ((2, 9, 7), 6),
        ((3, 5, 5), 5),
        ((2, 6, 4), 1),
        ((1, 8, 8), 3),
        ((2, 4, 3), 6),  # grid above both sides: overlapping bins
        ((1, 2, 2), 6),
    ])
    def test_adaptive_avgpool(self, shape, grid):
        x = RNG.normal(size=shape)
        g = RNG.normal(size=(shape[0], grid, grid))
        out, (gx,) = vjp_of(lambda t: ad.adaptive_avgpool(t, grid), x, cotangent=g)
        expect, vjp = bf_adaptive_pool(x, grid, grid)
        assert_close(out, expect)
        assert_close(gx, vjp(g))

    @pytest.mark.parametrize("shape", [(2, 6, 6), (2, 8, 4), (1, 4, 6), (3, 10, 2)])
    def test_avgpool(self, shape):
        x = RNG.normal(size=shape)
        grid_h, grid_w = shape[1] // 2, shape[2] // 2
        g = RNG.normal(size=(shape[0], grid_h, grid_w))
        out, (gx,) = vjp_of(ad.avgpool, x, cotangent=g)
        expect, vjp = bf_adaptive_pool(x, grid_h, grid_w)
        assert_close(out, expect)
        assert_close(gx, vjp(g))


class TestConcatSlice:
    def test_unary_concat(self):
        tape = Tape()
        x = tape.tensor(RNG.uniform(size=(2, 3, 3)))
        np.testing.assert_array_equal(ad.concat_channels([x]).data, x.data)

    def test_channel_counts_add(self):
        tape = Tape()
        out = ad.concat_channels(
            [tape.tensor(np.zeros((2, 4, 4))), tape.tensor(np.zeros((3, 4, 4)))]
        )
        assert out.shape == (5, 4, 4)

    def test_slice_back_returns_originals(self):
        tape = Tape()
        a = tape.tensor(RNG.uniform(size=(2, 3, 3)))
        b = tape.tensor(RNG.uniform(size=(3, 3, 3)))
        cat = ad.concat_channels([a, b])
        np.testing.assert_array_equal(ad.slice_channels(cat, 0, 2).data, a.data)
        np.testing.assert_array_equal(ad.slice_channels(cat, 2, 5).data, b.data)

    def test_spatial_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            ad.concat_channels(
                [tape.tensor(np.zeros((1, 4, 4))), tape.tensor(np.zeros((1, 5, 4)))]
            )

    def test_gradients_split(self):
        tape = Tape(np.float64)
        a = tape.tensor(RNG.uniform(size=(2, 3, 3)), requires_grad=True)
        b = tape.tensor(RNG.uniform(size=(1, 3, 3)), requires_grad=True)
        w = tape.tensor(RNG.normal(size=(3, 3, 3)))
        ad.backward(ad.sum_all(ad.mul(ad.concat_channels([a, b]), w)))
        np.testing.assert_array_equal(a.grad, w.data[0:2])
        np.testing.assert_array_equal(b.grad, w.data[2:3])

    @pytest.mark.parametrize("rest", [(), (2, 3, 3)], ids=["rank1", "rank4"])
    def test_any_rank_along_the_first_axis(self, rest):
        # biases [F] and kernels [F,C,kh,kw] join like [C,H,W] maps; a generator
        # of its own leaves the draws of the tests after it as they were
        rng = np.random.default_rng(len(rest))
        tape = Tape(np.float64)
        a = tape.tensor(rng.uniform(size=(2,) + rest), requires_grad=True)
        b = tape.tensor(rng.uniform(size=(3,) + rest), requires_grad=True)
        cat = ad.concat_channels([a, b])
        assert cat.shape == (5,) + rest
        np.testing.assert_array_equal(cat.data, np.concatenate([a.data, b.data]))
        w = tape.tensor(rng.normal(size=(5,) + rest))
        ad.backward(ad.sum_all(ad.mul(cat, w)))
        np.testing.assert_array_equal(a.grad, w.data[0:2])
        np.testing.assert_array_equal(b.grad, w.data[2:5])

    @pytest.mark.parametrize("shapes", [
        [(2, 4, 4), (2, 4, 4, 1)],
        [(3,), (3, 1)],
        [(1, 4, 4), (4, 4)],
        [(), ()],
    ], ids=["3-vs-4", "1-vs-2", "3-vs-2", "0-d"])
    def test_rank_mismatch_is_shape_error(self, shapes):
        tape = Tape()
        with pytest.raises(ShapeError):
            ad.concat_channels([tape.tensor(np.zeros(s)) for s in shapes])


class TestElementwise:
    def test_relu_values(self):
        for dtype in (np.float32, np.float64):
            out = ad.relu(Tape(dtype).tensor([-1.0, -0.0, 0.0, 2.0, -3.5]))
            np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0, 2.0, 0.0])
            assert out.data.dtype == dtype
            assert not np.signbit(out.data[out.data == 0]).any()  # every zero is +0.0

    def test_sigmoid_at_zero(self):
        tape = Tape()
        assert ad.sigmoid(tape.tensor([0.0])).data[0] == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_two_branch_reference(self, dtype):
        special = np.array([0.0, 1e-30, 1.0, 20.0, 88.7, 89.0, 800.0])
        normals = np.random.default_rng(16).normal(size=1000)  # leaves RNG's draws as they were
        xs = np.concatenate([special, -special, normals]).astype(dtype)
        assert np.signbit(xs[len(special)])  # -0.0 is among the inputs
        out = ad.sigmoid(Tape(dtype).tensor(xs)).data
        assert out.dtype == dtype
        assert out.tobytes() == two_branch_sigmoid(xs).tobytes()

    def test_sigmoid_extreme_inputs_stable(self):
        tape = Tape()
        out = ad.sigmoid(tape.tensor([-800.0, 800.0])).data
        assert out[0] == 0.0 and out[1] == 1.0

    def test_softplus_matches_reference(self):
        tape = Tape()
        xs = np.array([-700.0, -3.0, 0.0, 3.0, 700.0])
        out = ad.softplus(tape.tensor(xs)).data
        np.testing.assert_allclose(out, np.logaddexp(0, xs), rtol=1e-15)
        assert out[-1] == 700.0  # no overflow

    def test_nan_rejected(self):
        tape = Tape()
        bad = tape.tensor([np.nan])
        for op in (ad.relu, ad.sigmoid, ad.softplus, ad.abs_val):
            with pytest.raises(NumericError):
                op(bad)
        with pytest.raises(NumericError):
            ad.add(bad, bad)

    def test_relu_gradient_at_zero_is_zero(self):
        tape = Tape(np.float64)
        x = tape.tensor([0.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.relu(x)))
        assert x.grad[0] == 0.0

    def test_mul_gradient(self):
        for _ in range(N_TRIALS):
            a_arr = RNG.normal(size=(3, 3))
            b_arr = RNG.normal(size=(3, 3))

            def run(av, bv):
                tape = Tape(np.float64)
                a = tape.tensor(av, requires_grad=True)
                b = tape.tensor(bv, requires_grad=True)
                return a, b, ad.sum_all(ad.mul(a, b))

            a, b, loss = run(a_arr, b_arr)
            ad.backward(loss)
            fa = lambda v: float(run(v, b_arr)[2].data)
            assert check_gradient(fa, a_arr, a.grad, 4, RNG) < PRIMITIVE_TOL

    def test_sigmoid_softplus_abs_relu_gradients(self):
        assert_op_gradient(lambda t, x: ad.sigmoid(x), (3, 3))
        assert_op_gradient(lambda t, x: ad.softplus(x), (3, 3))
        assert_op_gradient(
            lambda t, x: ad.abs_val(x), (4, 4), min_mag=0.5,
            sampler=lambda rng: np.where(
                rng.uniform(size=(4, 4)) < 0.5, -1.0, 1.0
            ) * rng.uniform(0.1, 1.0, size=(4, 4)),
        )
        assert_op_gradient(
            lambda t, x: ad.relu(x), (4, 4), min_mag=0.5,
            sampler=lambda rng: rng.uniform(0.05, 1.0, size=(4, 4)),
        )

    def test_reshape_transpose_gradients(self):
        assert_op_gradient(lambda t, x: ad.reshape(x, (6, 2)), (3, 4))
        assert_op_gradient(lambda t, x: ad.transpose(x), (3, 4))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = Tape(np.float64)
        x = tape.tensor(RNG.uniform(size=(3, 4)), requires_grad=True)
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        tape = Tape(np.float64)
        x_arr = RNG.normal(size=(5,))
        x = tape.tensor(x_arr, requires_grad=True)
        ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x_arr, atol=1e-12)

    def test_double_backward_rejected(self):
        tape = Tape(np.float64)
        x = tape.tensor([1.0], requires_grad=True)
        loss = ad.sum_all(x)
        ad.backward(loss)
        with pytest.raises(GraphError):
            ad.backward(loss)

    def test_backward_frees_saved_arrays(self, monkeypatch):
        # The conv record saves the zero-padded input for the kernel's vjp; with
        # the cycle collector off, it must die as soon as that record has run.
        saved = []

        def spy(*args):
            xp = pad(*args)
            saved.append(weakref.ref(xp))
            return xp

        pad = ad._pad
        monkeypatch.setattr(ad, "_pad", spy)
        gc.disable()
        try:
            tape = Tape(np.float64)
            x = tape.tensor(RNG.normal(size=(2, 5, 6)), requires_grad=True)
            k = tape.tensor(RNG.normal(size=(3, 2, 3, 3)), requires_grad=True)
            loss = ad.sum_all(ad.relu(ad.conv2d(x, k)))
            assert saved[0]() is not None
            ad.backward(loss)
            assert saved[0]() is None
            assert x.grad is not None and k.grad is not None
            assert np.any(k.grad != 0.0)
            with pytest.raises(GraphError):
                ad.backward(loss)
        finally:
            gc.enable()

    def test_activation_no_vjp_reads_is_freed_by_the_forward(self):
        # relu's vjp reads a mask, not its input, so once the forward drops the
        # conv output nothing holds it; gradients match a run that kept it.
        gen = np.random.default_rng(27)
        x_arr, k_arr = gen.normal(size=(2, 6, 5)), gen.normal(size=(3, 2, 3, 3))

        def run(keep):
            tape = Tape(np.float64)
            x = tape.tensor(x_arr, requires_grad=True)
            k = tape.tensor(k_arr, requires_grad=True)
            y = ad.conv2d(x, k)
            data = weakref.ref(y.data)
            z = ad.relu(y)
            kept = y if keep else None
            del y
            assert (data() is not None) == keep
            ad.backward(ad.sum_all(z))
            assert kept is None or kept.grad is not None
            return x.grad.tobytes(), k.grad.tobytes()

        gc.disable()  # freed by reference counting alone, not by a cycle collection
        try:
            assert run(keep=False) == run(keep=True)
        finally:
            gc.enable()

    def test_conv_record_saves_no_column_matrix(self):
        # What a conv2d record keeps is its output and the zero-padded input
        # (1.0 MB here); the column matrix (2.36 MB) is a forward temporary.
        gen = np.random.default_rng(64)
        tape = Tape(np.float32)
        x = tape.tensor(gen.normal(size=(16, 64, 64)), requires_grad=True)
        k = tape.tensor(gen.normal(size=(32, 16, 3, 3)), requires_grad=True)
        padded_bytes = 16 * 66 * 66 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ad.conv2d(x, k)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 1.25 * (y.data.nbytes + padded_bytes)

    def test_non_scalar_loss_rejected(self):
        tape = Tape(np.float64)
        x = tape.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            ad.backward(ad.mul(x, x))

    def test_detached_loss_rejected(self):
        tape = Tape(np.float64)
        with pytest.raises(GraphError):
            ad.backward(ad.sum_all(tape.tensor([1.0])))

    @pytest.mark.parametrize("op", [
        lambda t1, t2: ad.add(t1.tensor([1.0]), t2.tensor([1.0])),
        lambda t1, t2: ad.mul(t1.tensor([1.0]), t2.tensor([1.0])),
        lambda t1, t2: ad.matmul(t1.tensor(np.ones((2, 3))), t2.tensor(np.ones((3, 2)))),
        lambda t1, t2: ad.concat_channels(
            [t1.tensor(np.ones((1, 2, 2))), t2.tensor(np.ones((2, 2, 2)))]),
        lambda t1, t2: ad.conv2d(t1.tensor(np.ones((1, 4, 4))), t2.tensor(np.ones((2, 1, 3, 3)))),
        lambda t1, t2: ad.conv2d(t1.tensor(np.ones((1, 4, 4))), t1.tensor(np.ones((2, 1, 3, 3))),
                                 bias=t2.tensor(np.zeros(2))),
    ], ids=["add", "mul", "matmul", "concat_channels", "conv2d-kernel", "conv2d-bias"])
    def test_cross_tape_rejected(self, op):
        with pytest.raises(GraphError):
            op(Tape(), Tape())

    def test_operand_without_gradient_gets_no_edge(self, monkeypatch):
        # The input of conv2d is a constant, so its vjp (the product of the
        # stacked tap kernels with g, then the shifted adds) must never run.
        calls = []

        def spy(*args):
            calls.append(args[3])
            return input_grad(*args)

        input_grad = ad._conv_input_grad
        monkeypatch.setattr(ad, "_conv_input_grad", spy)
        tape = Tape(np.float64)
        x = tape.tensor(RNG.normal(size=(2, 5, 6)))
        k = tape.tensor(RNG.normal(size=(3, 2, 3, 3)), requires_grad=True)
        constant = tape.tensor(RNG.normal(size=(3, 5, 6)))
        ad.backward(ad.sum_all(ad.mul(ad.conv2d(x, k), constant)))
        assert x.grad is None and constant.grad is None
        assert k.grad is not None and np.any(k.grad != 0.0)
        assert calls == []
        tape = Tape(np.float64)  # the same graph with an input that needs gradient
        x = tape.tensor(x.data, requires_grad=True)
        k = tape.tensor(k.data, requires_grad=True)
        ad.backward(ad.sum_all(ad.mul(ad.conv2d(x, k), tape.tensor(constant.data))))
        assert calls == [(2, 5, 6)]

    def test_composed_graph_matches_finite_differences(self):
        for _ in range(N_TRIALS):
            x_arr = RNG.normal(size=(2, 6, 6)) * 0.5
            k_arr = RNG.normal(size=(2, 2, 3, 3)) * 0.4

            def full(xv):
                tape = Tape(np.float64)
                x = tape.tensor(xv, requires_grad=True)
                k = tape.tensor(k_arr)
                h = ad.relu(ad.conv2d(x, k))
                h = ad.avgpool(h)
                h = ad.upsample_bilinear(h, 6, 6)
                h = ad.sigmoid(ad.concat_channels([h, x]))
                return x, ad.sum_all(ad.mul(h, h))

            x, loss = full(x_arr)
            ad.backward(loss)
            f = lambda v: float(full(v)[1].data)
            # relu kinks: probe only clearly-active coordinates
            worst = check_gradient(f, x_arr, x.grad, 6, RNG, min_mag=1e-3)
            assert worst < 1e-5

    def test_grad_accumulates_over_reuse(self):
        tape = Tape(np.float64)
        x = tape.tensor([3.0], requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x
        ad.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_grads_never_alias(self):
        # add hands both operands its incoming gradient, reshape a view of it and
        # concat_channels a slice of it; every .grad must still be its own array
        tape = Tape(np.float64)
        x = tape.tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        y = ad.add(x, x)
        r = ad.reshape(y, (4, 3, 2))
        c = ad.concat_channels([r, r])
        w = RNG.normal(size=(8, 3, 2))
        ad.backward(ad.sum_all(ad.mul(c, tape.tensor(w))))
        dr = w[:4] + w[4:]
        np.testing.assert_array_equal(c.grad, w)
        np.testing.assert_array_equal(r.grad, dr)
        np.testing.assert_array_equal(y.grad, dr.reshape(2, 3, 4))
        np.testing.assert_array_equal(x.grad, 2.0 * dr.reshape(2, 3, 4))
        tensors = (x, y, r, c)
        for i, a in enumerate(tensors):
            for b in tensors[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)

    def test_determinism(self):
        def run():
            tape = Tape(np.float64)
            x = tape.tensor(np.linspace(-1, 1, 24).reshape(2, 3, 4), requires_grad=True)
            h = ad.softplus(ad.mul(x, tape.tensor(np.full(x.shape, 1.7))))
            loss = ad.sum_all(ad.mul(h, h))
            ad.backward(loss)
            return loss.data.tobytes(), x.grad.tobytes()

        assert run() == run()


class TestPrecisionModes:
    def test_float32_tape(self):
        tape = Tape(np.float32)
        x = tape.tensor([1.0, 2.0], requires_grad=True)
        out = ad.sum_all(ad.mul(x, x))
        assert out.data.dtype == np.float32
        ad.backward(out)
        assert x.grad.dtype == np.float32

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError):
            Tape(np.int32)


def _ones(tape, *shape):
    return tape.tensor(np.ones(shape))


# (operation, exception type, the message fragment naming the operation)
REFUSALS = {
    "backward-loss-of-another-tape": (
        lambda t: t.backward(ad.sum_all(Tape().tensor(np.ones(2), requires_grad=True))),
        GraphError, "does not belong to this tape"),
    "add-shapes": (lambda t: ad.add(_ones(t, 2, 3), _ones(t, 3, 2)), ShapeError, "add:"),
    "mul-shapes": (lambda t: ad.mul(_ones(t, 2), _ones(t, 3)), ShapeError, "mul:"),
    "reshape-size": (lambda t: ad.reshape(_ones(t, 2, 3), (4,)), ShapeError, "reshape:"),
    "transpose-3d": (lambda t: ad.transpose(_ones(t, 1, 2, 3)), ShapeError, "transpose:"),
    "matmul-1d": (lambda t: ad.matmul(_ones(t, 3), _ones(t, 3, 2)), ShapeError, "matmul:"),
    "softmax_rows-1d": (lambda t: ad.softmax_rows(_ones(t, 3)), ShapeError, "softmax_rows:"),
    "concat_channels-empty": (lambda t: ad.concat_channels([]), ShapeError, "concat_channels:"),
    "slice_channels-2d": (lambda t: ad.slice_channels(_ones(t, 2, 3), 0, 1), ShapeError,
                          "slice_channels:"),
    "slice_channels-range": (lambda t: ad.slice_channels(_ones(t, 2, 3, 3), 1, 3), ShapeError,
                             "slice_channels:"),
    "conv2d-input-rank": (lambda t: ad.conv2d(_ones(t, 3, 3), _ones(t, 1, 1, 3, 3)),
                          ShapeError, "conv2d:"),
    "conv2d-kernel-rank": (lambda t: ad.conv2d(_ones(t, 1, 3, 3), _ones(t, 1, 3, 3)),
                           ShapeError, "conv2d:"),
    "conv2d-channels": (lambda t: ad.conv2d(_ones(t, 2, 3, 3), _ones(t, 1, 1, 3, 3)),
                        ShapeError, "conv2d:"),
    "conv2d-dilation-0": (lambda t: ad.conv2d(_ones(t, 1, 3, 3), _ones(t, 1, 1, 3, 3),
                                              dilation=0), ValueError, "conv2d:"),
    "conv2d-dilation-1.5": (lambda t: ad.conv2d(_ones(t, 1, 3, 3), _ones(t, 1, 1, 3, 3),
                                                dilation=1.5), ValueError, "conv2d:"),
    "conv2d-bias": (lambda t: ad.conv2d(_ones(t, 1, 3, 3), _ones(t, 2, 1, 3, 3), _ones(t, 3)),
                    ShapeError, "conv2d:"),
    "avgpool-rank": (lambda t: ad.avgpool(_ones(t, 4, 4)), ShapeError, "avgpool:"),
    "avgpool-odd-side": (lambda t: ad.avgpool(_ones(t, 1, 6, 5)), ValueError, "avgpool:"),
    "avgpool-odd-height": (lambda t: ad.avgpool(_ones(t, 1, 5, 6)), ValueError,
                           "avgpool: input sides 5x6"),
    "adaptive_avgpool-rank": (lambda t: ad.adaptive_avgpool(_ones(t, 4, 4), 2), ShapeError,
                              "adaptive_avgpool:"),
    "adaptive_avgpool-grid-0": (lambda t: ad.adaptive_avgpool(_ones(t, 1, 4, 4), 0),
                                ValueError, "adaptive_avgpool:"),
    "upsample_bilinear-rank": (lambda t: ad.upsample_bilinear(_ones(t, 4, 4), 8, 8),
                               ShapeError, "upsample_bilinear:"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_names_its_operation(name):
    op, exc, fragment = REFUSALS[name]
    with pytest.raises(exc, match=fragment) as raised:
        op(Tape(np.float64))
    assert raised.type is exc  # a ShapeError is a ValueError: the exact type is the contract


def test_the_network_runs_every_primitive(monkeypatch):
    # the benchmark's list of primitives: public, defined in autodiff, not backward
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    prims, called = layers.primitives(), set()
    for name in prims:
        fn = getattr(ad, name)
        monkeypatch.setattr(ad, name,
                            lambda *a, name=name, fn=fn, **k: called.add(name) or fn(*a, **k))
    train = TrainConfig()
    image = np.random.default_rng(0).uniform(size=(16, 16))
    res = full_forward(image, np.array([[7.0, 8.0]]), init_params(NetConfig()), NetConfig(),
                       train.delta, train.d_ratio, dtype=np.float64)
    ad.backward(res.loss)
    assert sorted(set(prims) - called) == []
