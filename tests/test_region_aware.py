"""Similarity / relevance / embedding against brute-force oracles and invariants."""

import numpy as np
import pytest

from ranet import autodiff as ad
from ranet.autodiff import ShapeError, Tape
from ranet.region_aware import (
    embed,
    enhance,
    ra_apply,
    relevance,
    similarity,
)

from oracles import bf_embed, bf_ra, bf_relevance, bf_similarity, check_gradient

RNG = np.random.default_rng(91)

E = np.e
IDENTITY_BLEND = np.array([[E / (E + 1), 1 / (E + 1)], [1 / (E + 1), E / (E + 1)]])


def tensors(q_arr, a_arr, dtype=np.float64, requires_grad=False):
    tape = Tape(dtype)
    return tape, tape.tensor(q_arr, requires_grad), tape.tensor(a_arr, requires_grad)


class TestSimilarity:
    def test_orthonormal_columns_give_identity(self):
        _, q, a = tensors(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(similarity(q, a).data, np.eye(2))

    def test_zero_image_gives_zero(self):
        _, q, a = tensors(np.zeros((3, 2)), RNG.uniform(size=(3, 2)))
        np.testing.assert_array_equal(similarity(q, a).data, np.zeros((2, 2)))

    def test_matches_brute_force(self):
        q_arr = RNG.uniform(size=(3, 2))
        a_arr = RNG.uniform(size=(3, 2))
        _, q, a = tensors(q_arr, a_arr)
        np.testing.assert_allclose(similarity(q, a).data, bf_similarity(q_arr, a_arr), atol=1e-12)

    def test_shape_mismatch(self):
        _, q, a = tensors(np.zeros((3, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            similarity(q, a)


class TestRelevance:
    def test_uniform_for_zero_similarity(self):
        tape = Tape()
        w = relevance(tape.tensor(np.zeros((3, 3))))
        np.testing.assert_allclose(w.data, 1.0 / 3.0, atol=1e-15)

    def test_identity_closed_form(self):
        tape = Tape()
        w = relevance(tape.tensor(np.eye(2)))
        np.testing.assert_allclose(w.data, IDENTITY_BLEND, atol=1e-12)
        np.testing.assert_allclose(w.data, [[0.7311, 0.2689], [0.2689, 0.7311]], atol=1e-4)

    def test_rows_sum_to_one(self):
        for _ in range(25):
            tape = Tape()
            w = relevance(tape.tensor(RNG.normal(0, 4, size=(6, 6))))
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    def test_temperature_flattens(self):
        # similarity of [0,1]-valued columns: row spread <= n, so at t = 1e6
        # the softmax sits within 1e-6 of uniform
        q_arr = RNG.uniform(size=(6, 6))
        a_arr = RNG.uniform(size=(6, 6))
        tape = Tape()
        s = similarity(tape.tensor(q_arr), tape.tensor(a_arr))
        w = relevance(s, temperature=1e6)
        assert np.abs(w.data - 1.0 / 6.0).max() < 1e-6

    def test_shift_invariance_per_row(self):
        s_arr = RNG.normal(size=(4, 4))
        shifts = RNG.normal(size=(4, 1))
        tape = Tape()
        w1 = relevance(tape.tensor(s_arr)).data
        w2 = relevance(tape.tensor(s_arr + shifts)).data
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_matches_brute_force_with_temperature(self):
        s_arr = RNG.normal(size=(5, 5))
        tape = Tape()
        w = relevance(tape.tensor(s_arr), temperature=2.5)
        np.testing.assert_allclose(w.data, bf_relevance(s_arr, 2.5), atol=1e-12)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan, np.inf])
    def test_bad_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            relevance(Tape().tensor(np.zeros((2, 2))), temperature)


class TestEmbed:
    def test_single_column_collapse(self):
        q_arr = RNG.uniform(size=(4, 1))
        tape = Tape()
        out = embed(tape.tensor(q_arr), tape.tensor([[1.0]]))
        np.testing.assert_array_equal(out.data, q_arr)

    def test_zero_image(self):
        tape = Tape()
        w = relevance(tape.tensor(RNG.normal(size=(3, 3))))
        out = embed(tape.tensor(np.zeros((2, 3))), w)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_identity_image_returns_w_transpose(self):
        tape = Tape()
        w = tape.tensor(IDENTITY_BLEND)
        out = embed(tape.tensor(np.eye(2)), w)
        np.testing.assert_allclose(out.data, IDENTITY_BLEND.T, atol=1e-12)

    def test_matches_brute_force(self):
        q_arr = RNG.uniform(size=(4, 3))
        w_arr = bf_relevance(RNG.normal(size=(3, 3)))
        tape = Tape()
        out = embed(tape.tensor(q_arr), tape.tensor(w_arr))
        np.testing.assert_allclose(out.data, bf_embed(q_arr, w_arr), atol=1e-12)


class TestRaApply:
    def test_identity_worked_example(self):
        _, q, a = tensors(np.eye(2), np.eye(2))
        out = ra_apply(q, a)
        np.testing.assert_allclose(
            out.data, [[0.7311, 0.2689], [0.2689, 0.7311]], atol=1e-4
        )

    def test_width_one_collapse(self):
        col = RNG.uniform(size=(7, 1))
        _, q, a = tensors(col, RNG.uniform(size=(7, 1)))
        np.testing.assert_allclose(ra_apply(q, a).data, col, atol=1e-12)

    def test_matches_brute_force_random_shapes(self):
        for _ in range(30):
            n = int(RNG.integers(1, 17))
            m = int(RNG.integers(1, 17))
            q_arr = RNG.uniform(size=(n, m))
            a_arr = RNG.uniform(size=(n, m))
            np.testing.assert_allclose(
                enhance(q_arr, a_arr), bf_ra(q_arr, a_arr), atol=1e-9
            )

    def test_uniform_priority_gives_column_mean(self):
        # every column of A identical -> all inner products along j equal
        # -> W uniform -> every output column is the mean input column
        q_arr = RNG.uniform(size=(5, 4))
        a_arr = np.tile(RNG.uniform(size=(5, 1)), (1, 4))
        out = enhance(q_arr, a_arr)
        mean_col = q_arr.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out, np.tile(mean_col, (1, 4)), atol=1e-12)

    def test_gradient_wrt_image_and_priority(self):
        for _ in range(10):
            q_arr = RNG.uniform(size=(5, 4))
            a_arr = RNG.uniform(size=(5, 4))

            def run(qv, av):
                tape = Tape(np.float64)
                q = tape.tensor(qv, requires_grad=True)
                a = tape.tensor(av, requires_grad=True)
                return q, a, ad.sum_all(ra_apply(q, a))

            q, a, loss = run(q_arr, a_arr)
            ad.backward(loss)
            fq = lambda v: float(run(v, a_arr)[2].data)
            fa = lambda v: float(run(q_arr, v)[2].data)
            assert check_gradient(fq, q_arr, q.grad, 5, RNG) < 1e-4
            assert check_gradient(fa, a_arr, a.grad, 5, RNG) < 1e-4


class TestInvariants:
    def test_row_stochastic_and_positive(self):
        for _ in range(200):
            m = int(RNG.integers(1, 9))
            s_arr = RNG.normal(0, 3, size=(m, m))
            tape = Tape()
            w = relevance(tape.tensor(s_arr)).data
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
            assert w.min() > 0.0 and w.max() < 1.0 or m == 1 and w[0, 0] == 1.0

    def test_convex_combination_rows(self):
        for _ in range(100):
            n = int(RNG.integers(1, 9))
            m = int(RNG.integers(2, 9))
            q_arr = RNG.uniform(size=(n, m))
            a_arr = RNG.uniform(size=(n, m))
            out = enhance(q_arr, a_arr)
            lo = q_arr.min(axis=1, keepdims=True)
            hi = q_arr.max(axis=1, keepdims=True)
            assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_fixed_w_linearity(self):
        q1 = RNG.uniform(size=(5, 4))
        q2 = RNG.uniform(size=(5, 4))
        w_arr = bf_relevance(RNG.normal(size=(4, 4)))
        alpha, beta = 0.3, -1.7
        tape = Tape()
        w = tape.tensor(w_arr)
        lhs = embed(tape.tensor(alpha * q1 + beta * q2), w).data
        rhs = alpha * embed(tape.tensor(q1), w).data + beta * embed(tape.tensor(q2), w).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestRelevanceMatrixType:
    def test_saturated_softmax_accepted(self):
        # column 0 of both inputs is 1: row 0's largest entry rounds to exactly 1
        arr = np.zeros((64, 64))
        arr[:, 0] = 1.0
        tape = Tape(np.float64)
        w = relevance(similarity(tape.tensor(arr), tape.tensor(arr))).data
        assert w[0, 0] == 1.0
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(w[1:], 1 / 64, atol=1e-12)


def _ones(tape, *shape):
    return tape.tensor(np.ones(shape))


@pytest.mark.parametrize("op, fragment", [
    (lambda t: similarity(_ones(t, 1, 2, 2), _ones(t, 2, 2)), "similarity:"),
    (lambda t: relevance(_ones(t, 2, 3)), "relevance:"),
    (lambda t: embed(_ones(t, 2, 2, 2), _ones(t, 2, 2)), "embed:"),
    (lambda t: embed(_ones(t, 2, 3), _ones(t, 2, 2)), "embed:"),
], ids=["similarity-3d", "relevance-not-square", "embed-3d", "embed-weight-shape"])
def test_refusal_names_its_operation(op, fragment):
    with pytest.raises(ShapeError, match=fragment):
        op(Tape(np.float64))
