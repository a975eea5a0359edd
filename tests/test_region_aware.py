"""Similarity / relevance / the block against brute-force oracles and invariants."""

import inspect

import numpy as np
import pytest

from ranet import autodiff as ad
from ranet.autodiff import ShapeError, Tape
from ranet.region_aware import ra_apply, relevance, similarity

from oracles import bf_ra, bf_relevance, bf_similarity, check_gradient

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

    def test_matches_brute_force(self):
        s_arr = RNG.normal(0, 3, size=(5, 5))
        tape = Tape()
        w = relevance(tape.tensor(s_arr))
        np.testing.assert_allclose(w.data, bf_relevance(s_arr), atol=1e-12)

    def test_shift_invariance_per_row(self):
        s_arr = RNG.normal(size=(4, 4))
        shifts = RNG.normal(size=(4, 1))
        tape = Tape()
        w1 = relevance(tape.tensor(s_arr)).data
        w2 = relevance(tape.tensor(s_arr + shifts)).data
        np.testing.assert_allclose(w1, w2, atol=1e-12)


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
            _, q, a = tensors(q_arr, a_arr)
            np.testing.assert_allclose(ra_apply(q, a).data, bf_ra(q_arr, a_arr), atol=1e-9)

    def test_zero_image_gives_zero(self):
        rng = np.random.default_rng(1)
        _, q, a = tensors(np.zeros((3, 4)), rng.normal(size=(3, 4)))
        np.testing.assert_array_equal(ra_apply(q, a).data, np.zeros((3, 4)))

    def test_identity_image_returns_relevance_transpose(self):
        # Q = I makes S = A, so O = W^T with W the row softmax of A
        a_arr = np.random.default_rng(2).normal(size=(4, 4))
        _, q, a = tensors(np.eye(4), a_arr)
        np.testing.assert_allclose(ra_apply(q, a).data, bf_relevance(a_arr).T, atol=1e-12)

    def test_is_image_times_stage_relevance_transpose(self):
        # the block is exactly Q W^T over the similarity and relevance stages
        rng = np.random.default_rng(3)
        _, q, a = tensors(rng.uniform(size=(6, 5)), rng.uniform(size=(6, 5)))
        w = relevance(similarity(q, a)).data
        np.testing.assert_allclose(ra_apply(q, a).data, q.data @ w.T, atol=1e-12)

    def test_uniform_priority_gives_column_mean(self):
        # every column of A identical -> all inner products along j equal
        # -> W uniform -> every output column is the mean input column
        q_arr = RNG.uniform(size=(5, 4))
        a_arr = np.tile(RNG.uniform(size=(5, 1)), (1, 4))
        _, q, a = tensors(q_arr, a_arr)
        out = ra_apply(q, a).data
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
            _, q, a = tensors(q_arr, a_arr)
            out = ra_apply(q, a).data
            lo = q_arr.min(axis=1, keepdims=True)
            hi = q_arr.max(axis=1, keepdims=True)
            assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_joint_column_permutation_permutes_output(self):
        # permuting the columns of Q and A together permutes S and W on both
        # sides, so the output columns follow the same permutation
        rng = np.random.default_rng(4)
        q_arr, a_arr = rng.uniform(size=(5, 6)), rng.uniform(size=(5, 6))
        perm = rng.permutation(6)
        out = ra_apply(*tensors(q_arr, a_arr)[1:]).data
        out_perm = ra_apply(*tensors(q_arr[:, perm], a_arr[:, perm])[1:]).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-12)


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
    (lambda t: ra_apply(_ones(t, 8, 8), _ones(t, 6, 8)),
     r"similarity: shapes \(8, 8\) and \(6, 8\) differ"),
    (lambda t: ra_apply(_ones(t, 2, 2, 2), _ones(t, 2, 2, 2)), "similarity: expected 2D"),
], ids=["similarity-3d", "relevance-not-square", "ra_apply-shapes", "ra_apply-3d"])
def test_refusal_names_its_operation(op, fragment):
    with pytest.raises(ShapeError, match=fragment):
        op(Tape(np.float64))


# every parameter of the block's public functions; a knob must be added here on purpose
PARAMETERS = {
    similarity: ["q", "a"],
    relevance: ["s"],
    ra_apply: ["q", "a"],
}


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_block_functions_take_only_their_operands(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn]
