"""Acceptance suite: one test per criterion, one summary line each.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion PASS/FAIL
lines print in the terminal summary.  Criterion 7 trains the full default
recipe and dominates the runtime (about 60 s on two cores); 8 and 9 reuse its run.
"""

import time

import numpy as np
import pytest

from ranet import autodiff as ad
from ranet.autodiff import Tape
from ranet.bayes import bayes_loss, expected_counts, posteriors_from_distances
from ranet.cli import main
from ranet.core import (
    DensityMap,
    GrayImage,
    PointAnnotations,
    load_annotations,
    load_density,
    load_image,
    quantize_image,
    save_annotations,
    save_density,
    save_image,
)
from ranet.datagen import SceneSpec, gen_dataset, load_split
from ranet.evaluate import EvalReport, count_metrics, evaluate_scenes
from ranet.network import NetConfig, full_forward, init_params
from ranet.region_aware import ra_apply, relevance, similarity
from ranet.training import TrainConfig, load_checkpoint, save_checkpoint, train

from conftest import ACCEPTANCE_RESULTS
from oracles import bf_ra, bf_relevance, bf_similarity, check_gradient, rel_err

RNG = np.random.default_rng(808)


def record(number: int, ok: bool, detail: str):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_RESULTS.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    """The default synthetic corpus: 200 train / 50 test, 64x64, heads 1-15."""
    root = tmp_path_factory.mktemp("corpus")
    manifest = gen_dataset(SceneSpec(seed=0), 200, 50, root)
    return manifest


@pytest.fixture(scope="module")
def trained(default_corpus):
    """One default-recipe training run shared by criteria 7 and 8."""
    scenes = load_split(default_corpus, "train")
    cfg = TrainConfig(seed=0)
    t0 = time.perf_counter()
    params, history = train(scenes, cfg)
    elapsed = time.perf_counter() - t0
    return params, cfg, history, elapsed, default_corpus


class TestCriterion1:
    def test_region_aware_worked_example(self):
        t0 = time.perf_counter()
        tape = Tape(np.float64)
        out = ra_apply(tape.tensor(np.eye(2)), tape.tensor(np.eye(2)))
        expected = np.array([[0.7311, 0.2689], [0.2689, 0.7311]])
        err = np.abs(out.data - expected).max()
        elapsed = time.perf_counter() - t0
        record(1, err < 1e-4 and elapsed < 1.0,
               f"identity worked example, max err {err:.2e}, {elapsed:.3f}s")


class TestCriterion2:
    def test_oracle_equivalence_100_random(self):
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(RNG.integers(1, 17))
            m = int(RNG.integers(1, 17))
            q_arr = RNG.uniform(size=(n, m))
            a_arr = RNG.uniform(size=(n, m))
            tape = Tape(np.float64)
            q, a = tape.tensor(q_arr), tape.tensor(a_arr)
            s = similarity(q, a)
            w = relevance(s)
            o = ra_apply(q, a)
            worst = max(
                worst,
                np.abs(s.data - bf_similarity(q_arr, a_arr)).max(),
                np.abs(w.data - bf_relevance(bf_similarity(q_arr, a_arr))).max(),
                np.abs(o.data - bf_ra(q_arr, a_arr)).max(),
            )
        elapsed = time.perf_counter() - t0
        record(2, worst < 1e-9 and elapsed < 10.0,
               f"100 brute-force equivalences, worst abs err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3:
    def test_row_stochastic_and_convex_combination_1000(self):
        t0 = time.perf_counter()
        worst_sum = 0.0
        convex_ok = True
        for _ in range(1000):
            n = int(RNG.integers(1, 13))
            m = int(RNG.integers(1, 13))
            q_arr = RNG.uniform(size=(n, m))
            a_arr = RNG.uniform(size=(n, m))
            tape = Tape(np.float64)
            w = relevance(similarity(tape.tensor(q_arr), tape.tensor(a_arr))).data
            worst_sum = max(worst_sum, np.abs(w.sum(axis=1) - 1.0).max())
            if not (w.min() > 0.0 and w.max() < 1.0 or m == 1):
                convex_ok = False
            o = ra_apply(tape.tensor(q_arr), tape.tensor(a_arr)).data
            lo = q_arr.min(axis=1, keepdims=True) - 1e-12
            hi = q_arr.max(axis=1, keepdims=True) + 1e-12
            if not ((o >= lo).all() and (o <= hi).all()):
                convex_ok = False
        elapsed = time.perf_counter() - t0
        record(3, worst_sum < 1e-9 and convex_ok and elapsed < 10.0,
               f"1000 stochasticity/convexity checks, worst row-sum err {worst_sum:.2e}, {elapsed:.1f}s")


class TestCriterion4:
    def test_bayes_worked_example(self):
        t0 = time.perf_counter()
        density = np.zeros((2, 2))
        density[0, 0] = 1.0
        tape = Tape(np.float64)
        loss = bayes_loss(tape.tensor(density), np.array([[0.0, 0.0]]),
                          delta=1.0, d_ratio=0.5)  # d = 0.5 * 2 = 1 px
        err = abs(float(loss.data) - 0.75508)
        elapsed = time.perf_counter() - t0
        record(4, err < 1e-4 and elapsed < 1.0,
               f"2x2 worked example loss {float(loss.data):.5f}, err {err:.2e}, {elapsed:.3f}s")


class TestCriterion5:
    def test_posterior_normalization_and_conservation_200(self):
        t0 = time.perf_counter()
        worst_col = 0.0
        worst_cons = 0.0
        for _ in range(200):
            h = int(RNG.integers(2, 33))
            w = int(RNG.integers(2, 33))
            n = int(RNG.integers(1, 51))
            heads = np.column_stack(
                [RNG.uniform(0, w - 1, size=n), RNG.uniform(0, h - 1, size=n)]
            )
            delta = float(RNG.uniform(0.5, 10.0))
            d = float(RNG.uniform(0.5, 10.0))
            probs = posteriors_from_distances(h, w, heads, delta, d)
            worst_col = max(worst_col, np.abs(probs.sum(axis=0) - 1.0).max())
            density = RNG.uniform(0, 1, size=(h, w))
            per_head, bg = expected_counts(probs, density)
            total = density.sum()
            worst_cons = max(worst_cons, abs(per_head.sum() + bg - total) / total)
        elapsed = time.perf_counter() - t0
        record(5, worst_col < 1e-9 and worst_cons < 1e-6 and elapsed < 30.0,
               f"200 posterior configs, col-sum err {worst_col:.2e}, "
               f"conservation rel err {worst_cons:.2e}, {elapsed:.1f}s")


class TestCriterion6:
    N_TRIALS = 20

    def _unary_suite(self):
        # (name, op, input sampler, magnitude filter to dodge kinks)
        u = RNG.uniform
        return [
            ("softmax_rows", lambda t, x: ad.softmax_rows(x), lambda: RNG.normal(size=(4, 5)), 0.0),
            ("avgpool", lambda t, x: ad.avgpool(x), lambda: u(-1, 1, (2, 6, 6)), 0.0),
            ("adaptive_avgpool", lambda t, x: ad.adaptive_avgpool(x, 3), lambda: u(-1, 1, (2, 7, 7)), 0.0),
            ("upsample_bilinear", lambda t, x: ad.upsample_bilinear(x, 9, 7), lambda: u(-1, 1, (2, 4, 4)), 0.0),
            ("relu", lambda t, x: ad.relu(x), lambda: np.where(u(size=(4, 4)) < 0.5, -1, 1) * u(0.1, 1, (4, 4)), 1e-2),
            ("sigmoid", lambda t, x: ad.sigmoid(x), lambda: RNG.normal(size=(4, 4)), 0.0),
            ("softplus", lambda t, x: ad.softplus(x), lambda: RNG.normal(size=(4, 4)), 0.0),
            ("abs", lambda t, x: ad.abs_val(x), lambda: np.where(u(size=(4, 4)) < 0.5, -1, 1) * u(0.1, 1, (4, 4)), 1e-2),
            ("reshape", lambda t, x: ad.reshape(x, (8, 2)), lambda: RNG.normal(size=(4, 4)), 0.0),
            ("transpose", lambda t, x: ad.transpose(x), lambda: RNG.normal(size=(3, 5)), 0.0),
            ("slice_channels", lambda t, x: ad.slice_channels(x, 1, 3), lambda: u(-1, 1, (4, 3, 3)), 0.0),
        ]

    def _check_unary(self, op, sampler, min_mag):
        worst = 0.0
        for _ in range(self.N_TRIALS):
            x_arr = sampler()
            tape = Tape(np.float64)
            probe = op(tape, tape.tensor(x_arr))
            weights = RNG.uniform(-1, 1, size=probe.shape)

            def f(arr):
                t = Tape(np.float64)
                x = t.tensor(arr, requires_grad=True)
                return float(ad.sum_all(ad.mul(op(t, x), t.tensor(weights))).data)

            t = Tape(np.float64)
            x = t.tensor(x_arr, requires_grad=True)
            ad.backward(ad.sum_all(ad.mul(op(t, x), t.tensor(weights))))
            worst = max(worst, check_gradient(f, x_arr, x.grad, 3, RNG, min_mag=min_mag))
        return worst

    def _check_binary(self, make_loss, shapes):
        worst = 0.0
        for _ in range(self.N_TRIALS):
            arrs = [RNG.normal(size=s) for s in shapes]

            def build(vals):
                t = Tape(np.float64)
                xs = [t.tensor(v, requires_grad=True) for v in vals]
                return t, xs, make_loss(t, xs)

            _, xs, loss = build(arrs)
            ad.backward(loss)
            for i in range(len(arrs)):
                def f(arr, i=i):
                    vals = [a if j != i else arr for j, a in enumerate(arrs)]
                    return float(build(vals)[2].data)

                worst = max(worst, check_gradient(f, arrs[i], xs[i].grad, 2, RNG))
        return worst

    def test_gradient_suite(self):
        t0 = time.perf_counter()
        worst_primitive = 0.0
        # unary primitives
        for name, op, sampler, min_mag in self._unary_suite():
            err = self._check_unary(op, sampler, min_mag)
            worst_primitive = max(worst_primitive, err)
            assert err < 1e-6, f"{name}: rel err {err:.2e}"
        # multi-input primitives
        cot = RNG.normal(size=(3, 2))
        err = self._check_binary(
            lambda t, xs: ad.sum_all(ad.mul(ad.matmul(xs[0], xs[1]), t.tensor(cot))),
            [(3, 4), (4, 2)],
        )
        worst_primitive = max(worst_primitive, err)
        assert err < 1e-6, f"matmul: {err:.2e}"
        err = self._check_binary(
            lambda t, xs: ad.sum_all(ad.mul(xs[0], xs[1])), [(3, 3), (3, 3)]
        )
        worst_primitive = max(worst_primitive, err)
        assert err < 1e-6, f"mul: {err:.2e}"
        err = self._check_binary(
            lambda t, xs: ad.sum_all(ad.mul(ad.add(xs[0], xs[1]), xs[1])), [(4,), (4,)]
        )
        worst_primitive = max(worst_primitive, err)
        assert err < 1e-6, f"add: {err:.2e}"
        cot_cat = RNG.normal(size=(5, 2, 2))
        err = self._check_binary(
            lambda t, xs: ad.sum_all(
                ad.mul(ad.concat_channels([xs[0], xs[1]]), t.tensor(cot_cat))
            ),
            [(2, 2, 2), (3, 2, 2)],
        )
        worst_primitive = max(worst_primitive, err)
        assert err < 1e-6, f"concat: {err:.2e}"
        cot_conv = RNG.normal(size=(3, 5, 5))
        err = self._check_binary(
            lambda t, xs: ad.sum_all(
                ad.mul(ad.conv2d(xs[0], xs[1], bias=xs[2], dilation=2),
                       t.tensor(cot_conv))
            ),
            [(2, 5, 5), (3, 2, 3, 3), (3,)],
        )
        worst_primitive = max(worst_primitive, err)
        assert err < 1e-6, f"conv2d: {err:.2e}"

        # composites: ra_apply and bayes_loss
        worst_composite = 0.0
        for _ in range(self.N_TRIALS):
            q_arr = RNG.uniform(size=(5, 4))
            a_arr = RNG.uniform(size=(5, 4))

            def build(qv, av):
                t = Tape(np.float64)
                q = t.tensor(qv, requires_grad=True)
                a = t.tensor(av, requires_grad=True)
                return q, a, ad.sum_all(ra_apply(q, a))

            q, a, loss = build(q_arr, a_arr)
            ad.backward(loss)
            fq = lambda v: float(build(v, a_arr)[2].data)
            fa = lambda v: float(build(q_arr, v)[2].data)
            worst_composite = max(
                worst_composite,
                check_gradient(fq, q_arr, q.grad, 2, RNG),
                check_gradient(fa, a_arr, a.grad, 2, RNG),
            )
        params_b = (1.5, 0.3)  # delta, d_ratio
        heads_b = RNG.uniform(0, 3, size=(2, 2))
        for _ in range(self.N_TRIALS):
            density = RNG.uniform(0.05, 1.0, size=(4, 4))

            def build(dv):
                t = Tape(np.float64)
                dmap = t.tensor(dv, requires_grad=True)
                return dmap, bayes_loss(dmap, heads_b, *params_b)

            dmap, loss = build(density)
            ad.backward(loss)
            f = lambda v: float(build(v)[1].data)
            worst_composite = max(
                worst_composite, check_gradient(f, density, dmap.grad, 3, RNG, min_mag=1e-3)
            )
        assert worst_composite < 1e-4, f"composites: {worst_composite:.2e}"

        # end to end: loss o network on 16x16
        cfg = NetConfig(pool_grids=(1, 2), dilation_rates=(1, 2), seed=3)
        bayes = (2.0, 0.15)  # delta, d_ratio
        params = init_params(cfg)
        img = RNG.uniform(0, 1, size=(16, 16))
        heads = np.array([[4.0, 5.0], [11.0, 9.0]])
        res = full_forward(img, heads, params, cfg, *bayes, dtype=np.float64)
        ad.backward(res.loss)
        grads = {k: t.grad for k, t in res.leaves.items() if t.grad is not None}

        def loss_at(p):
            return float(full_forward(img, heads, p, cfg, *bayes, dtype=np.float64).loss.data)

        names = sorted(grads)
        h = 1e-5
        worst_e2e = 0.0
        trials = 0
        for name in (names * 3):
            if trials >= self.N_TRIALS:
                break
            g = grads[name]
            order = np.argsort(np.abs(g).ravel())[::-1]
            idx = np.unravel_index(int(order[int(RNG.integers(0, min(4, order.size)))]), g.shape)
            if abs(g[idx]) < 1e-7:
                continue
            pp = {k: v.copy().astype(np.float64) for k, v in params.items()}
            pp[name][idx] += h
            up = loss_at(pp)
            pp[name][idx] -= 2 * h
            down = loss_at(pp)
            worst_e2e = max(worst_e2e, rel_err((up - down) / (2 * h), float(g[idx])))
            trials += 1
        assert trials >= self.N_TRIALS
        assert worst_e2e < 1e-3, f"end-to-end: {worst_e2e:.2e}"

        elapsed = time.perf_counter() - t0
        record(6, elapsed < 300.0,
               f"gradients: primitives {worst_primitive:.1e} (<1e-6), composites "
               f"{worst_composite:.1e} (<1e-4), end-to-end {worst_e2e:.1e} (<1e-3), {elapsed:.0f}s")


class TestCriterion7:
    def test_learning_efficacy(self, trained):
        params, cfg, history, elapsed, manifest = trained
        train_scenes = load_split(manifest, "train")
        test_scenes = load_split(manifest, "test")
        mean_count = float(np.mean([len(s.annotations) for s in train_scenes]))
        const_mae = float(
            np.mean([abs(len(s.annotations) - mean_count) for s in test_scenes])
        )
        report = evaluate_scenes(test_scenes, params, cfg.net)
        ratio = report.mae / const_mae
        record(7, ratio <= 0.5 and elapsed <= 900.0,
               f"test MAE {report.mae:.3f} vs constant-predictor {const_mae:.3f} "
               f"(ratio {ratio:.3f} <= 0.5), trained in {elapsed:.0f}s")


class TestCriterion8:
    def test_feedback_signal_every_epoch(self, trained):
        _, _, history, _, _ = trained
        norms = [stats.pass1_grad_min for stats in history]
        record(8, len(norms) == 30 and all(v > 0.0 for v in norms),
               f"pass-1 gradient norm min over 30 epochs: {min(norms):.2e} > 0")


class TestCriterion9:
    def test_cli_train_determinism_and_eval_reproducibility(self, tmp_path, capsys):
        data = tmp_path / "data"
        rc = main(["gen", "--out", str(data), "--seed", "4", "--train", "12",
                   "--test", "4", "--width", "32", "--height", "32", "--max-heads", "6"])
        assert rc == 0
        flags = ["train", "--data", str(data), "--seed", "7", "--epochs", "2",
                 "--batch", "4", "--crop", "32", "--delta", "4.0", "--d-ratio", "0.25",
                 "--single-thread"]
        a, b = tmp_path / "a.rack", tmp_path / "b.rack"
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        identical = a.read_bytes() == b.read_bytes()
        capsys.readouterr()  # drop the training telemetry

        eval_flags = ["eval", "--ckpt", str(a), "--data", str(data), "--split", "test"]
        assert main(eval_flags) == 0
        first = capsys.readouterr().out
        assert main(eval_flags) == 0
        second = capsys.readouterr().out
        record(9, identical and first == second and "MAE=" in first,
               f"byte-identical checkpoints: {identical}; eval reprints identically: "
               f"{first.strip().splitlines()[-1]!r}")


class TestCriterion10:
    def test_metric_collapse(self):
        mae1, mse1 = count_metrics([4.25], [7.0])
        n1_ok = mae1 == mse1 == abs(4.25 - 7.0)
        mae2, mse2 = count_metrics([3.0, 7.0], [3.0, 5.0])
        hand_ok = mae2 == pytest.approx(1.0, abs=1e-12) and mse2 == pytest.approx(
            1.41421, abs=1e-5
        )
        report = EvalReport((3.0, 7.0), (3.0, 5.0))
        printed = report.summary()
        record(10, n1_ok and hand_ok and printed == "N=2 MAE=1.000000 MSE=1.414214",
               f"N=1 collapse exact; [3,7] vs [3,5] -> {printed}")


class TestCriterion11:
    def test_all_formats_round_trip(self, tmp_path):
        t0 = time.perf_counter()
        rng = np.random.default_rng(17)

        img = GrayImage(rng.uniform(0, 1, size=(24, 17)))
        p = tmp_path / "img.pgm"
        save_image(img, p)
        img_ok = np.array_equal(load_image(p).pixels, quantize_image(img).pixels)
        p2 = tmp_path / "img2.pgm"
        save_image(load_image(p), p2)
        img_ok = img_ok and p.read_bytes() == p2.read_bytes()

        dm = DensityMap(rng.uniform(0, 4, size=(9, 11)).astype(np.float32))
        q = tmp_path / "d.radm"
        save_density(dm, q)
        dens_ok = load_density(q).values.tobytes() == dm.values.tobytes()

        ann = PointAnnotations(rng.uniform(0, 20, size=(7, 2)))
        r = tmp_path / "a.json"
        save_annotations(ann, r)
        ann_ok = np.array_equal(load_annotations(r).points, ann.points)

        cfg = TrainConfig(net=NetConfig(pool_grids=(1, 2), dilation_rates=(1, 2), seed=5))
        params = init_params(cfg.net)
        s = tmp_path / "m.rack"
        save_checkpoint(params, cfg, s)
        loaded, cfg2 = load_checkpoint(s)
        ckpt_ok = cfg2 == cfg and all(
            loaded[k].tobytes() == params[k].tobytes() for k in params
        ) and list(loaded) == list(params)

        elapsed = time.perf_counter() - t0
        record(11, img_ok and dens_ok and ann_ok and ckpt_ok and elapsed < 5.0,
               f"PGM/RADM/annotations/RACK round trips bit-exact, {elapsed:.2f}s")
