"""Shape/range contracts, determinism, and end-to-end differentiability."""

import tracemalloc

import numpy as np
import pytest

from ranet import autodiff as ad
from ranet import datagen
from ranet.autodiff import ShapeError, Tape, Tensor
from ranet.core import FormatError, GrayImage
from ranet import network
from ranet.network import (
    NetConfig,
    bind,
    full_forward,
    init_params,
    pass1_param_names,
    padded_shape,
    predict,
)
from ranet.region_aware import ra_apply
from ranet.training import TrainConfig

from oracles import ORACLE_TOL, rel_err

RNG = np.random.default_rng(2718)

SMALL = NetConfig(pool_grids=(1, 2), dilation_rates=(1, 2), seed=3)
BAYES = (2.0, 0.15)  # delta, d_ratio


def random_image(h=16, w=16):
    return RNG.uniform(0.0, 1.0, size=(h, w))


def two_conv_pass2(x, p):
    """pass2 with head.feat and head.att run as two separate conv2d calls."""
    _, h, w = x.shape
    f2, f3, _, f5 = network._backbone(x, p)
    d1 = network._fuse(p, "head.fuse1", f3, f5)
    d2 = network._fuse(p, "head.fuse2", f2, d1)
    feat = ad.relu(network._conv(d2, p, "head.feat"))
    att = ad.sigmoid(network._conv(d2, p, "head.att"))
    density = ad.softplus(network._conv(ad.mul(feat, att), p, "head.out"))
    return ad.upsample_bilinear(density, h, w)


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params(SMALL)
        b = init_params(SMALL)
        assert a.keys() == b.keys()
        for k in a:
            assert a[k].tobytes() == b[k].tobytes()

    def test_different_seeds_differ(self):
        a = init_params(NetConfig(seed=1))
        b = init_params(NetConfig(seed=2))
        assert any(not np.array_equal(a[k], b[k]) for k in a if k.endswith(".k"))

    def test_finite_and_bounded(self):
        params = init_params(NetConfig(seed=5))
        for arr in params.values():
            assert np.all(np.isfinite(arr))
            assert np.abs(arr).max() < 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetConfig(pool_grids=(0,))

    @pytest.mark.parametrize("rates", [(), (0,), (1, -2)])
    def test_dilation_rates_need_one_positive_rate(self, rates):
        with pytest.raises(ValueError, match="dilation rate"):
            NetConfig(dilation_rates=rates)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed"):
            NetConfig(seed=-1)

    @pytest.mark.parametrize("field, kwargs", [
        ("pool_grids", dict(pool_grids=(2, 2))),
        ("dilation_rates", dict(dilation_rates=(1, 1))),
        ("pool_grids", dict(pool_grids=(1, 2, 1, 6))),
    ])
    def test_repeated_grid_or_rate_is_refused(self, field, kwargs):
        # two branches of one grid or rate would share a single weight tensor
        with pytest.raises(ValueError, match=f"{field} must not repeat"):
            NetConfig(**kwargs)

    def test_config_round_trips_as_dict(self):
        cfg = NetConfig(pool_grids=(1, 2), seed=9)
        assert NetConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_dict_with_an_unknown_key_is_format_error(self):
        doc = {**NetConfig().to_dict(), "ra_temprature": 5.0}
        with pytest.raises(FormatError, match="ra_temprature"):
            NetConfig.from_dict(doc)


class TestPass1:
    def test_output_shape_and_range_64(self):
        cfg = NetConfig(seed=1)
        params = init_params(cfg)
        prio = predict(GrayImage(random_image(64, 64)), params, cfg)[1]
        assert (prio.height, prio.width) == (64, 64)
        assert prio.pixels.min() >= 0.0 and prio.pixels.max() <= 1.0

    def test_rectangular_input(self):
        cfg = NetConfig(seed=1)
        params = init_params(cfg)
        prio = predict(GrayImage(random_image(128, 64)), params, cfg)[1]
        assert (prio.height, prio.width) == (128, 64)

    def test_deterministic(self):
        params = init_params(SMALL)
        img = GrayImage(random_image())
        a = predict(img, params, SMALL)[1]
        b = predict(img, params, SMALL)[1]
        assert a.pixels.tobytes() == b.pixels.tobytes()

    def test_indivisible_side_rejected_with_padding_hint(self):
        params = init_params(SMALL)
        with pytest.raises(ShapeError, match="24x24"):
            full_forward(random_image(20, 24), np.zeros((0, 2)), params, SMALL, *BAYES)

    def test_grid_exceeding_feature_map_runs(self):
        cfg = NetConfig(seed=1)  # grids up to 6, but 16x16 input -> 2x2 features
        prio = predict(GrayImage(random_image()), init_params(cfg), cfg)[1]
        assert (prio.height, prio.width) == (16, 16)

    def test_stride_bookkeeping(self):
        from ranet.network import _backbone

        params = init_params(SMALL)
        tape = Tape(np.float32)
        leaves = bind(tape, params, requires_grad=False)
        feats = _backbone(tape.tensor(np.zeros((1, 32, 48))), leaves)
        assert [f.shape[1:] for f in feats] == [(16, 24), (8, 12), (4, 6), (4, 6)]


class TestPaddedShape:
    @pytest.mark.parametrize("h, w, want", [
        (20, 20, (24, 24)),
        (30, 30, (32, 32)),
        (44, 52, (48, 56)),
        (64, 64, (64, 64)),
        (20, 24, (24, 24)),
        (1, 9, (16, 16)),
        (16, 16, (16, 16)),
        (17, 8, (24, 16)),
    ])
    def test_cases(self, h, w, want):
        assert padded_shape(h, w) == want

    def test_default_grids_accept_the_smallest_sizes(self):
        cfg = NetConfig(seed=1)  # grids up to 6 on context maps from 2x2 up
        params = init_params(cfg)
        for shape in ((16, 16), (24, 32), (48, 48)):
            dmap, prio = predict(GrayImage(random_image(*shape)), params, cfg)
            assert dmap.values.shape == prio.pixels.shape == shape

    def test_forward_accepts_exactly_the_padded_sizes(self):
        cfg = NetConfig(pool_grids=(1, 3), seed=1)
        params = init_params(cfg)
        for shape in ((24, 32), (16, 24)):
            dmap, _ = predict(GrayImage(random_image(*shape)), params, cfg)
            assert (dmap.height, dmap.width) == shape
        with pytest.raises(ShapeError, match=r"multiples of 8 and at least 16.*24x24"):
            full_forward(random_image(20, 24), np.zeros((0, 2)), params, cfg, *BAYES)

    @pytest.mark.parametrize("shape", [(20, 24), (30, 26)], ids=["20x24", "30x26"])
    def test_predict_pads_any_size_and_crops_back(self, shape):
        params = init_params(SMALL)
        img = random_image(*shape)
        dmap, prio = predict(GrayImage(img), params, SMALL)
        assert dmap.values.shape == prio.pixels.shape == shape
        (h, w), (ph, pw) = shape, padded_shape(*shape)
        padded = np.pad(img, ((0, ph - h), (0, pw - w)), mode="reflect")
        want_d, want_p = predict(GrayImage(padded), params, SMALL)
        assert dmap.values.tobytes() == want_d.values[:h, :w].tobytes()
        assert prio.pixels.tobytes() == want_p.pixels[:h, :w].tobytes()


class TestFeedback:
    def test_width_one_collapse(self):
        tape = Tape(np.float64)
        col = tape.tensor(RNG.uniform(size=(9, 1)))
        prio = tape.tensor(RNG.uniform(size=(9, 1)))
        np.testing.assert_allclose(
            ra_apply(col, prio).data, col.data, atol=1e-12
        )

    def test_zero_image_gives_zero(self):
        tape = Tape(np.float64)
        z = tape.tensor(np.zeros((6, 6)))
        prio = tape.tensor(RNG.uniform(size=(6, 6)))
        np.testing.assert_array_equal(ra_apply(z, prio).data, 0.0)

    def test_delegates_bit_for_bit(self, monkeypatch):
        # the forward pass enhances the image itself with ra_apply, on its operands alone
        calls = []

        def recording(*args, **kwargs):
            out = ra_apply(*args, **kwargs)
            calls.append((args, kwargs, out.data.copy()))
            return out

        monkeypatch.setattr(network, "ra_apply", recording)
        img = GrayImage(random_image())
        predict(img, init_params(SMALL), SMALL, dtype=np.float64)
        [((q, a), kwargs, via_net)] = calls
        assert kwargs == {}
        assert q.data.tobytes() == img.pixels.astype(np.float64).tobytes()
        tape = Tape(np.float64)
        direct = ra_apply(tape.tensor(q.data), tape.tensor(a.data)).data
        assert via_net.tobytes() == direct.tobytes()


class TestPass2AndFullForward:
    def test_density_shape_and_nonnegative(self):
        params = init_params(SMALL)
        res = full_forward(random_image(), np.zeros((0, 2)), params, SMALL, *BAYES)
        assert res.density.shape == (16, 16)
        assert res.density.data.min() >= 0.0

    def test_loss_finite_nonnegative_on_random_init(self):
        params = init_params(SMALL)
        heads = RNG.uniform(0, 15, size=(3, 2))
        res = full_forward(random_image(), heads, params, SMALL, *BAYES)
        assert np.isfinite(res.loss.data) and float(res.loss.data) >= 0.0

    def test_identical_calls_identical_loss(self):
        params = init_params(SMALL)
        img = random_image()
        heads = RNG.uniform(0, 15, size=(2, 2))
        l1 = full_forward(img, heads, params, SMALL, *BAYES).loss.data
        l2 = full_forward(img, heads, params, SMALL, *BAYES).loss.data
        assert l1.tobytes() == l2.tobytes()

    def test_predict_matches_full_forward(self):
        cfg = NetConfig(seed=7)
        params = init_params(cfg)
        img = GrayImage(random_image(64, 64))
        dm, pm = predict(img, params, cfg)
        res = full_forward(img.pixels, np.zeros((0, 2)), params, cfg, *BAYES)
        # one forward underneath both: the same float32 values, bit for bit
        assert dm.values.tobytes() == res.density.data.astype(np.float64).tobytes()
        assert pm.pixels.tobytes() == res.priority.data.tobytes()
        assert dm.count >= 0.0

    def test_heads_share_one_convolution(self, monkeypatch):
        # its own generator, so the draws of later tests stay as they were
        rng = np.random.default_rng(16)
        params = init_params(SMALL)
        x_arr = rng.uniform(0.0, 1.0, size=(1, 16, 16))
        cot = rng.normal(size=x_arr.shape)
        heads = [f"head.{h}.{t}" for h in ("feat", "att") for t in ("k", "b")]
        runs = []
        for run in (network.pass2, two_conv_pass2):
            tape = Tape(np.float64)
            leaves = bind(tape, params)
            density = run(tape.tensor(x_arr), leaves)
            ad.backward(ad.sum_all(ad.mul(density, tape.tensor(cot))))
            runs.append((density.data, {name: leaves[name].grad for name in heads}))
        (shared, shared_grads), (split, split_grads) = runs
        assert shared.tobytes() == split.tobytes()
        for name in heads:
            np.testing.assert_allclose(shared_grads[name], split_grads[name],
                                       rtol=ORACLE_TOL, atol=ORACLE_TOL, err_msg=name)

        calls = []
        conv2d = ad.conv2d
        monkeypatch.setattr(ad, "conv2d", lambda *a, **kw: calls.append(1) or conv2d(*a, **kw))
        cfg = NetConfig()
        predict(GrayImage(rng.uniform(0.0, 1.0, size=(64, 64))), init_params(cfg), cfg)
        # 17 in pass 1 (4 grids, 4 rates) and 8 in pass 2, whose heads share one
        assert len(calls) == 25

    def test_feedback_path_carries_signal(self):
        params = init_params(SMALL)
        heads = RNG.uniform(0, 15, size=(4, 2))
        res = full_forward(random_image(), heads, params, SMALL, *BAYES)
        ad.backward(res.loss)
        norms = {
            name: float(np.linalg.norm(res.leaves[name].grad))
            for name in pass1_param_names(SMALL)
            if res.leaves[name].grad is not None
        }
        assert norms, "no priority-path parameter received gradient"
        assert any(v > 0 for v in norms.values())
        # the decoder output layer specifically must see signal
        assert norms["dec.out.k"] > 0


class TestEndToEndGradient:
    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2718)  # its own draws: no other test shifts the probes
        params = init_params(SMALL)
        img = rng.uniform(0.0, 1.0, size=(16, 16))
        heads = np.array([[4.0, 5.0], [11.0, 9.0]])

        def loss_value(p):
            res = full_forward(img, heads, p, SMALL, *BAYES, dtype=np.float64)
            return float(res.loss.data)

        res = full_forward(img, heads, params, SMALL, *BAYES, dtype=np.float64)
        ad.backward(res.loss)
        grads = {k: t.grad for k, t in res.leaves.items() if t.grad is not None}

        def central(name, idx, h):
            pp = {k: v.copy().astype(np.float64) for k, v in params.items()}
            pp[name][idx] += h
            up = loss_value(pp)
            pp[name][idx] -= 2 * h
            down = loss_value(pp)
            return (up - down) / (2 * h)

        # For a smooth float64 loss, central differences at h and h/2 agree to
        # O(h^2) truncation plus the loss's roundoff over h; a relu/abs kink
        # inside the interval adds more.
        noise = 8 * np.finfo(np.float64).eps * abs(float(res.loss.data))

        def smooth_fd(name, idx, h):
            """The central difference at h, or None where h and h/2 disagree beyond that."""
            fd = central(name, idx, h)
            return fd if abs(fd - central(name, idx, h / 2)) <= 1e-6 * abs(fd) + noise / h else None

        names = sorted(grads)
        trials = 0
        worst = 0.0
        name_cycle = [names[i % len(names)] for i in range(96)]
        for name in name_cycle:
            if trials >= 24:
                break
            g = grads[name]
            flat = np.argsort(np.abs(g).ravel())[::-1]
            idx = np.unravel_index(int(flat[int(rng.integers(0, max(1, min(5, flat.size))))]), g.shape)
            if abs(g[idx]) < 1e-7:
                continue
            # h=1e-5 keeps the relu-kink band narrow
            fd = smooth_fd(name, idx, 1e-5)
            if fd is None:  # a kink may lie within 1e-5: probe again 100x closer
                fd = smooth_fd(name, idx, 1e-7)
                if fd is None or noise / 1e-7 > 1e-4 * abs(fd):
                    continue  # kink inside the probe interval, or a difference roundoff hides
            worst = max(worst, rel_err(fd, float(g[idx])))
            trials += 1
        assert trials >= 20
        assert worst < 1e-3, f"worst end-to-end rel err {worst:.2e}"


def test_full_forward_refuses_an_image_that_is_not_2d():
    with pytest.raises(ShapeError, match="expected a 2D image"):
        full_forward(np.zeros((1, 16, 16)), np.zeros((0, 2)), init_params(SMALL), SMALL, *BAYES)


def test_float32_step_runs_on_the_read_only_image_itself():
    # a float32 tape wraps GrayImage.pixels without a copy, so no primitive may write
    # into its input: forward and backward give what they give on a writable copy
    rng = np.random.default_rng(31)  # its own draws: no other test shifts
    img = GrayImage(rng.uniform(0.0, 1.0, size=(32, 32)))
    assert Tape(np.float32).tensor(img.pixels).data is img.pixels
    params, heads = init_params(SMALL), np.array([[4.0, 5.0], [20.0, 27.5]])
    runs = []
    for image in (img.pixels, img.pixels.copy()):
        res = full_forward(image, heads, params, SMALL, *BAYES, dtype=np.float32)
        ad.backward(res.loss)
        runs.append([res.loss.data.tobytes()] + [t.grad.tobytes() for t in res.leaves.values()])
        tape = Tape(np.float32)
        x = tape.tensor(image, requires_grad=True)  # the input's own gradient runs too
        ad.backward(ad.sum_all(network.forward(x, bind(tape, params), SMALL)[1]))
        runs[-1].append(x.grad.tobytes())
    assert not img.pixels.flags.writeable
    assert runs[0] == runs[1]


def _held_by(fn):
    """fn, and everything its closure cells and defaults hold, nested functions
    and containers followed."""
    seen, stack = set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__code__"):
            stack.extend(obj.__defaults__ or ())
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())


class TestTapeSaving:
    """The tape holds gradient slots, and each vjp only the arrays it reads."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_record_holds_a_tensor(self, dtype):
        rng = np.random.default_rng(27)
        cfg = NetConfig()
        heads = rng.uniform(0, 31, size=(5, 2))
        res = full_forward(rng.uniform(0.0, 1.0, size=(32, 32)), heads, init_params(cfg), cfg,
                           *BAYES, dtype=dtype)
        records = res.loss.tape._records
        assert len(records) > 90
        functions = 0
        for out, edges in records:
            assert not isinstance(out, Tensor)
            for node, vjp in edges:
                assert not isinstance(node, Tensor)
                for obj in _held_by(vjp):
                    assert not isinstance(obj, Tensor), f"a vjp closure holds a Tensor: {vjp}"
                    functions += hasattr(obj, "__code__")
        # the walk reached nested functions (conv2d's widened), not only the vjps
        assert functions > sum(len(edges) for _, edges in records)

    def test_tape_of_a_64_crop_holds_at_most_2_mib(self):
        # A record keeps only what its vjp reads: conv outputs ahead of a relu,
        # concatenations, upsamples and pools are freed by the forward.
        spec = datagen.SceneSpec(min_heads=8, max_heads=8)
        scene = datagen.gen_scene(spec, 0)
        cfg, train = NetConfig(), TrainConfig()
        params = init_params(cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = full_forward(scene.image.pixels, scene.annotations.points, params, cfg,
                               train.delta, train.d_ratio)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(scene.annotations) == 8 and res.loss.tape._records
        assert held <= 2.0 * 2**20, f"the tape holds {held / 2**20:.2f} MiB"


def _predict_peak_bytes(side, dtype):
    cfg = NetConfig()
    params = init_params(cfg)
    image = GrayImage(np.random.default_rng(29).uniform(0.0, 1.0, size=(side, side)))
    tracemalloc.start()
    try:
        predict(image, params, cfg, dtype)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPredictMemory:
    """conv2d multiplies at most autodiff.COLUMN_BUDGET bytes of an im2col matrix at once."""

    @pytest.mark.parametrize(("side", "dtype", "limit_mib"), [
        (256, np.float64, 24),  # 30.4 MiB with the whole 18 MiB heads column matrix
        (512, np.float32, 40),  # 60.1 MiB with it
    ], ids=["256-f64", "512-f32"])
    def test_peak(self, side, dtype, limit_mib):
        peak = _predict_peak_bytes(side, dtype)
        assert peak <= limit_mib * 2**20, f"predict peaked at {peak / 2**20:.1f} MiB"

    def test_a_256_float32_predict_is_never_split(self, monkeypatch):
        # Splitting the products of the float32 256^2 predict changes its heap
        # pattern, and glibc then trims the heap after every call: a budget
        # must hold its largest column matrix whole.
        shapes = []
        conv2d = ad.conv2d
        monkeypatch.setattr(ad, "conv2d", lambda x, k, *a, **kw:
                            shapes.append((x.shape, k.shape)) or conv2d(x, k, *a, **kw))
        cfg = NetConfig()
        predict(GrayImage(np.zeros((256, 256))), init_params(cfg), cfg, np.float32)
        col_bytes = [C * kh * kw * H * W * 4 if kh * kw > 1 else 0
                     for (C, H, W), (_, _, kh, kw) in shapes]
        assert max(col_bytes) <= ad.COLUMN_BUDGET
