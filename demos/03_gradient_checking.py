#!/usr/bin/env python3
"""Verify tape gradients against central finite differences.

Every primitive on the tape carries one hand-derived backward rule per
operand (its vector-Jacobian product); this script spot-checks a few of
them and then the whole two-pass network, the same way the test suite does
it, with the arithmetic in float64.
"""

import numpy as np

from ranet import autodiff as ad
from ranet.autodiff import Tape
from ranet.network import NetConfig, full_forward, init_params


def central_diff(f, x, index, h=1e-5):
    xp, xm = x.copy(), x.copy()
    xp[index] += h
    xm[index] -= h
    return (f(xp) - f(xm)) / (2 * h)


rng = np.random.default_rng(11)

rhs = rng.normal(size=(6, 3))
kernel = rng.normal(size=(2, 1, 3, 3))

print("primitive spot checks (worst relative error over 5 coordinates):")
for name, build in [
    ("matmul", lambda t, x: ad.matmul(x, t.tensor(rhs))),
    ("softmax_rows", lambda t, x: ad.softmax_rows(x)),
    ("conv2d d=2", lambda t, x: ad.conv2d(
        ad.reshape(x, (1, 6, 6)), t.tensor(kernel), dilation=2)),
    ("upsample", lambda t, x: ad.upsample_bilinear(ad.reshape(x, (1, 6, 6)), 11, 9)),
    ("softplus", lambda t, x: ad.softplus(x)),
]:
    x0 = rng.normal(size=(6, 6))
    t0 = Tape(np.float64)
    probe = build(t0, t0.tensor(x0))
    weights = rng.normal(size=probe.shape)

    def scalar(arr):
        t = Tape(np.float64)
        x = t.tensor(arr, requires_grad=True)
        return x, ad.sum_all(ad.mul(build(t, x), t.tensor(weights)))

    x, loss = scalar(x0)
    ad.backward(loss)
    worst = 0.0
    for _ in range(5):
        idx = tuple(rng.integers(0, 6, size=2))
        fd = central_diff(lambda a: float(scalar(a)[1].data), x0, idx)
        g = float(x.grad[idx])
        denom = max(abs(fd), abs(g), 1e-12)
        worst = max(worst, abs(fd - g) / denom)
    print(f"  {name:12s} {worst:.2e}")

print()
print("end to end: d(loss)/d(parameter) through both passes on a 16x16 input")
cfg = NetConfig(pool_grids=(1, 2), dilation_rates=(1, 2), seed=1)
delta, d_ratio = 2.0, 0.2
params = init_params(cfg)
img = rng.uniform(0, 1, size=(16, 16))
heads = np.array([[5.0, 4.0], [12.0, 11.0]])

res = full_forward(img, heads, params, cfg, delta, d_ratio, dtype=np.float64)
ad.backward(res.loss)

for name in ("bb.block1.k", "ctx.fuse.k", "aspp.rate2.k", "dec.out.b", "head.out.k"):
    g = res.leaves[name].grad
    idx = np.unravel_index(int(np.abs(g).argmax()), g.shape)

    def loss_at(p):
        return float(full_forward(img, heads, p, cfg, delta, d_ratio, dtype=np.float64).loss.data)

    pp = {k: v.copy().astype(np.float64) for k, v in params.items()}
    pp[name][idx] += 1e-5
    up = loss_at(pp)
    pp[name][idx] -= 2e-5
    down = loss_at(pp)
    fd = (up - down) / 2e-5
    print(f"  {name:14s} autodiff {g[idx]:+.6e}  finite-diff {fd:+.6e}")
