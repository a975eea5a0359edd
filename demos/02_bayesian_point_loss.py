#!/usr/bin/env python3
"""The Bayesian point-supervision loss, from posteriors to gradients.

Instead of regressing a smoothed density target, each pixel receives a
posterior over "belongs to head n" / "is background", and the loss asks
the posterior-weighted density mass to hit 1 per head and 0 for the
background band.  Posteriors come straight from pixel-to-head distances,
normalized in log space so that far pixels cannot underflow.
"""

import numpy as np

from ranet import autodiff as ad
from ranet.autodiff import Tape
from ranet.bayes import bayes_loss, expected_counts, posteriors_from_distances

np.set_printoptions(precision=5, suppress=True)

# Tiny worked example: 2x2 grid, one head at the origin, delta = d = 1.
# Columns are the grid's pixels in row-major order: column j is (j % 2, j // 2).
head = np.array([[0.0, 0.0]])
probs = posteriors_from_distances(2, 2, head, delta=1.0, d=1.0)
ys, xs = np.divmod(np.arange(4.0), 2)
print("pixel order (x, y):", list(zip(xs.tolist(), ys.tolist())))
print("distance to head:  ", np.hypot(xs - head[0, 0], ys - head[0, 1]))
print("head posterior row:", probs[0])
print("bg posterior row:  ", probs[-1])
print("column sums:       ", probs.sum(axis=0))

density = np.zeros((2, 2))
density[0, 0] = 1.0
per_head, bg_count = expected_counts(probs, density)
print(f"expected head count {per_head[0]:.5f}, background count {bg_count:.5f}")

tape = Tape(np.float64)
dmap = tape.tensor(density, requires_grad=True)
loss = bayes_loss(dmap, head, delta=1.0, d_ratio=0.5)
print(f"loss = |1 - {per_head[0]:.5f}| + |0 - {bg_count:.5f}| = {float(loss.data):.5f}")

ad.backward(loss)
print("gradient over the density grid:\n", dmap.grad)
print()

# On a bigger grid the sign structure of the gradient is the interesting
# part: pixels near heads pull density up, the background pushes it down.
h = w = 24
heads = np.array([[6.0, 6.0], [17.0, 14.0], [9.0, 18.0]])
delta, d_ratio = 3.0, 0.25
probs = posteriors_from_distances(h, w, heads, delta, d_ratio * min(h, w))
tape = Tape(np.float64)
dmap = tape.tensor(np.full((h, w), 0.01), requires_grad=True)
ad.backward(bayes_loss(dmap, heads, delta, d_ratio))
force = -dmap.grad  # direction that REDUCES the loss
up = force > 0
print(f"{up.mean():.0%} of pixels pull density upward; they cluster at the heads:")
for hx, hy in heads:
    print(f"  head ({hx:.0f},{hy:.0f}) -> upward force {force[int(hy), int(hx)]:+.3f}")
print(f"  far corner (23,23)  -> force {force[23, 23]:+.3f}")

# Count conservation: posterior columns are distributions, so expected
# counts always split the total mass exactly.
density = np.random.default_rng(3).uniform(0, 0.2, size=(h, w))
per_head, bg_count = expected_counts(probs, density)
print(f"sum of expected counts {per_head.sum() + bg_count:.9f}"
      f" == total mass {density.sum():.9f}")
