#!/usr/bin/env python3
"""Walk through the column-relevance block on a small synthetic pair.

The block compares every image column against every priority-map column by
inner product, softmax-normalizes each row of that similarity matrix, and
rebuilds the image as relevance-weighted mixtures of its own columns.
Columns that the priority map flags as interesting end up dominating the
mixtures, which is how the enhancement injects global context.
"""

import numpy as np

from ranet import autodiff as ad
from ranet.autodiff import Tape
from ranet.region_aware import ra_apply, relevance, similarity

np.set_printoptions(precision=4, suppress=True)

# The textbook case first: image = priority map = 2x2 identity.
tape = Tape(np.float64)
eye = tape.tensor(np.eye(2))
s = similarity(eye, eye)
w = relevance(s)
out = ra_apply(eye, eye)
print("similarity of identity columns:\n", s.data)
print("relevance weights (softmax rows):\n", w.data)
print("enhanced output:\n", out.data)
print("closed form e/(e+1):", np.e / (np.e + 1))
print()

# Now something with structure: a bright vertical band at columns 5..7
# and a priority map that highlights exactly that band.
rng = np.random.default_rng(7)
h, wd = 16, 12
image = rng.uniform(0.0, 0.25, size=(h, wd))
image[:, 5:8] += 0.7
image = image.clip(0, 1)
priority = np.full((h, wd), 0.1)
priority[:, 5:8] = 0.9

enhanced = ra_apply(tape.tensor(image), tape.tensor(priority)).data
print("column means before:", image.mean(axis=0))
print("column means after: ", enhanced.mean(axis=0))

# Every output value stays inside the range of its own row: the relevance
# rows are convex weights, so no value can escape the input envelope.
lo = image.min(axis=1, keepdims=True)
hi = image.max(axis=1, keepdims=True)
print("convex-combination envelope holds:",
      bool(((enhanced >= lo - 1e-12) & (enhanced <= hi + 1e-12)).all()))

# A trained pass 1 can saturate its priority map to 1 everywhere. Then every
# priority column is the same, the similarities no longer depend on the
# priority column, each relevance row is uniform, and the block returns each
# row's mean, to rounding: the enhanced image no longer says where the crowd is.
row_mean = image.mean(axis=1, keepdims=True)
for name, prio in (("band priority", priority), ("all-ones priority", np.ones((h, wd)))):
    spread = np.abs(ra_apply(tape.tensor(image), tape.tensor(prio)).data - row_mean).max()
    print(f"{name:>17}: max deviation from the row-mean blend {spread:.3g}")

# The block stays differentiable end to end; gradients reach both inputs.
tape = Tape(np.float64)
q = tape.tensor(image, requires_grad=True)
a = tape.tensor(priority, requires_grad=True)
loss = ra_apply(q, a)
ad.backward(ad.sum_all(loss))
print("gradient norms: image", float(np.linalg.norm(q.grad)),
      " priority", float(np.linalg.norm(a.grad)))
