"""Bayesian point-supervision loss for density maps.

Each pixel of the density map's own H x W lattice, at integer (x, y) and
taken in row-major order, gets a posterior over labels {head_1..head_N,
background}; the map's shape alone fixes the pixel set.  Foreground
likelihoods are isotropic Gaussians around the annotated points; the
background likelihood places a virtual band at distance d from the nearest
head.  With a uniform label prior, posteriors reduce to a per-pixel
normalization of the likelihoods.  Expected counts are posterior-weighted
density sums, and the loss drives each head's expected count to one and the
background's to zero with an absolute-value penalty.

Posterior computation happens in log space with a per-pixel max shift, so
distant pixels cannot underflow every likelihood to zero.  The Gaussian
prefactor 1/(sqrt(2 pi) delta) is common to all labels and cancels.  The
posteriors are built in the precision of the tape that consumes them:
float64 for verification, float32 for training, which halves their one
(N+1) x M buffer and lets the tape wrap it without a copy.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, ShapeError, Tensor


def check_spread(delta: float, reach: float, dtype) -> None:
    """ValueError unless ``dtype`` holds a squared distance up to ``reach`` and it over
    2 delta^2, the largest magnitude a log-likelihood of the posteriors takes."""
    top, two_d2 = float(np.finfo(dtype).max), 2.0 * delta * delta
    if not (reach <= top and two_d2 > 0 and reach / two_d2 <= top):
        raise ValueError(f"delta {delta:g} is too small for {np.dtype(dtype)}: a squared "
                         f"distance of {reach:g}, or it over 2 delta^2, overflows it")


def posteriors_from_distances(
    height: int, width: int, heads: np.ndarray, delta: float, d: float, dtype=np.float64
) -> np.ndarray:
    """Label posteriors for every pixel of a height x width grid, immune to underflow.

    Returns a read-only (N+1) x (height*width) array in ``dtype`` (float32 or
    float64): rows head_1..head_N then background, one column per pixel in
    row-major order, so pixel (x, y) is column y * width + x.  Every column
    sums to 1.  The squared distances are one broadcast add of an [N, W]
    and an [N, H] array.

    Every step runs in place in the one result buffer, in ``dtype``.  In
    float64 the values are those of the out-of-place formula that the test
    oracle ``ref_posteriors`` keeps, so the two agree to the last bit; in
    float32 they agree to about 1e-6.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"posteriors: dtype must be float32 or float64, got {dtype}")
    if height < 1 or width < 1:
        raise ShapeError(f"posteriors: grid must be at least 1x1, got {height}x{width}")
    heads = np.asarray(heads, dtype=np.float64)
    if heads.ndim != 2 or heads.shape[1] != 2:
        raise ShapeError(f"posteriors: heads must have shape (N, 2), got {heads.shape}")
    if not np.all(np.isfinite(heads)):
        raise NumericError("posteriors: heads contain non-finite coordinates")
    delta, d = float(delta), float(d)  # Python floats keep float32 arithmetic in float32
    if not (0 < delta < math.inf and 0 <= d < math.inf):
        raise ValueError(f"posteriors: need 0 < delta < inf and 0 <= d < inf, got {delta}, {d}")
    n = heads.shape[0]
    if n == 0:
        out = np.ones((1, height * width), dtype=dtype)
        out.flags.writeable = False
        return out
    # The log-likelihoods reach -max(sq, d^2) / (2 delta^2).  Both are bounded by
    # the largest axis offsets, which lie at the grid's first or last column and
    # row, squared as Python floats (they overflow to inf without a warning)
    # before anything is cast; the floor of 1 keeps 1 / (2 delta^2) finite too.
    ends = np.array([[0.0, 0.0], [width - 1.0, height - 1.0]])
    ox, oy = np.abs(heads[:, None, :] - ends).max(axis=(0, 1)).tolist()
    check_spread(delta, max(ox * ox + oy * oy, d * d, 1.0), dtype)
    out = np.empty((n + 1, height * width), dtype=dtype)
    sq = out[:n]
    # squared axis offsets in float64, each rounded once to dtype
    dx2 = np.square(heads[:, :1] - np.arange(width, dtype=np.float64)).astype(dtype, copy=False)
    dy2 = np.square(heads[:, 1:] - np.arange(height, dtype=np.float64)).astype(dtype, copy=False)
    np.add(dx2[:, None, :], dy2[:, :, None], out=sq.reshape(n, height, width))  # x^2 + y^2
    min_sq = sq.min(axis=0)
    inv = 1.0 / (2.0 * delta * delta)
    sq *= -inv  # log foreground likelihoods
    bg = out[n]
    np.subtract(d, np.sqrt(min_sq), out=bg)
    np.square(bg, out=bg)
    bg *= -inv  # log background likelihood
    # Rounding is monotone, so the largest foreground log is exactly min_sq * -inv.
    out -= np.maximum(min_sq * -inv, bg)
    np.exp(out, out=out)
    out /= out.sum(axis=0)
    out.flags.writeable = False
    return out


def expected_counts(probs: np.ndarray, density: np.ndarray) -> tuple[np.ndarray, float]:
    """Posterior-weighted density sums: (per-head counts, background count)."""
    d = np.asarray(density, dtype=np.float64).ravel()
    if d.shape[0] != probs.shape[1]:
        raise ShapeError(
            f"expected_counts: density has {d.shape[0]} pixels, posteriors have {probs.shape[1]}"
        )
    counts = probs @ d
    return counts[:-1], float(counts[-1])


def bayes_loss(dmap: Tensor, heads: np.ndarray, delta: float, d_ratio: float) -> Tensor:
    """Point-supervision loss on a [H, W] density tensor, differentiable in dmap.

    delta is the Gaussian spread in pixels; d_ratio the background-band
    margin as a fraction of the shorter side, so d = d_ratio * min(H, W).
    L = sum_n |1 - E[c_n]| + |0 - E[c_0]|.  With no heads the background
    posterior is identically 1 and the loss collapses to |total count|.  The
    posteriors are computed in the dtype of dmap's tape.
    """
    if dmap.data.ndim != 2:
        raise ShapeError(f"bayes_loss: density must be [H, W], got {dmap.shape}")
    if not np.all(np.isfinite(dmap.data)):
        raise NumericError("bayes_loss: density map contains non-finite values")
    h, w = dmap.shape
    tape = dmap.tape
    probs = posteriors_from_distances(h, w, heads, delta, d_ratio * min(h, w), tape.dtype)
    n = probs.shape[0] - 1

    weights = tape.tensor(probs)  # (N+1, M) in the tape's dtype, so wrapped without a copy
    target = np.append(np.ones(n), 0.0).reshape(n + 1, 1)
    counts = ad.matmul(weights, ad.reshape(dmap, (h * w, 1)))
    residual = ad.add(counts, tape.tensor(-target))  # |c - t| = |t - c| exactly
    return ad.sum_all(ad.abs_val(residual))
