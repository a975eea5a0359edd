"""Bayesian point-supervision loss for density maps.

Each pixel location x_m gets a posterior over labels {head_1..head_N,
background}.  Foreground likelihoods are isotropic Gaussians around the
annotated points; the background likelihood places a virtual band at
distance d from the nearest head.  With a uniform label prior, posteriors
reduce to a per-pixel normalization of the likelihoods.  Expected counts
are posterior-weighted density sums, and the loss drives each head's
expected count to one and the background's to zero with an absolute-value
penalty.

Posterior computation happens in log space with a per-pixel max shift, so
distant pixels cannot underflow every likelihood to zero.  The Gaussian
prefactor 1/(sqrt(2 pi) delta) is common to all labels and cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, ShapeError, Tensor
from .core import ConfigDoc, _readonly


@dataclass(frozen=True)
class BayesParams(ConfigDoc):
    """delta: Gaussian spread in pixels; d_ratio: background-band margin as a
    fraction of the shorter crop side (converted to pixels per evaluation).

    The defaults are the training recipe's.  At 64x64 toy scale, delta 16
    keeps the posterior force field majority-foreground, which is what makes
    from-scratch training converge instead of collapsing the density to zero
    (measured, not theorized)."""

    delta: float = 16.0
    d_ratio: float = 0.1

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (0 < self.d_ratio < 1):
            raise ValueError(f"d_ratio must lie in (0, 1), got {self.d_ratio}")


@dataclass(frozen=True)
class PosteriorField:
    """Label posteriors per pixel: rows head_1..head_N then background."""

    probs: np.ndarray  # shape (N + 1, M); every column sums to 1

    def __post_init__(self):
        p = np.asarray(self.probs)
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError(f"posterior field must be (N+1) x M, got {p.shape}")
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def n_pixels(self) -> int:
        return self.probs.shape[1]


def pixel_grid(height: int, width: int) -> np.ndarray:
    """Pixel-center locations (x, y) in row-major order, shape (H*W, 2)."""
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def _grid_axes(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row's x values and every W-th y value, checked in O(M) to
    be the axes whose row-major product ``pixels`` is."""
    if pixels.ndim != 2 or pixels.shape[1] != 2 or pixels.shape[0] == 0:
        raise ShapeError(f"posteriors: pixels must have shape (M, 2), M >= 1, got {pixels.shape}")
    x, y = pixels[:, 0], pixels[:, 1]
    w = int(np.argmax(y != y[0])) or y.size  # the first row ends where y first changes
    h = y.size // w
    xs, ys = x[:w], y[::w]
    if (h * w != y.size
            or not np.array_equal(x.reshape(h, w), np.broadcast_to(xs, (h, w)))
            or not np.array_equal(y.reshape(h, w), np.broadcast_to(ys[:, None], (h, w)))):
        raise ShapeError("posteriors: pixels must be a row-major grid, as pixel_grid returns")
    return xs, ys


def posteriors_from_distances(
    pixels: np.ndarray, heads: np.ndarray, delta: float, d: float
) -> PosteriorField:
    """Posteriors computed directly from distances; immune to underflow.

    ``pixels`` must be a row-major grid: H rows of the same W x values, row i
    at one y value, as ``pixel_grid`` returns (any spacing or offset).  Any
    other pixel set raises ShapeError.  The squared distances are then one
    broadcast add of an [N, W] and an [N, H] array.

    Every step runs in place in the one (N+1) x M result buffer, with the
    same values as the out-of-place formula that the test oracle
    ``ref_posteriors`` keeps, so the two agree to the last bit.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    heads = np.asarray(heads, dtype=np.float64)
    if heads.ndim != 2 or heads.shape[1] != 2:
        raise ShapeError(f"posteriors: heads must have shape (N, 2), got {heads.shape}")
    if not np.all(np.isfinite(heads)):
        raise NumericError("posteriors: heads contain non-finite coordinates")
    xs, ys = _grid_axes(pixels)
    n, m = heads.shape[0], pixels.shape[0]
    if n == 0:
        return PosteriorField(np.ones((1, m)))
    out = np.empty((n + 1, m))
    sq = out[:n]
    dx2 = np.square(heads[:, :1] - xs)
    dy2 = np.square(heads[:, 1:] - ys)
    np.add(dx2[:, None, :], dy2[:, :, None], out=sq.reshape(n, ys.size, xs.size))  # x^2 + y^2
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
    out.flags.writeable = False  # fresh and frozen, so the field wraps it uncopied
    return PosteriorField(out)


def expected_counts(post: PosteriorField, density: np.ndarray) -> tuple[np.ndarray, float]:
    """Posterior-weighted density sums: (per-head counts, background count)."""
    d = np.asarray(density, dtype=np.float64).ravel()
    if d.shape[0] != post.n_pixels:
        raise ShapeError(
            f"expected_counts: density has {d.shape[0]} pixels, field has {post.n_pixels}"
        )
    counts = post.probs @ d
    return counts[:-1], float(counts[-1])


def margin_pixels(params: BayesParams, height: int, width: int) -> float:
    """The background margin d in pixels for a given crop shape."""
    return params.d_ratio * min(height, width)


def bayes_loss(dmap: Tensor, heads: np.ndarray, params: BayesParams) -> Tensor:
    """Point-supervision loss on a [H, W] density tensor, differentiable in dmap.

    L = sum_n |1 - E[c_n]| + |0 - E[c_0]|.  With no heads the background
    posterior is identically 1 and the loss collapses to |total count|.
    """
    if dmap.data.ndim != 2:
        raise ShapeError(f"bayes_loss: density must be [H, W], got {dmap.shape}")
    if not np.all(np.isfinite(dmap.data)):
        raise NumericError("bayes_loss: density map contains non-finite values")
    h, w = dmap.shape
    post = posteriors_from_distances(pixel_grid(h, w), heads, params.delta,
                                     margin_pixels(params, h, w))
    n = post.probs.shape[0] - 1

    tape = dmap.tape
    weights = tape.constant(post.probs)            # (N+1, M), constant w.r.t. dmap
    target = tape.constant(np.append(np.ones(n), 0.0).reshape(n + 1, 1))
    counts = ad.matmul(weights, ad.reshape(dmap, (h * w, 1)))
    residual = ad.add(target, ad.scale(counts, -1.0))
    return ad.sum_all(ad.abs_val(residual))
