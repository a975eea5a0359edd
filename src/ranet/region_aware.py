"""Column-wise similarity, relevance matrix, and the region-aware block.

The block mixes the columns of an input image by how strongly each one
correlates with the columns of a priority map:

    S = Q^T A          similarity of image column i and priority column j
    W = softmax(S)     row-wise, so each row is a distribution over columns
    O = Q W^T          each output column is a convex combination of input
                       columns, injecting global context into the image

Everything runs through the autodiff tape, so gradients reach both the
image path and the priority-map path.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


def similarity(q: Tensor, a: Tensor) -> Tensor:
    """Inner products of every image column with every priority column: Q^T A."""
    if q.data.ndim != 2 or a.data.ndim != 2:
        raise ShapeError(f"similarity: expected 2D operands, got {q.shape} and {a.shape}")
    if q.shape != a.shape:
        raise ShapeError(f"similarity: shapes {q.shape} and {a.shape} differ")
    return ad.matmul(ad.transpose(q), a)


def relevance(s: Tensor) -> Tensor:
    """Row-stochastic relevance weights: softmax of the raw similarities over
    priority columns."""
    if s.data.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"relevance: similarity matrix must be square, got {s.shape}")
    return ad.softmax_rows(s)


def ra_apply(q: Tensor, a: Tensor) -> Tensor:
    """Full block, O = Q W^T with W = relevance(similarity(q, a)); differentiable in q and a."""
    return ad.matmul(q, ad.transpose(relevance(similarity(q, a))))
