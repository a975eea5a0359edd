"""Minimal dense-tensor reverse-mode differentiation.

A Tape owns every tensor created on it and records one (output, edges) pair
per primitive application, in execution order.  An edge is (operand, vjp):
vjp maps the output's gradient to that operand's vector-Jacobian product.
Besides its checks and forward arithmetic, a primitive only states one vjp
per operand.  The tape, not the primitive, checks that all operands share
it, drops the edges of operands that do not require gradient, and adds
each vjp into its operand's .grad.  A primitive's forward builds only its
output: an array that only a vjp needs (relu's mask, softplus's logistic,
abs_val's sign, conv2d's flipped kernel) is built inside that vjp, so a
tape without gradients does forward work only.  Execution order is
already a topological order of the graph, so reverse-mode differentiation
replays the records once, back to front.  No broadcasting: shapes must
match exactly except where a primitive says otherwise.

Spatial primitives are matrix products where that is the work: conv2d
multiplies the kernel, seen as [F, C*kh*kw], by the im2col matrix of the
kh*kw shifted windows of the zero-padded input (for a 1x1 kernel, the input
itself).  The kernel gradient is g times that matrix transposed.  The input
gradient is the same-size convolution of g by the kernel flipped in both
spatial axes with F and C swapped, at the same dilation (exact because the
sides are odd and the padding symmetric), so one im2col lowering serves all
three products.  Bilinear resampling and adaptive mean pooling apply one
matrix per axis, y = M_y x M_x^T per channel, with backward M_y^T g M_x.
avgpool adds each window's strided slices along W, then along H, scaling
by 1/w after each axis, and its backward spreads g (1/w)^2 over the window.
Backward drops each record once its edges have run, freeing the arrays
they saved.  A tensor's .grad is its own array: the first contribution is
copied, so a vjp may return its incoming gradient or a view of it.

Two precision modes: float64 tapes for verification (finite-difference
checks are unreliable at float32) and float32 tapes for training.  All
primitives are deterministic; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy a primitive's contract."""


class NumericError(ArithmeticError):
    """Non-finite values reached a primitive that requires finite input."""


class GraphError(RuntimeError):
    """Tape misuse: cross-tape operands, repeated backward, non-scalar loss."""


def _as_array(data, dtype) -> np.ndarray:
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim > 0 and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


class Tape:
    """Confined to one thread; distinct tapes may run concurrently."""

    def __init__(self, dtype=np.float64):
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"tape dtype must be float32 or float64, got {dt}")
        self.dtype = dt
        self._records: list[tuple[Tensor, tuple]] = []
        self._backward_done = False

    def tensor(self, data, requires_grad: bool = False) -> "Tensor":
        return Tensor(self, _as_array(data, self.dtype), requires_grad)

    def constant(self, data) -> "Tensor":
        return self.tensor(data, requires_grad=False)

    def backward(self, loss: "Tensor") -> None:
        """Populate .grad of every requires-grad tensor with d(loss)/d(tensor)."""
        if loss.tape is not self:
            raise GraphError("loss tensor does not belong to this tape")
        if self._backward_done:
            raise GraphError("backward() already ran on this tape; build a new tape")
        if loss.data.size != 1:
            raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
        if not loss.requires_grad:
            raise GraphError("loss is detached: nothing on the tape requires gradient")
        self._backward_done = True
        loss.grad = np.ones_like(loss.data)
        records, self._records = self._records, []
        while records:
            out, edges = records.pop()
            if out.grad is not None:
                for t, vjp in edges:
                    t.accumulate(vjp(out.grad))


class Tensor:
    """Dense array plus its accumulated gradient, bound to one tape."""

    __slots__ = ("tape", "data", "grad", "requires_grad")

    def __init__(self, tape: Tape, data: np.ndarray, requires_grad: bool):
        self.tape = tape
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, order="C")
        else:
            self.grad += g


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise GraphError("operands were created on different tapes")
    return tape


def _result(data: np.ndarray, *edges) -> Tensor:
    """Wrap a primitive's output; record the (operand, vjp) edges that need gradient."""
    tape = _same_tape(*(t for t, _ in edges))
    edges = tuple(e for e in edges if e[0].requires_grad)
    out = Tensor(tape, _as_array(data, tape.dtype), bool(edges))
    if edges:
        tape._records.append((out, edges))
    return out


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op}: input contains non-finite values")


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    _require_finite(a.data, "add")
    _require_finite(b.data, "add")
    return _result(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    _require_finite(a.data, "mul")
    _require_finite(b.data, "mul")
    return _result(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def scale(x: Tensor, c: float) -> Tensor:
    _require_finite(x.data, "scale")
    c = x.tape.dtype.type(c)
    return _result(x.data * c, (x, lambda g: g * c))


def relu(x: Tensor) -> Tensor:
    _require_finite(x.data, "relu")
    # subgradient at exactly 0 is 0
    return _result(np.maximum(x.data, 0), (x, lambda g: g * (x.data > 0)))


def sigmoid(x: Tensor) -> Tensor:
    _require_finite(x.data, "sigmoid")
    # z = e^-|x| never overflows: y = z / (1 + z) for x < 0, 1 / (1 + z) for x >= 0.
    z = np.abs(x.data)
    np.exp(np.negative(z, out=z), out=z)
    den = 1.0 + z
    y = np.divide(z, den, out=z)
    np.divide(1.0, den, out=y, where=x.data >= 0)
    return _result(y, (x, lambda g: g * y * (1.0 - y)))


def softplus(x: Tensor) -> Tensor:
    """Smooth non-negative rectifier ln(1 + e^x), computed stably."""
    _require_finite(x.data, "softplus")
    y = np.logaddexp(0.0, x.data).astype(x.tape.dtype, copy=False)

    def vjp(g):
        sig = 1.0 / (1.0 + np.exp(-np.abs(x.data)))
        return g * np.where(x.data >= 0, sig, 1.0 - sig)

    return _result(y, (x, vjp))


def abs_val(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at the kink."""
    _require_finite(x.data, "abs_val")
    return _result(np.abs(x.data), (x, lambda g: g * np.sign(x.data)))


# ---------------------------------------------------------------------------
# Structural primitives
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    return _result(x.data.reshape(shape), (x, lambda g: g.reshape(x.data.shape)))


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected a 2D tensor, got shape {x.shape}")
    return _result(x.data.T, (x, lambda g: g.T))


def sum_all(x: Tensor) -> Tensor:
    return _result(x.data.sum(dtype=x.tape.dtype), (x, lambda g: np.full_like(x.data, g)))


def concat_channels(xs: list[Tensor]) -> Tensor:
    """Join tensors along their first axis: [C_i, ...] -> [sum C_i, ...].

    The tensors must share one rank >= 1 and agree on every axis after the
    first, so [C,H,W] maps, conv kernels [F,C,kh,kw] and biases [F] all join.
    """
    if not xs:
        raise ShapeError("concat_channels: need at least one tensor")
    rest = xs[0].shape[1:]
    for t in xs:
        if t.data.ndim == 0:
            raise ShapeError("concat_channels: cannot join 0-d tensors")
        if t.shape[1:] != rest:
            raise ShapeError(
                f"concat_channels: shapes differ after the first axis, {t.shape} vs {xs[0].shape}"
            )
    sizes = [t.shape[0] for t in xs]
    offsets = np.cumsum([0] + sizes)
    bounds = zip(xs, offsets[:-1], offsets[1:])
    return _result(np.concatenate([t.data for t in xs], axis=0),
                   *((t, lambda g, lo=lo, hi=hi: g[lo:hi]) for t, lo, hi in bounds))


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 3:
        raise ShapeError(f"slice_channels: expected [C,H,W], got {x.shape}")
    if not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_channels: [{start}:{stop}] out of range for C={x.shape[0]}")

    def vjp(g):
        buf = np.zeros_like(x.data)
        buf[start:stop] = g
        return buf

    return _result(x.data[start:stop].copy(), (x, vjp))


# ---------------------------------------------------------------------------
# Linear-algebra primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    return _result(a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def softmax_rows(s: Tensor) -> Tensor:
    """Per-row softmax with max subtraction; every output row sums to 1."""
    _require_finite(s.data, "softmax_rows")
    if s.data.ndim != 2:
        raise ShapeError(f"softmax_rows: expected a 2D tensor, got {s.shape}")
    shifted = s.data - s.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = (e / e.sum(axis=1, keepdims=True)).astype(s.tape.dtype, copy=False)

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return y * (g - dot)

    return _result(y, (s, vjp))


def normalize_columns(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each column of a 2D tensor to unit Euclidean norm."""
    if x.data.ndim != 2:
        raise ShapeError(f"normalize_columns: expected a 2D tensor, got {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=0, keepdims=True) + eps * eps)
    y = x.data / norms

    def vjp(g):
        # d(v/s)/dv = I/s - v v^T / s^3, applied column by column
        dot = (g * y).sum(axis=0, keepdims=True)
        return (g - y * dot) / norms

    return _result(y, (x, vjp))


# ---------------------------------------------------------------------------
# Spatial primitives on [C, H, W] tensors
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, d: int) -> np.ndarray:
    """[C,H,W] -> [C*kh*kw, H*W]; row (c, i, j) is channel c's window under tap (i, j)."""
    C, H, W = x.shape
    if kh == kw == 1:  # the one window is the input itself: no padding, no copy
        return x.reshape(C, H * W)
    ph, pw = d * (kh // 2), d * (kw // 2)
    xp = np.zeros((C, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    xp[:, ph : ph + H, pw : pw + W] = x
    cols = np.empty((C, kh, kw, H, W), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i * d : i * d + H, j * d : j * d + W]
    return cols.reshape(C * kh * kw, H * W)


def conv2d(x: Tensor, k: Tensor, bias: Tensor | None = None, dilation: int = 1) -> Tensor:
    """Dilated same-size cross-correlation: [C,H,W] * [F,C,kh,kw] -> [F,H,W].

    Zero padding is sized so output spatial dims equal input dims; kernel
    sides must be odd for that to be well defined.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d: input must be [C,H,W], got {x.shape}")
    if k.data.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be [F,C,kh,kw], got {k.shape}")
    F, C, kh, kw = k.shape
    if C != x.shape[0]:
        raise ShapeError(f"conv2d: kernel expects {C} channels, input has {x.shape[0]}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel sides must be odd, got {kh}x{kw}")
    if dilation < 1 or int(dilation) != dilation:
        raise ValueError(f"conv2d: dilation must be a positive integer, got {dilation}")
    if bias is not None and bias.shape != (F,):
        raise ShapeError(f"conv2d: bias must have shape ({F},), got {bias.shape}")

    d = int(dilation)
    H, W = x.shape[1], x.shape[2]
    kmat = k.data.reshape(F, C * kh * kw)
    cols = _im2col(x.data, kh, kw, d)
    out = kmat @ cols
    if bias is not None:
        out += bias.data[:, None]

    def vjp_x(g):
        kadj = k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, F * kh * kw)
        return (kadj @ _im2col(g, kh, kw, d)).reshape(x.shape)

    edges = [(k, lambda g: (g.reshape(F, H * W) @ cols.T).reshape(k.shape)), (x, vjp_x)]
    if bias is not None:
        edges.append((bias, lambda g: g.reshape(F, H * W).sum(axis=1)))
    return _result(out.reshape(F, H, W), *edges)


def _separable(x: Tensor, my: np.ndarray, mx: np.ndarray) -> Tensor:
    """y[c] = my @ x[c] @ mx.T for every channel c; backward my.T @ g[c] @ mx."""

    def apply(a, my, mx):
        C, H, W = a.shape
        return my @ (a.reshape(C * H, W) @ mx.T).reshape(C, H, mx.shape[0])

    return _result(apply(x.data, my, mx), (x, lambda g: apply(g, my.T, mx.T)))


def _pool_axis(size: int, grid: int, dtype) -> np.ndarray:
    """[grid, size] matrix whose row i averages the i-th adaptive bin of an axis."""
    m = np.zeros((grid, size), dtype=dtype)
    for i in range(grid):
        lo, hi = (i * size) // grid, -(-((i + 1) * size) // grid)  # ceil division
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def _mean_of_runs(runs: np.ndarray, axis: int, scale) -> np.ndarray:
    """Mean over one short axis: its slices (strided views) added in order, then scaled."""
    parts = np.moveaxis(runs, axis, 0)
    total = parts[0] + parts[1] if len(parts) > 1 else parts[0].copy()
    for part in parts[2:]:
        total += part
    total *= scale
    return total


def avgpool(x: Tensor, window: int) -> Tensor:
    """Non-overlapping mean pooling; spatial dims shrink by the window factor."""
    if x.data.ndim != 3:
        raise ShapeError(f"avgpool: input must be [C,H,W], got {x.shape}")
    C, H, W = x.shape
    w = int(window)
    if w < 1:
        raise ValueError(f"avgpool: window must be positive, got {window}")
    if w > H or w > W:
        raise ValueError(f"avgpool: window {w} exceeds input {H}x{W}")
    if H % w or W % w:
        raise ValueError(f"avgpool: window {w} must divide input sides {H}x{W}")
    s = x.tape.dtype.type(1.0 / w)
    rows = _mean_of_runs(x.data.reshape(C, H, W // w, w), 3, s)
    y = _mean_of_runs(rows.reshape(C, H // w, w, W // w), 2, s)
    return _result(y, (x, lambda g: (g * s * s).repeat(w, axis=1).repeat(w, axis=2)))


def adaptive_avgpool(x: Tensor, grid: int) -> Tensor:
    """Mean pooling to a grid x grid output from any input size: bin i of an axis of
    length n covers [floor(i n / g), ceil((i + 1) n / g)), overlapping when g > n."""
    if x.data.ndim != 3:
        raise ShapeError(f"adaptive_avgpool: input must be [C,H,W], got {x.shape}")
    g_ = int(grid)
    if g_ < 1:
        raise ValueError(f"adaptive_avgpool: grid must be positive, got {grid}")
    dt = x.tape.dtype
    return _separable(x, _pool_axis(x.shape[1], g_, dt), _pool_axis(x.shape[2], g_, dt))


def _bilinear_axis(in_size: int, out_size: int, dtype) -> np.ndarray:
    """[out_size, in_size] align-corners interpolation matrix of one axis.

    Output i samples the input at src = i (in - 1) / (out - 1); input j gets
    the hat weight max(0, 1 - |src - j|), so the two neighbours share 1.
    """
    src = np.arange(out_size) * (in_size - 1) / max(out_size - 1, 1)
    return np.maximum(0.0, 1.0 - np.abs(src[:, None] - np.arange(in_size))).astype(dtype)


def upsample_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling with the align-corners convention; linear in x."""
    if x.data.ndim != 3:
        raise ShapeError(f"upsample_bilinear: input must be [C,H,W], got {x.shape}")
    out_h, out_w = int(out_h), int(out_w)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"upsample_bilinear: target {out_h}x{out_w} must be >= 1x1")
    _, H, W = x.shape
    dt = x.tape.dtype
    return _separable(x, _bilinear_axis(H, out_h, dt), _bilinear_axis(W, out_w, dt))


def backward(loss: Tensor) -> None:
    """Run reverse-mode differentiation from a scalar loss on its tape."""
    loss.tape.backward(loss)
