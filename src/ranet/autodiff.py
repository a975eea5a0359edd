"""Minimal dense-tensor reverse-mode differentiation.

Every tensor is bound to one Tape, which records one (output, edges) pair
per primitive application, in execution order.  The tape holds gradient
slots, not tensors: a record is (output node, ((operand node, vjp), ...)),
where a node is the slot a tensor's .grad lives in, and vjp maps the
output's gradient to that operand's vector-Jacobian product.  Besides its
checks and forward arithmetic, a primitive only states one vjp per operand.
The tape, not the primitive, checks that all operands share it, drops the
edges of operands that do not require gradient, and adds each vjp into its
operand's node.  A vjp closes over arrays, shapes and dtypes, never over a
Tensor, so it keeps only what its formula reads (mul's other operand,
sigmoid's output, conv2d's padded input and kernel), and an activation that
no vjp reads is freed as soon as the forward drops it.  relu saves the
boolean mask of its positive inputs, built only when its input requires
gradient; any other array that only a vjp needs (softplus's logistic,
abs_val's sign, conv2d's widened g) is built inside that vjp, so a tape
without gradients does forward work only.  Execution order is already a
topological order of the graph, so reverse-mode differentiation replays the
records once, back to front.  No broadcasting: shapes must match exactly
except where a primitive says otherwise.

Spatial primitives are matrix products where that is the work.  conv2d
zero-pads its input once, to [C, Hp, wp], and its record saves that padded
input, not a column matrix.  The forward multiplies the kernel, seen as
[F, C*kh*kw], by the im2col matrix of the kh*kw shifted H x W windows of the
padded input (for a 1x1 kernel, the input itself), a temporary of the
forward.  A column matrix over COLUMN_BUDGET (16 MiB) is never built whole.
Its columns, the output positions in row-major order, are split into the
fewest blocks that fit, all but the last of one width, a multiple of
COLUMN_ALIGN (64).  Each block lowers the output rows it touches, at most
two rows more than its own columns, and is multiplied into its columns of
one preallocated [F, H*W] output.  BLAS then cuts every block into register
tiles where it cuts the whole product, so each output is the same sum in
the same order.  Blocks of whole rows would not be: at an odd width a
multiple of 64 columns takes 64 rows, which leaves thin last blocks, and
BLAS sums a small product's edge columns in another order.  Matrices that
fit, among them all of a float32 256 x 256 predict (at most 9 MiB) and of
a 64 or 128 training crop, keep the single product.  Both gradients read
the padded input flattened to [C, Hp*wp]: tap (i, j) is the shift
o = i*d*wp + j*d, so its view of every output position
is one slice of length L = (H-1)*wp + W, and g is widened to that layout by
wp - W zero columns after each row.  The kernel gradient of a tap is the
widened g times the transposed slice at its offset.  The input gradient is
one product of the stacked tap kernels [kh*kw*C, F] with the widened g,
whose kh*kw row blocks are added into a zero [C, Hp*wp] buffer at their
offsets, cropped once; with one tap the product is the gradient.  The zero
columns make the shifted views exact: a slice also covers the wp - W
positions between two output rows, which are no output, and the zeros give
them no weight.  The forward keeps its H x W windows rather than the same
slices, because a product over L instead of H*W columns changes the float64
BLAS summation order, and predict would not stay bit-identical.  Bilinear
resampling and adaptive mean pooling apply one matrix per axis,
y = M_y x M_x^T per channel, with backward M_y^T g M_x.  avgpool adds each
window's strided slices along W, then along H, scaling by 1/w after each
axis, and its backward spreads g (1/w)^2 over the window.
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


# bytes: the most of an im2col matrix that conv2d's forward multiplies at once
COLUMN_BUDGET = 16 << 20
# columns: every block of that matrix but the last is a multiple, which any
# BLAS register tile of a power-of-two width up to 64 divides
COLUMN_ALIGN = 64


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
        self._records: list[tuple[_Node, tuple]] = []
        self._backward_done = False

    def tensor(self, data, requires_grad: bool = False) -> "Tensor":
        return Tensor(self, _as_array(data, self.dtype), requires_grad)

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
                for node, vjp in edges:
                    g = vjp(out.grad)
                    if node.grad is None:
                        node.grad = np.array(g, dtype=self.dtype, order="C")
                    else:
                        node.grad += g


class _Node:
    """A tensor's gradient slot; the tape's records hold these, not tensors."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    """Dense array plus its gradient slot, bound to one tape."""

    __slots__ = ("tape", "data", "node", "requires_grad")

    def __init__(self, tape: Tape, data: np.ndarray, requires_grad: bool):
        self.tape = tape
        self.data = data
        self.node = _Node()
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.node.grad = value


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise GraphError("operands were created on different tapes")
    return tape


def _result(data: np.ndarray, *edges) -> Tensor:
    """Wrap a primitive's output; record the (operand node, vjp) edges that need gradient."""
    tape = _same_tape(*(t for t, _ in edges))
    edges = tuple((t.node, vjp) for t, vjp in edges if t.requires_grad)
    out = Tensor(tape, _as_array(data, tape.dtype), bool(edges))
    if edges:
        tape._records.append((out.node, edges))
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
    av, bv = a.data, b.data
    return _result(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def scale(x: Tensor, c: float) -> Tensor:
    _require_finite(x.data, "scale")
    if not abs(float(c)) <= float(np.finfo(x.tape.dtype).max):
        raise ValueError(f"scale: factor {c:g} is not finite in {x.tape.dtype}")
    c = x.tape.dtype.type(c)
    return _result(x.data * c, (x, lambda g: g * c))


def relu(x: Tensor) -> Tensor:
    _require_finite(x.data, "relu")
    mask = x.data > 0 if x.requires_grad else None  # subgradient at exactly 0 is 0
    return _result(np.maximum(x.data, 0), (x, lambda g: g * mask))


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
    xd = x.data
    y = np.logaddexp(0.0, xd).astype(x.tape.dtype, copy=False)

    def vjp(g):
        sig = 1.0 / (1.0 + np.exp(-np.abs(xd)))
        return g * np.where(xd >= 0, sig, 1.0 - sig)

    return _result(y, (x, vjp))


def abs_val(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at the kink."""
    _require_finite(x.data, "abs_val")
    xd = x.data
    return _result(np.abs(xd), (x, lambda g: g * np.sign(xd)))


# ---------------------------------------------------------------------------
# Structural primitives
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    src = x.shape
    return _result(x.data.reshape(shape), (x, lambda g: g.reshape(src)))


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected a 2D tensor, got shape {x.shape}")
    return _result(x.data.T, (x, lambda g: g.T))


def sum_all(x: Tensor) -> Tensor:
    shape, dt = x.shape, x.data.dtype
    return _result(x.data.sum(dtype=dt), (x, lambda g: np.full(shape, g, dtype=dt)))


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

    shape, dt = x.shape, x.data.dtype

    def vjp(g):
        buf = np.zeros(shape, dtype=dt)
        buf[start:stop] = g
        return buf

    # a leading-axis slice of a C-contiguous array is contiguous: no copy
    return _result(x.data[start:stop], (x, vjp))


# ---------------------------------------------------------------------------
# Linear-algebra primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    av, bv = a.data, b.data
    return _result(av @ bv, (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))


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


def _taps(H: int, W: int, kh: int, kw: int, d: int):
    """Tap geometry of a same-size convolution on its flattened zero-padded input.

    Returns the padding (ph, pw), the padded row width wp, the run length
    L = (H - 1) * wp + W that spans the H output rows at stride wp, and the
    flat offset i*d*wp + j*d of each tap (i, j), in row-major tap order.
    """
    ph, pw = d * (kh // 2), d * (kw // 2)
    wp = W + 2 * pw
    offsets = [i * d * wp + j * d for i in range(kh) for j in range(kw)]
    return ph, pw, wp, (H - 1) * wp + W, offsets


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """[C,H,W] -> [C,H+2ph,W+2pw] with zero borders; x itself when there are none."""
    if ph == pw == 0:
        return x
    C, H, W = x.shape
    xp = np.zeros((C, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    xp[:, ph : ph + H, pw : pw + W] = x
    return xp


def _im2col(xp: np.ndarray, offsets: list[int], H: int, W: int) -> np.ndarray:
    """Padded [C,Hp,wp] -> [C*T, H*W]; row (c, t) is channel c's window under tap t."""
    C, _, wp = xp.shape
    if len(offsets) == 1:  # the one window is the input itself: no copy
        return xp.reshape(C, H * W)
    cols = np.empty((C, len(offsets), H, W), dtype=xp.dtype)
    for t, o in enumerate(offsets):
        r, c = divmod(o, wp)  # the window's top-left corner, as c < wp
        cols[:, t] = xp[:, r : r + H, c : c + W]
    return cols.reshape(C * len(offsets), H * W)


def _lowered_product(kf: np.ndarray, xp: np.ndarray, offsets: list[int], H: int, W: int):
    """kf [F, C*T] times the im2col matrix of padded xp, as [F, H*W], built in
    blocks of output columns when it exceeds COLUMN_BUDGET bytes."""
    C, Hp, _ = xp.shape
    col_bytes = C * len(offsets) * xp.itemsize if len(offsets) > 1 else 0
    if H * W * col_bytes <= COLUMN_BUDGET:
        return kf @ _im2col(xp, offsets, H, W)
    fit = max(1, COLUMN_BUDGET // col_bytes // COLUMN_ALIGN) * COLUMN_ALIGN
    blocks = -(-H * W // fit)
    size = -(-H * W // (blocks * COLUMN_ALIGN)) * COLUMN_ALIGN
    out = np.empty((kf.shape[0], H * W), dtype=xp.dtype)
    for p in range(0, H * W, size):
        q = min(p + size, H * W)
        lo, hi = p // W, -(-q // W)  # the output rows that columns p..q-1 lie in
        cols = _im2col(xp[:, lo : hi + Hp - H], offsets, hi - lo, W)
        np.matmul(kf, cols[:, p - lo * W : q - lo * W], out=out[:, p:q])
        del cols  # freed before the next block's columns are built
    return out


def _conv_kernel_grad(gw: np.ndarray, xpf: np.ndarray, taps, shape) -> np.ndarray:
    """Kernel gradient of conv2d: per tap, the widened g times the transposed
    run of the flattened padded input at the tap's offset."""
    L, offsets = taps[3:]
    dk = np.empty((len(offsets), shape[0], shape[1]), dtype=gw.dtype)
    for t, o in enumerate(offsets):
        np.matmul(gw, xpf[:, o : o + L].T, out=dk[t])
    return dk.transpose(1, 2, 0).reshape(shape)


def _conv_input_grad(k: np.ndarray, gw: np.ndarray, taps, shape) -> np.ndarray:
    """Input gradient of conv2d: one product of the stacked tap kernels with the
    widened g, then each tap's rows added at its offset and the padding cropped."""
    F, C = k.shape[:2]
    ph, pw, wp, L, offsets = taps
    rows = k.transpose(2, 3, 1, 0).reshape(len(offsets) * C, F) @ gw
    if len(offsets) == 1:
        return rows.reshape(shape)
    _, H, W = shape
    dxp = np.zeros((C, (H + 2 * ph) * wp), dtype=gw.dtype)
    for t, o in enumerate(offsets):
        dxp[:, o : o + L] += rows[t * C : (t + 1) * C]
    return dxp.reshape(C, H + 2 * ph, wp)[:, ph : ph + H, pw : pw + W]


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

    H, W = x.shape[1], x.shape[2]
    taps = ph, pw, wp, L, offsets = _taps(H, W, kh, kw, int(dilation))
    xp = _pad(x.data, ph, pw)
    out = _lowered_product(k.data.reshape(F, C * kh * kw), xp, offsets, H, W)
    if bias is not None:
        out += bias.data[:, None]

    xpf = xp.reshape(C, -1)
    wide = []  # (g, g widened): the k and x edges run back to back on one g

    def widened(g):
        if not wide or wide[0] is not g:
            wide[:] = (g, _pad(g, 0, pw).reshape(F, -1)[:, pw : pw + L])
        return wide[1]

    kd, kshape, xshape = k.data, k.shape, x.shape
    edges = [(k, lambda g: _conv_kernel_grad(widened(g), xpf, taps, kshape)),
             (x, lambda g: _conv_input_grad(kd, widened(g), taps, xshape))]
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
