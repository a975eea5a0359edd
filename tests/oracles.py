"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: explicit loops, direct formula
evaluation, and central finite differences.  None of it shares code with
the library paths it verifies.
"""

from __future__ import annotations

import math

import numpy as np

# float64 primitives against the loop oracles: the same arithmetic summed in
# another order, so they agree to a few hundred ulps of O(1) values.
ORACLE_TOL = 1e-12


def central_diff(f, x: np.ndarray, index: tuple, h: float = 1e-5) -> float:
    """Central finite difference of scalar-valued f at one coordinate of x."""
    xp = x.copy()
    xm = x.copy()
    xp[index] += h
    xm[index] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def rel_err(a: float, b: float) -> float:
    """Relative disagreement; zero when both values vanish."""
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / denom


def check_gradient(f, x: np.ndarray, grad: np.ndarray, n_probes: int, rng,
                   h: float = 1e-5, min_mag: float = 0.0):
    """Compare autodiff grad against finite differences at sampled coordinates.

    Returns the worst relative error over the probes.  Coordinates whose
    analytic gradient magnitude is below min_mag are skipped (used to stay
    away from kinks of relu/abs where the two-sided difference straddles
    the non-smooth point).
    """
    flat_idx = rng.permutation(x.size)
    worst = 0.0
    probed = 0
    for fi in flat_idx:
        if probed >= n_probes:
            break
        index = np.unravel_index(fi, x.shape)
        if min_mag > 0.0 and abs(grad[index]) < min_mag:
            continue
        fd = central_diff(f, x, index, h)
        worst = max(worst, rel_err(fd, float(grad[index])))
        probed += 1
    assert probed > 0, "no probe coordinate satisfied the magnitude filter"
    return worst


# ---------------------------------------------------------------------------
# Region-aware block, brute force (triple loops)
# ---------------------------------------------------------------------------


def bf_similarity(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    n, m = q.shape
    s = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            for r in range(n):
                s[i, j] += q[r, i] * a[r, j]
    return s


def bf_relevance(s: np.ndarray) -> np.ndarray:
    m = s.shape[0]
    w = np.zeros_like(s, dtype=np.float64)
    for i in range(m):
        shifted = s[i] - s[i].max()
        e = np.exp(shifted)
        w[i] = e / e.sum()
    return w


def bf_embed(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    n, m = q.shape
    o = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for r in range(m):
                o[i, j] += q[i, r] * w[j, r]
    return o


def bf_ra(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    return bf_embed(q, bf_relevance(bf_similarity(q, a)))


# ---------------------------------------------------------------------------
# Bayesian loss, brute force (direct formula evaluation per pixel)
# ---------------------------------------------------------------------------


def bf_bayes(density: np.ndarray, heads, delta: float, d: float):
    """Posteriors, expected counts, and loss from first principles.

    density is an H x W array; heads a list of (x, y).  Returns
    (posterior matrix (N+1) x M, per-head counts, background count, loss).
    """
    h, w = density.shape
    pixels = [(float(c), float(r)) for r in range(h) for c in range(w)]
    n = len(heads)
    m = len(pixels)
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * delta)

    post = np.zeros((n + 1, m))
    for pi, (px, py) in enumerate(pixels):
        like = []
        for hx, hy in heads:
            dist2 = (px - hx) ** 2 + (py - hy) ** 2
            like.append(pref * math.exp(-dist2 / (2.0 * delta * delta)))
        if n > 0:
            nearest = min(math.dist((px, py), (hx, hy)) for hx, hy in heads)
            like.append(pref * math.exp(-((d - nearest) ** 2) / (2.0 * delta * delta)))
        else:
            like.append(1.0)
        total = sum(like)
        for li, lv in enumerate(like):
            post[li, pi] = lv / total

    flat = density.ravel()
    counts = [float(sum(post[li, pi] * flat[pi] for pi in range(m))) for li in range(n + 1)]
    loss = sum(abs(1.0 - c) for c in counts[:-1]) + abs(0.0 - counts[-1])
    return post, np.array(counts[:-1]), counts[-1], loss


def pixel_list(height: int, width: int) -> np.ndarray:
    """Pixel locations (x, y) of a height x width grid in row-major order, (H*W, 2)."""
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def ref_posteriors(pixels: np.ndarray, heads: np.ndarray, delta: float, d: float) -> np.ndarray:
    """The log-space posterior matrix (N+1) x M, written out of place.

    The same float64 operations in the same order as the library's in-place
    version, through a full (N, M, 2) difference array, a stacked log matrix
    and fresh arrays at every step, so the two must agree to the last bit.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    heads = np.asarray(heads, dtype=np.float64).reshape(-1, 2)
    if heads.shape[0] == 0:
        return np.ones((1, pixels.shape[0]))
    diff = heads[:, None, :] - pixels[None, :, :]
    sq = (diff * diff).sum(axis=2)
    inv = 1.0 / (2.0 * delta * delta)
    log_fg = -sq * inv
    nearest = np.sqrt(sq.min(axis=0))
    log_bg = -((d - nearest) ** 2) * inv
    logs = np.vstack([log_fg, log_bg[None, :]])
    e = np.exp(logs - logs.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# Spatial primitives, brute force (per-tap, per-corner and per-bin loops)
# ---------------------------------------------------------------------------
#
# Each returns (out, vjp): the forward value and a function mapping an output
# cotangent to the cotangents of the inputs.


def bf_conv2d(x: np.ndarray, k: np.ndarray, bias=None, dilation: int = 1):
    """Dilated same-size cross-correlation, one kernel tap at a time.

    vjp(g) -> (grad_x, grad_k, grad_bias).
    """
    f, c, kh, kw = k.shape
    _, h, w = x.shape
    d = dilation
    ph, pw = d * (kh // 2), d * (kw // 2)
    xp = np.zeros((c, h + 2 * ph, w + 2 * pw))
    xp[:, ph : ph + h, pw : pw + w] = x

    def window(i, j):
        return (slice(None), slice(i * d, i * d + h), slice(j * d, j * d + w))

    out = np.zeros((f, h, w))
    for i in range(kh):
        for j in range(kw):
            out += np.einsum("fc,chw->fhw", k[:, :, i, j], xp[window(i, j)])
    if bias is not None:
        out += bias[:, None, None]

    def vjp(g):
        gk = np.zeros_like(k, dtype=np.float64)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gk[:, :, i, j] = np.einsum("fhw,chw->fc", g, xp[window(i, j)])
                gxp[window(i, j)] += np.einsum("fc,fhw->chw", k[:, :, i, j], g)
        return gxp[:, ph : ph + h, pw : pw + w], gk, g.sum(axis=(1, 2))

    return out, vjp


def _bf_corners(in_size: int, out_size: int):
    """Align-corners source indices (lo, hi) and hi-side weight per output index."""
    if out_size == 1 or in_size == 1:
        idx = np.zeros(out_size, dtype=np.intp)
        return idx, idx.copy(), np.zeros(out_size)
    src = np.arange(out_size, dtype=np.float64) * (in_size - 1) / (out_size - 1)
    lo = np.clip(np.floor(src).astype(np.intp), 0, in_size - 2)
    return lo, lo + 1, src - lo


def bf_upsample(x: np.ndarray, out_h: int, out_w: int):
    """Align-corners bilinear resampling by gathering the four corners.

    vjp(g) scatters each output back onto its four corners.
    """
    r0, r1, fy = _bf_corners(x.shape[1], out_h)
    c0, c1, fx = _bf_corners(x.shape[2], out_w)
    corners = [
        (rr, cc, wy[None, :, None] * wx[None, None, :])
        for rr, wy in ((r0, 1.0 - fy), (r1, fy))
        for cc, wx in ((c0, 1.0 - fx), (c1, fx))
    ]
    out = sum(wt * x[:, rr[:, None], cc[None, :]] for rr, cc, wt in corners)

    def vjp(g):
        gx = np.zeros_like(x, dtype=np.float64)
        for rr, cc, wt in corners:
            np.add.at(gx, (slice(None), rr[:, None], cc[None, :]), g * wt)
        return gx

    return out, vjp


def bf_adaptive_pool(x: np.ndarray, grid_h: int, grid_w: int):
    """Mean over adaptive bins, one output cell at a time.

    Bin i of an axis of length n covers [floor(i n / g), ceil((i + 1) n / g)).
    vjp(g) spreads each cell's cotangent evenly over its bin.
    """
    def bins(size, grid):
        return [((i * size) // grid, -(-((i + 1) * size) // grid)) for i in range(grid)]

    cells = [
        (i, j, r0, r1, c0, c1)
        for i, (r0, r1) in enumerate(bins(x.shape[1], grid_h))
        for j, (c0, c1) in enumerate(bins(x.shape[2], grid_w))
    ]
    out = np.zeros((x.shape[0], grid_h, grid_w))
    for i, j, r0, r1, c0, c1 in cells:
        out[:, i, j] = x[:, r0:r1, c0:c1].mean(axis=(1, 2))

    def vjp(g):
        gx = np.zeros_like(x, dtype=np.float64)
        for i, j, r0, r1, c0, c1 in cells:
            gx[:, r0:r1, c0:c1] += g[:, i, j][:, None, None] / ((r1 - r0) * (c1 - c0))
        return gx

    return out, vjp


# ---------------------------------------------------------------------------
# Elementwise references
# ---------------------------------------------------------------------------


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in x's dtype, branched on sign so neither exp overflows."""
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z)).astype(x.dtype)


def hand_built_rack(config_json: str, params) -> bytes:
    """A RACK file assembled byte by byte from a config block and parameters."""
    doc = config_json.encode("utf-8")
    blob = b"RACK" + np.array([1, len(doc)], dtype="<u4").tobytes() + doc
    for name, arr in params.items():
        blob += np.array([len(name)], dtype="<u4").tobytes()
        blob += name.encode("utf-8")
        blob += np.array([arr.ndim, *arr.shape], dtype="<u4").tobytes()
        blob += arr.astype("<f4").tobytes()
    return blob
