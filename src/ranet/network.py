"""Miniature two-pass counting network with priority-map feedback.

Pass 1 extracts multi-scale features (strides 2, 4, 8, 8), runs a
multi-grid pooled context head and a parallel dilated-convolution head,
and decodes them into a full-resolution priority map in [0, 1].  The
priority map re-enters through the column-relevance block to produce an
enhanced input, and pass 2 reuses the same backbone to turn that into a
non-negative density map via sibling feature / attention heads.  The two
heads run as one 32-filter convolution on their shared input; parameters
and checkpoints still hold them as separate head.feat.* and head.att.*
tensors.

Parameters live as plain float32 arrays in a name -> array map and are
bound to a fresh tape per forward pass, so verification can run the same
network at float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor
from .bayes import bayes_loss
from .core import ConfigDoc, DensityMap, GrayImage
from .region_aware import ra_apply

ModelParams = dict[str, np.ndarray]

# The fixed architecture; the backbone's four blocks sit at strides 2, 4, 8, 8.
WIDTHS = (8, 16, 32, 32)
CONTEXT_CHANNELS = 8
ASPP_CHANNELS = 8
DECODER_CHANNELS = 16
HEAD_CHANNELS = 16
DENSITY_BIAS = -6.0  # softplus(-6) ~ 2.5e-3/cell: start near count scale


@dataclass(frozen=True)
class NetConfig(ConfigDoc):
    pool_grids: tuple[int, ...] = (1, 2, 3, 6)
    dilation_rates: tuple[int, ...] = (1, 2, 3, 4)
    seed: int = 0

    _retired = {"two_tower": False, "widths": list(WIDTHS), "context_channels": CONTEXT_CHANNELS,
                "aspp_channels": ASPP_CHANNELS, "decoder_channels": DECODER_CHANNELS,
                "head_channels": HEAD_CHANNELS, "density_bias": DENSITY_BIAS,
                "ra_column_normalize": False,  # similarity is the raw inner product, not the cosine
                "ra_temperature": 1.0}  # the relevance softmax runs on the raw similarities

    def __post_init__(self):
        super().__post_init__()
        if any(g < 1 for g in self.pool_grids):
            raise ValueError("pooling grids must be >= 1")
        if not self.dilation_rates or any(r < 1 for r in self.dilation_rates):
            raise ValueError("need at least one dilation rate, each >= 1")
        for name in ("pool_grids", "dilation_rates"):  # a repeat would share one branch's weights
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ForwardResult:
    """Everything a training step needs from one sample."""

    loss: Tensor
    density: Tensor   # [H, W], non-negative
    priority: Tensor  # [H, W], in [0, 1]
    leaves: dict[str, Tensor]


# ---------------------------------------------------------------------------
# Parameter construction
# ---------------------------------------------------------------------------


def _conv_spec(cfg: NetConfig) -> list[tuple[str, int, int, int, float | None]]:
    """(name, out_ch, in_ch, kernel_side, bias_init) for every conv, fixed order."""
    w, cc, ac, dc, hc = WIDTHS, CONTEXT_CHANNELS, ASPP_CHANNELS, DECODER_CHANNELS, HEAD_CHANNELS
    spec: list[tuple[str, int, int, int, float | None]] = []

    for i, (in_ch, out_ch) in enumerate(zip((1, *w), w)):
        spec.append((f"bb.block{i + 1}", out_ch, in_ch, 3, 0.0))
    for g in cfg.pool_grids:
        spec.append((f"ctx.scale{g}", cc, w[-2], 1, 0.0))
    spec.append(("ctx.fuse", w[-2], w[-2] + cc * len(cfg.pool_grids), 1, 0.0))
    for r in cfg.dilation_rates:
        spec.append((f"aspp.rate{r}", ac, w[-1], 3, 0.0))
    spec.append(("aspp.fuse", w[-1] // 2, ac * len(cfg.dilation_rates), 1, 0.0))
    spec.append(("dec.fuse1", dc, w[-2] + w[-1] // 2 + w[1], 1, 0.0))
    spec.append(("dec.fuse2", dc // 2, dc + w[0], 1, 0.0))
    spec.append(("dec.out", 1, dc // 2, 1, 0.0))
    spec.append(("head.fuse1", hc, w[-1] + w[1], 1, 0.0))
    spec.append(("head.fuse2", hc, hc + w[0], 1, 0.0))
    spec.append(("head.feat", hc, hc, 3, 0.0))
    spec.append(("head.att", hc, hc, 3, 0.0))
    spec.append(("head.out", 1, hc, 1, DENSITY_BIAS))
    return spec


def init_params(cfg: NetConfig) -> ModelParams:
    """Fan-in scaled uniform weights, deterministic per seed; float32."""
    rng = np.random.default_rng(cfg.seed)
    params: ModelParams = {}
    for name, out_ch, in_ch, k, bias_init in _conv_spec(cfg):
        fan_in = in_ch * k * k
        bound = np.sqrt(6.0 / fan_in)
        if name == "head.out":
            # keep the initial density bias-dominated so the count starts at a
            # controlled scale instead of whatever the random features produce
            bound *= 0.1
        params[f"{name}.k"] = rng.uniform(
            -bound, bound, size=(out_ch, in_ch, k, k)
        ).astype(np.float32)
        params[f"{name}.b"] = np.full(out_ch, bias_init, dtype=np.float32)
    return params


def param_shapes(cfg: NetConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter the config implies, in init_params order."""
    shapes = {}
    for name, out_ch, in_ch, k, _ in _conv_spec(cfg):
        shapes[f"{name}.k"] = (out_ch, in_ch, k, k)
        shapes[f"{name}.b"] = (out_ch,)
    return shapes


def pass1_param_names(cfg: NetConfig) -> list[str]:
    """Parameters used only by the priority path (context, dilated head, decoder)."""
    return [name for name in param_shapes(cfg) if name.startswith(("ctx.", "aspp.", "dec."))]


def bind(tape: Tape, params: ModelParams, requires_grad: bool = True) -> dict[str, Tensor]:
    """Wrap the parameter arrays as leaf tensors on a tape."""
    return {name: tape.tensor(arr, requires_grad=requires_grad) for name, arr in params.items()}


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def padded_shape(h: int, w: int) -> tuple[int, int]:
    """The smallest input the network accepts that holds h x w: sides multiples of 8, >= 16."""
    return max(-(-h // 8) * 8, 16), max(-(-w // 8) * 8, 16)


def _conv(x: Tensor, p: dict[str, Tensor], name: str, dilation: int = 1) -> Tensor:
    return ad.conv2d(x, p[f"{name}.k"], bias=p[f"{name}.b"], dilation=dilation)


def _fuse(p: dict[str, Tensor], name: str, skip: Tensor, *deep: Tensor) -> Tensor:
    """Upsample each deep map to the skip's size, concatenate them and the skip, 1x1 conv + ReLU."""
    h, w = skip.shape[1], skip.shape[2]
    ups = [ad.upsample_bilinear(t, h, w) for t in deep]
    return ad.relu(_conv(ad.concat_channels(ups + [skip]), p, name))


def _backbone(x: Tensor, p: dict[str, Tensor]) -> list[Tensor]:
    """Features f2, f3, f4, f5 at strides 2, 4, 8, 8 (pooling after the first three blocks)."""
    feats = []
    h = x
    for i in range(4):
        h = ad.relu(_conv(h, p, f"bb.block{i + 1}"))
        if i < 3:
            h = ad.avgpool(h)
        feats.append(h)
    return feats


def pass1(x: Tensor, p: dict[str, Tensor], cfg: NetConfig) -> Tensor:
    """Image tensor [1, H, W] -> priority tensor [1, H, W] in [0, 1]."""
    _, h, w = x.shape
    f2, f3, f4, f5 = _backbone(x, p)
    fh, fw = f4.shape[1], f4.shape[2]

    # multi-grid pooled context on the stride-8 features
    branches = [f4]
    for g in cfg.pool_grids:
        b = ad.relu(_conv(ad.adaptive_avgpool(f4, g), p, f"ctx.scale{g}"))
        branches.append(ad.upsample_bilinear(b, fh, fw))
    ctx = ad.relu(_conv(ad.concat_channels(branches), p, "ctx.fuse"))

    # parallel dilated convolutions on the deepest features
    rate_outs = [
        ad.relu(_conv(f5, p, f"aspp.rate{r}", dilation=r)) for r in cfg.dilation_rates
    ]
    aspp = ad.relu(_conv(ad.concat_channels(rate_outs), p, "aspp.fuse"))

    # decode: everything meets the stride-4 skip, then stride 2, then full size
    d1 = _fuse(p, "dec.fuse1", f3, ctx, aspp)
    d2 = _fuse(p, "dec.fuse2", f2, d1)
    logits = ad.upsample_bilinear(_conv(d2, p, "dec.out"), h, w)
    return ad.sigmoid(logits)


def pass2(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Enhanced input [1, H, W] -> non-negative density tensor [1, H, W].

    Deep features are brought back to stride 2 through two skip fusions so
    the density heads can resolve individual heads, which are only a few
    pixels wide at this scale.
    """
    _, h, w = x.shape
    f2, f3, _, f5 = _backbone(x, p)

    d1 = _fuse(p, "head.fuse1", f3, f5)
    d2 = _fuse(p, "head.fuse2", f2, d1)

    # both heads read d2: one 2*HEAD_CHANNELS-filter convolution lowers it once
    heads = ("head.feat", "head.att")
    both = ad.conv2d(d2, ad.concat_channels([p[f"{n}.k"] for n in heads]),
                     bias=ad.concat_channels([p[f"{n}.b"] for n in heads]))
    feat = ad.relu(ad.slice_channels(both, 0, HEAD_CHANNELS))
    att = ad.sigmoid(ad.slice_channels(both, HEAD_CHANNELS, 2 * HEAD_CHANNELS))
    fused = _conv(ad.mul(feat, att), p, "head.out")
    density = ad.softplus(fused)
    return ad.upsample_bilinear(density, h, w)


def forward(x2d: Tensor, leaves: dict[str, Tensor], cfg: NetConfig) -> tuple[Tensor, Tensor]:
    """The two-pass pipeline on a [H, W] image tensor: pass 1 -> RA block -> pass 2.

    Returns the [H, W] priority and density tensors.  ShapeError unless the
    image is already of a size ``padded_shape`` returns.
    """
    shape = x2d.shape
    padded = padded_shape(*shape)
    if padded != shape:
        raise ShapeError(f"input is {shape[0]}x{shape[1]}; sides must be multiples of 8 and at "
                         f"least 16: reflect-pad to {padded[0]}x{padded[1]} first")
    prio2d = ad.reshape(pass1(ad.reshape(x2d, (1,) + shape), leaves, cfg), shape)
    enhanced = ra_apply(x2d, prio2d)
    density = pass2(ad.reshape(enhanced, (1,) + shape), leaves)
    return prio2d, ad.reshape(density, shape)


def full_forward(
    image: np.ndarray,
    heads: np.ndarray,
    params: ModelParams,
    cfg: NetConfig,
    delta: float,
    d_ratio: float,
    dtype=np.float32,
) -> ForwardResult:
    """Both passes plus the point-supervision loss, on a fresh tape."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ShapeError(f"expected a 2D image, got shape {image.shape}")
    tape = Tape(dtype)
    leaves = bind(tape, params)
    prio2d, density2d = forward(tape.tensor(image), leaves, cfg)
    loss = bayes_loss(density2d, heads, delta, d_ratio)
    return ForwardResult(loss=loss, density=density2d, priority=prio2d, leaves=leaves)


def predict(
    img: GrayImage, params: ModelParams, cfg: NetConfig, dtype=np.float32
) -> tuple[DensityMap, GrayImage]:
    """Inference on an image of any size: its float64 density map and its
    priority map (a GrayImage, so float32), both of that size.

    The image is reflect-padded to ``padded_shape`` for both passes without
    gradients, and the maps are cropped back.
    """
    h, w = img.height, img.width
    ph, pw = padded_shape(h, w)
    tape = Tape(dtype)
    leaves = bind(tape, params, requires_grad=False)
    x = tape.tensor(np.pad(img.pixels, ((0, ph - h), (0, pw - w)), mode="reflect"))
    prio2d, density2d = forward(x, leaves, cfg)
    return (
        DensityMap(np.asarray(density2d.data, dtype=np.float64)[:h, :w]),
        GrayImage(prio2d.data[:h, :w]),
    )
