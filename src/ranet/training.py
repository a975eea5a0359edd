"""Optimization harness: random crops, Adam updates, checkpoints, telemetry.

Samples are evaluated sequentially on fresh tapes and gradients reduced in
a fixed order, so a full run is byte-deterministic for a given seed.  The
per-epoch telemetry line is `epoch=<i> loss=<f> mae_train=<f>`.
"""

from __future__ import annotations

import io
import json
import math
import struct
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .bayes import check_spread
from .core import ConfigDoc, FormatError, GrayImage, PointAnnotations, Scene, parse_json
from .network import (ModelParams, NetConfig, full_forward, init_params, padded_shape,
                      param_shapes, pass1_param_names)

CHECKPOINT_MAGIC = b"RACK"
CHECKPOINT_VERSION = 1

ADAM_LR, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 1e-3, 0.9, 0.999, 1e-8
CLIP_NORM = 10.0  # batches whose global gradient norm exceeds this are scaled down to it


class TrainingError(RuntimeError):
    """Aborted run: non-finite loss or invalid training inputs."""


@dataclass(frozen=True)
class TrainConfig(ConfigDoc):
    batch_size: int = 8
    crop: int = 64
    epochs: int = 30
    # The point loss's Gaussian spread in pixels, and its background-band margin
    # as a fraction of the shorter crop side.  At 64x64 toy scale, delta 16 keeps
    # the posterior force field majority-foreground, which is what makes
    # from-scratch training converge instead of collapsing the density to zero
    # (measured, not theorized).
    delta: float = 16.0
    d_ratio: float = 0.1
    net: NetConfig = field(default_factory=NetConfig)
    seed: int = 0

    _retired = {"lr": ADAM_LR, "beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS,
                "clip_norm": CLIP_NORM}

    def __post_init__(self):
        super().__post_init__()
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if padded_shape(self.crop, self.crop) != (self.crop, self.crop):
            raise ValueError(f"crop must be a multiple of 8 and at least 16, got {self.crop}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (0 < self.d_ratio < 1):
            raise ValueError(f"d_ratio must lie in (0, 1), got {self.d_ratio}")
        # a head and a pixel of one crop lie less than crop apart on each axis,
        # and the background band d = d_ratio * crop is nearer still
        check_spread(self.delta, 2.0 * self.crop * self.crop, np.float32)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptState:
    """Adam first/second moments per parameter, plus the step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def fresh(cls, params: ModelParams) -> "OptState":
        return cls(
            step=0,
            m={k: np.zeros_like(a) for k, a in params.items()},
            v={k: np.zeros_like(a) for k, a in params.items()},
        )


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    mae_train: float
    pass1_grad_min: float   # smallest per-batch priority-path gradient norm
    pass1_grad_mean: float

    def telemetry(self) -> str:
        return f"epoch={self.epoch} loss={self.mean_loss:.6f} mae_train={self.mae_train:.6f}"


def random_crop(scene: Scene, size: int, rng: np.random.Generator) -> Scene:
    """Uniformly positioned square crop; annotations shifted, outsiders dropped."""
    h, w = scene.image.height, scene.image.width
    if size > h or size > w:
        raise ValueError(f"crop {size} exceeds image {h}x{w}")
    y0 = int(rng.integers(0, h - size + 1))
    x0 = int(rng.integers(0, w - size + 1))
    window = scene.image.pixels[y0 : y0 + size, x0 : x0 + size]
    pts = scene.annotations.points
    keep = (
        (pts[:, 0] >= x0)
        & (pts[:, 0] < x0 + size)
        & (pts[:, 1] >= y0)
        & (pts[:, 1] < y0 + size)
    )
    shifted = pts[keep] - np.array([x0, y0], dtype=np.float64)
    return Scene(GrayImage(window), PointAnnotations(shifted))


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.square(g, dtype=np.float64).sum())
    return float(np.sqrt(total))


def _adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: OptState) -> ModelParams:
    state.step += 1
    t = state.step
    b1 = np.float32(ADAM_BETA1)
    b2 = np.float32(ADAM_BETA2)
    corr1 = np.float32(1.0 - ADAM_BETA1**t)
    corr2 = np.float32(1.0 - ADAM_BETA2**t)
    lr = np.float32(ADAM_LR)
    eps = np.float32(ADAM_EPS)
    new_params: ModelParams = {}
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (np.float32(1.0) - b1) * g
        state.v[name] = b2 * state.v[name] + (np.float32(1.0) - b2) * g * g
        m_hat = state.m[name] / corr1
        v_hat = state.v[name] / corr2
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params


def train_epoch(
    params: ModelParams,
    scenes: list[Scene],
    cfg: TrainConfig,
    state: OptState,
    epoch: int,
) -> tuple[ModelParams, OptState, EpochStats]:
    """One shuffle-and-batch pass; deterministic in (cfg.seed, epoch)."""
    if not scenes:
        raise TrainingError("empty training set")
    rng = np.random.default_rng([cfg.seed, epoch])
    order = rng.permutation(len(scenes))
    p1_names = [n for n in pass1_param_names(cfg.net) if n in params]

    losses: list[float] = []
    count_errors: list[float] = []
    batch_norms: list[float] = []

    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        grad_sum: dict[str, np.ndarray] = {k: np.zeros_like(a) for k, a in params.items()}
        for sample_pos, idx in enumerate(batch):
            crop = random_crop(scenes[idx], cfg.crop, rng)
            res = full_forward(
                crop.image.pixels,
                crop.annotations.points,
                params,
                cfg.net,
                cfg.delta,
                cfg.d_ratio,
                dtype=np.float32,
            )
            loss_val = float(res.loss.data)
            if not np.isfinite(loss_val):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, sample {int(idx)} "
                    f"(batch position {sample_pos})"
                )
            ad.backward(res.loss)
            losses.append(loss_val)
            count_errors.append(
                abs(float(res.density.data.sum(dtype=np.float64)) - len(crop.annotations))
            )
            for name, leaf in res.leaves.items():
                if leaf.grad is not None:
                    grad_sum[name] += leaf.grad

        inv = np.float32(1.0 / len(batch))
        grads = {k: g * inv for k, g in grad_sum.items()}
        batch_norms.append(_global_norm({k: grads[k] for k in p1_names}))
        norm = _global_norm(grads)
        if norm > CLIP_NORM:
            factor = np.float32(CLIP_NORM / norm)
            grads = {k: g * factor for k, g in grads.items()}
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            params = _adam_step(params, grads, state)
        bad = next((k for k, a in params.items() if not np.isfinite(a).all()), None)
        if bad is not None:
            raise TrainingError(f"non-finite values in parameter {bad!r} after the step "
                                f"at epoch {epoch}, batch {start // cfg.batch_size}")

    stats = EpochStats(
        epoch=epoch,
        mean_loss=float(np.mean(losses)),
        mae_train=float(np.mean(count_errors)),
        pass1_grad_min=float(min(batch_norms)),
        pass1_grad_mean=float(np.mean(batch_norms)),
    )
    return params, state, stats


def train(
    scenes: list[Scene],
    cfg: TrainConfig,
    log_path=None,
    emit=print,
) -> tuple[ModelParams, list[EpochStats]]:
    """Full run from fresh parameters; emits one telemetry line per epoch."""
    if not scenes:
        raise TrainingError("empty training set")
    for scene in scenes:
        if cfg.crop > scene.image.height or cfg.crop > scene.image.width:
            raise TrainingError(
                f"crop {cfg.crop} exceeds a {scene.image.height}x{scene.image.width} image"
            )
    params = init_params(cfg.net)
    state = OptState.fresh(params)
    history: list[EpochStats] = []
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log_fh:
        if log_fh:
            log_fh.write("epoch,loss,mae_train,pass1_grad_min,pass1_grad_mean\n")
        for epoch in range(cfg.epochs):
            params, state, stats = train_epoch(params, scenes, cfg, state, epoch)
            history.append(stats)
            if emit:
                emit(stats.telemetry())
            if log_fh:
                log_fh.write(
                    f"{stats.epoch},{stats.mean_loss:.9g},{stats.mae_train:.9g},"
                    f"{stats.pass1_grad_min:.9g},{stats.pass1_grad_mean:.9g}\n"
                )
    return params, history


# ---------------------------------------------------------------------------
# RACK checkpoint format
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, cfg: TrainConfig, path) -> None:
    """Magic, version, length-prefixed config JSON, then named float32 records.

    ValueError, before the file is opened, unless the tensors have the names
    and shapes the config implies and finite float32 values (load_checkpoint
    would refuse the file)."""
    shapes = {name: arr.shape for name, arr in params.items()}
    expected = param_shapes(cfg.net)
    if shapes != expected:
        wrong = sorted(n for n in shapes.keys() | expected.keys() if shapes.get(n) != expected.get(n))
        raise ValueError("tensors missing, unexpected or not shaped as the config implies: "
                         + ", ".join(map(repr, wrong)))
    for name, arr in params.items():
        if not np.all(np.abs(arr) <= np.finfo(np.float32).max):
            raise ValueError(f"tensor {name!r} holds values that are not finite in float32")
    doc = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4s2I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(doc)) + doc)
        for name, arr in params.items():
            name_b = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(name_b)}sI{arr.ndim}I", len(name_b), name_b,
                                 arr.ndim, *arr.shape))
            fh.write(arr.astype("<f4").tobytes(order="C"))


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    """Read a RACK file; FormatError unless it holds exactly the tensors its
    config implies, with the implied shapes and finite values.  A config block
    from an older build loads if each retired key holds the value now fixed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    stream = io.BytesIO(blob)

    def unpack(fmt: str) -> tuple:  # struct.error if the file ends first
        return struct.unpack("<" + fmt, stream.read(struct.calcsize("<" + fmt)))

    try:
        if unpack("4s") != (CHECKPOINT_MAGIC,):
            raise FormatError(f"{path}: bad checkpoint magic")
        (version,) = unpack("I")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (doc_len,) = unpack("I")
        doc = parse_json(*unpack(f"{doc_len}s"), f"{path}: config block")
        try:
            cfg = TrainConfig.from_dict(doc)
        except ValueError as exc:  # not a valid config
            raise FormatError(f"{path}: unreadable config block ({exc})") from None
        expected = param_shapes(cfg.net)
        params: ModelParams = {}
        while stream.tell() < len(blob):
            (name_len,) = unpack("I")
            try:
                name = unpack(f"{name_len}s")[0].decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: a tensor name is not UTF-8") from None
            if name not in expected or name in params:
                raise FormatError(f"{path}: unexpected or repeated tensor {name!r}")
            want = expected[name]
            (rank,) = unpack("I")
            if rank != len(want) or unpack(f"{rank}I") != want:
                raise FormatError(
                    f"{path}: tensor {name!r} is not shaped {want} as the config implies")
            data = np.frombuffer(unpack(f"{4 * math.prod(want)}s")[0], "<f4").reshape(want)
            if not np.isfinite(data).all():
                raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
            params[name] = data.copy()
    except struct.error:
        raise FormatError(f"{path}: truncated checkpoint") from None
    missing = [name for name in expected if name not in params]
    if missing:
        raise FormatError(f"{path}: missing tensors {', '.join(missing)}")
    return params, cfg
