"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs are a pool of scenes from
``datagen.gen_scene``, generated at set-up from the run's seed and cycled
through.  A run always completes one pass over its pool whatever its time
budget, because the training loss is taken on that pass.

The program is always reached through module attributes (``training.
train_epoch``, ``network.predict``), so the span wrappers of a traced run see
the calls.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ranet import datagen, network, training

CHECKPOINT = Path(__file__).resolve().parent / "checkpoint" / "infer256.rack"

BATCH = 8            # scenes per optimizer step: train_epoch on one slice is one Adam step
F64_SUBSET = (0, 1)  # pool images whose float32 count is checked against float64
F64_RTOL = 1e-4      # relative tolerance of that check
EVAL_SEED, EVAL_IMAGES = 0, 16  # fixed evaluation set of the count MAE


def _digest(scenes) -> str:
    h = hashlib.sha256()
    for scene in scenes:
        h.update(scene.image.pixels.tobytes())
        h.update(scene.annotations.points.tobytes())
    return h.hexdigest()[:16]


def _scenes(seed: int, side: int, min_heads: int, max_heads: int, count: int):
    spec = datagen.SceneSpec(width=side, height=side, min_heads=min_heads,
                             max_heads=max_heads, seed=seed)
    return [datagen.gen_scene(spec, i) for i in range(count)]


def _spread_scenes(seed: int, side: int, min_heads: int, max_heads: int, count: int):
    """Scenes whose head counts step evenly from min_heads to max_heads.

    Loss and Bayes cost grow with the head count, so drawing the counts
    would make both vary with the seed; only the head positions do here.
    The counts are interleaved so that every BATCH-scene slice spans the
    whole range and every step costs about the same.
    """
    heads = np.linspace(min_heads, max_heads, count).round().astype(int)
    heads = heads.reshape(BATCH, -1).T.ravel()
    return [
        datagen.gen_scene(datagen.SceneSpec(width=side, height=side, min_heads=int(n),
                                            max_heads=int(n), seed=seed), i)
        for i, n in enumerate(heads)
    ]


class TrainSession:
    """One optimizer step per operation, on successive BATCH-scene slices."""

    items_per_op = BATCH
    names = {"op_ms": "step_ms", "items_per_s": "samples_per_s", "count_error": "train_loss"}

    def __init__(self, scenes, cfg: training.TrainConfig):
        self.scenes = scenes
        self.cfg = cfg
        self.pool_ops = len(scenes) // BATCH
        self.params = network.init_params(cfg.net)
        self.state = training.OptState.fresh(self.params)
        self.first_pass_losses: dict[int, float] = {}
        self.inputs_digest = _digest(scenes)

    def op(self, i: int):
        lo = (i % self.pool_ops) * BATCH
        return training.train_epoch(self.params, self.scenes[lo : lo + BATCH],
                                    self.cfg, self.state, i)

    def accept(self, i: int, out) -> str | None:
        params, _, stats = out
        if not np.isfinite(stats.mean_loss):
            return f"non-finite loss {stats.mean_loss}"
        bad = [name for name, arr in params.items() if not np.isfinite(arr).all()]
        if bad:
            return f"non-finite parameters after the step: {', '.join(bad[:3])}"
        self.params = params
        if i < self.pool_ops:
            self.first_pass_losses[i] = stats.mean_loss
        return None

    def finish(self, tally) -> dict:
        return {}

    def quality(self) -> float:
        """Mean loss over the first pass of the pool: fixed for a seed and a build."""
        return float(np.mean(list(self.first_pass_losses.values())))


def _density_problem(dmap) -> str | None:
    values = dmap.values
    if not np.isfinite(values).all():
        return "non-finite density"
    if values.min() < 0:
        return f"negative density {values.min():.6g}"
    return None


class InferSession:
    """One ``predict`` call per operation, on successive pool images.

    The count MAE is taken after the timed loop on a fixed evaluation set,
    the same for every seed: over a seed's own 48 images the MAE still
    varied by about 20% between seeds, too much to gate a regression on.
    """

    items_per_op = 1
    names = {"op_ms": "latency_ms", "items_per_s": "images_per_s", "count_error": "count_mae"}

    def __init__(self, scenes, params, net: network.NetConfig):
        self.scenes = scenes
        self.params = params
        self.net = net
        self.pool_ops = len(scenes)
        self.f32_counts: dict[int, float] = {}
        self.inputs_digest = _digest(scenes)
        self.mae = float("nan")

    def op(self, i: int):
        return network.predict(self.scenes[i % self.pool_ops].image, self.params, self.net)

    def accept(self, i: int, out) -> str | None:
        problem = _density_problem(out[0])
        if problem is None and i in F64_SUBSET:
            self.f32_counts[i] = out[0].count
        return problem

    def finish(self, tally) -> dict:
        """Check float32 against float64 counts, then score the evaluation set.

        The evaluation predictions are untimed operations: they count as
        attempted, and fail like timed ones.
        """
        rel_diffs = {}
        for i, c32 in self.f32_counts.items():
            try:
                c64 = network.predict(self.scenes[i].image, self.params, self.net,
                                      dtype=np.float64)[0].count
            except Exception as exc:  # the check failed, so the operation did
                tally.fail(i, f"float64 predict: {type(exc).__name__}: {exc}")
                continue
            rel_diffs[i] = abs(c32 - c64) / max(abs(c64), 1e-12)
            if rel_diffs[i] > F64_RTOL:
                tally.fail(i, f"float32 count is {rel_diffs[i]:.3g} from float64, over {F64_RTOL}")
        errors = []
        for scene in _scenes(EVAL_SEED, 256, 20, 150, EVAL_IMAGES):
            j = tally.attempt()
            try:
                dmap = network.predict(scene.image, self.params, self.net)[0]
            except Exception as exc:  # counted like a failed timed operation
                tally.fail(j, f"evaluation predict: {type(exc).__name__}: {exc}")
                continue
            problem = _density_problem(dmap)
            if problem:
                tally.fail(j, f"evaluation predict: {problem}")
            else:
                errors.append(abs(dmap.count - len(scene.annotations)))
        self.mae = float(np.mean(errors)) if errors else float("nan")
        return {"f64_rel_diff_max": max(rel_diffs.values(), default=None), "f64_rtol": F64_RTOL,
                "eval_images": EVAL_IMAGES, "eval_scored": len(errors)}

    def quality(self) -> float:
        """Mean |predicted - annotated| count over the evaluation set."""
        return self.mae


def setup_train_sparse64(seed: int) -> TrainSession:
    # The default corpus spec and size: 200 scenes of 64x64 with 1-15 heads.
    return TrainSession(_scenes(seed, 64, 1, 15, 200), training.TrainConfig(crop=64, epochs=1))


def setup_train_dense128(seed: int) -> TrainSession:
    return TrainSession(_spread_scenes(seed, 128, 60, 120, 48),
                        training.TrainConfig(crop=128, epochs=1))


def setup_infer256(seed: int) -> InferSession:
    params, cfg = training.load_checkpoint(CHECKPOINT)
    return InferSession(_scenes(seed, 256, 20, 150, 16), params, cfg.net)


SETUPS = {
    "train-sparse64": setup_train_sparse64,
    "train-dense128": setup_train_dense128,
    "infer256": setup_infer256,
}
