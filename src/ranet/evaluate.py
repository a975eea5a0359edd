"""Count-error metrics and the evaluation of a model on a list of scenes.

MAE is the mean absolute count error.  MSE here is the square root of the
mean squared count error (a root-mean-square; the conventional name in
this problem domain is kept even though it is not a plain mean of squares).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Scene
from .network import ModelParams, NetConfig, predict


def count_metrics(estimated, ground_truth) -> tuple[float, float]:
    """(MAE, root-mean-square error) of two equal-length count sequences."""
    est = np.asarray(estimated, dtype=np.float64)
    gt = np.asarray(ground_truth, dtype=np.float64)
    if est.shape != gt.shape or est.ndim != 1 or est.size == 0:
        raise ValueError(f"need matching non-empty count vectors, got {est.shape} and {gt.shape}")
    err = np.abs(est - gt)
    return float(err.mean()), float(np.sqrt((err**2).mean()))


@dataclass(frozen=True)
class EvalReport:
    predicted: tuple[float, ...]
    ground_truth: tuple[float, ...]

    def __post_init__(self):
        if len(self.predicted) != len(self.ground_truth) or not self.predicted:
            raise ValueError("report needs matching non-empty count lists")

    @property
    def n_images(self) -> int:
        return len(self.predicted)

    @property
    def mae(self) -> float:
        return count_metrics(self.predicted, self.ground_truth)[0]

    @property
    def mse(self) -> float:
        return count_metrics(self.predicted, self.ground_truth)[1]

    def summary(self) -> str:
        return f"N={self.n_images} MAE={self.mae:.6f} MSE={self.mse:.6f}"

    def per_image_lines(self) -> list[str]:
        return [
            f"image={i} predicted={p:.6f} ground_truth={g:.6f} abs_error={abs(p - g):.6f}"
            for i, (p, g) in enumerate(zip(self.predicted, self.ground_truth))
        ]


def evaluate_scenes(scenes: list[Scene], params: ModelParams, cfg: NetConfig) -> EvalReport:
    """Predicted count = density sum per image; ground truth = annotation count."""
    predicted = []
    ground_truth = []
    for scene in scenes:
        dmap, _ = predict(scene.image, params, cfg)
        predicted.append(dmap.count)
        ground_truth.append(float(len(scene.annotations)))
    return EvalReport(tuple(predicted), tuple(ground_truth))

