#!/usr/bin/env python3
"""Train the miniature feedback network on a small corpus and evaluate it.

Kept deliberately small (60 train scenes, 15 epochs, about 8 s on two cores)
so it is a demo, not a benchmark; the full default recipe lives in the
acceptance suite and the CLI (`ranet gen` / `ranet train` / `ranet eval`).
"""

import pathlib
import tempfile
import time

import numpy as np

from ranet.datagen import SceneSpec, gen_dataset, load_split
from ranet.evaluate import evaluate_scenes
from ranet.network import predict
from ranet.training import TrainConfig, save_checkpoint, train

# The corpus and the checkpoint go to temporary directories removed on exit.
with tempfile.TemporaryDirectory(prefix="run_") as tmp:
    manifest = gen_dataset(SceneSpec(seed=0), n_train=60, n_test=10, out_dir=tmp)
    train_scenes = load_split(manifest, "train")
    test_scenes = load_split(manifest, "test")

counts = [len(s.annotations) for s in train_scenes]
mean_count = float(np.mean(counts))
const_mae = float(np.mean([abs(len(s.annotations) - mean_count) for s in test_scenes]))
print(f"{len(train_scenes)} train / {len(test_scenes)} test scenes, "
      f"mean train count {mean_count:.2f}")
print(f"baseline: always predicting the mean scores test MAE {const_mae:.3f}")
print()

cfg = TrainConfig(epochs=15, seed=0)
t0 = time.time()
params, history = train(train_scenes, cfg)  # prints one telemetry line per epoch
print(f"trained in {time.time() - t0:.0f}s")
print()

report = evaluate_scenes(test_scenes, params, cfg.net)
print(report.summary())
print(f"vs constant predictor: {report.mae / const_mae:.2f}x its MAE")
print()

scene = test_scenes[0]
dmap, prio = predict(scene.image, params, cfg.net)
print(f"sample scene: true count {len(scene.annotations)}, "
      f"predicted {dmap.count:.2f}")
print(f"priority map range [{prio.pixels.min():.3f}, {prio.pixels.max():.3f}]")

with tempfile.TemporaryDirectory(prefix="run_") as tmp:
    ckpt = pathlib.Path(tmp) / "model.rack"
    save_checkpoint(params, cfg, ckpt)
    print(f"checkpoint: {ckpt.stat().st_size} bytes")
print()
print("CLI equivalent:")
print("  ranet gen --out data --train 60 --test 10 --seed 0")
print("  ranet train --data data --out model.rack --epochs 15 --seed 0")
print("  ranet eval --ckpt model.rack --data data --split test")
