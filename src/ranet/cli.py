"""Command-line surface: gen / train / eval / infer / ra.

Exit codes: 0 success, 1 usage error, 2 data or format error (a malformed or
inconsistent file, a file-system error such as a missing file or a path through
a file, a wrong image shape, non-finite numbers).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .autodiff import NumericError, ShapeError
from .core import FormatError, GrayImage, load_image, save_density, save_image
from .datagen import SceneSpec, gen_dataset, load_split
from .evaluate import evaluate_checkpoint
from .network import NetConfig, predict
from .region_aware import enhance
from .training import TrainConfig, TrainingError, load_checkpoint, save_checkpoint, train

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ranet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    scene_defaults = SceneSpec()
    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=scene_defaults.seed)
    p_gen.add_argument("--train", type=int, default=200)
    p_gen.add_argument("--test", type=int, default=50)
    p_gen.add_argument("--width", type=int, default=scene_defaults.width)
    p_gen.add_argument("--height", type=int, default=scene_defaults.height)
    p_gen.add_argument("--min-heads", type=int, default=scene_defaults.min_heads)
    p_gen.add_argument("--max-heads", type=int, default=scene_defaults.max_heads)

    train_defaults = TrainConfig()
    p_train = sub.add_parser("train", help="train on a generated dataset")
    p_train.add_argument("--data", required=True, help="dataset directory (with manifest.json)")
    p_train.add_argument("--out", required=True, help="checkpoint path to write")
    p_train.add_argument("--epochs", type=int, default=train_defaults.epochs)
    p_train.add_argument("--lr", type=float, default=train_defaults.lr)
    p_train.add_argument("--batch", type=int, default=train_defaults.batch_size)
    p_train.add_argument("--crop", type=int, default=train_defaults.crop)
    p_train.add_argument("--delta", type=float, default=train_defaults.delta,
                         help="Gaussian spread of the point-supervision loss, pixels")
    p_train.add_argument("--d-ratio", type=float, default=train_defaults.d_ratio,
                         help="background margin as a fraction of the shorter crop side")
    p_train.add_argument("--seed", type=int, default=train_defaults.seed)
    p_train.add_argument("--single-thread", action="store_true",
                         help="sequential sample evaluation (the default and only mode)")
    p_train.add_argument("--log", metavar="CSV", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=("train", "test"), required=True)
    p_eval.add_argument("-v", "--verbose", action="store_true")

    p_infer = sub.add_parser("infer", help="run inference on one image")
    p_infer.add_argument("--ckpt", required=True)
    p_infer.add_argument("--image", required=True)
    p_infer.add_argument("--out", required=True, help="density map path (RADM)")
    p_infer.add_argument("--viz", default=None, help="optional grayscale rendering (PGM)")

    p_ra = sub.add_parser("ra", help="apply the region-aware block to an image pair")
    p_ra.add_argument("--image", required=True)
    p_ra.add_argument("--priority", required=True)
    p_ra.add_argument("--out", required=True)
    p_ra.add_argument("--diff", default=None, help="optional |out - in| rendering (PGM)")
    p_ra.add_argument("--temp", type=float, default=1.0)
    return parser


def _cmd_gen(args) -> int:
    spec = SceneSpec(
        width=args.width,
        height=args.height,
        min_heads=args.min_heads,
        max_heads=args.max_heads,
        seed=args.seed,
    )
    manifest = gen_dataset(spec, args.train, args.test, args.out)
    print(f"wrote {args.train} train / {args.test} test scenes; manifest at {manifest}")
    return 0


def _check_out_path(path, flag: str) -> None:
    """Refuse an output path that cannot be written, before any work is done."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"{flag} {out}: is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"{flag} {out}: no directory {out.parent}")


def _cmd_train(args) -> int:
    _check_out_path(args.out, "--out")
    cfg = TrainConfig(
        lr=args.lr,
        batch_size=args.batch,
        crop=args.crop,
        epochs=args.epochs,
        delta=args.delta,
        d_ratio=args.d_ratio,
        net=NetConfig(seed=args.seed),
        seed=args.seed,
    )
    scenes = load_split(Path(args.data) / "manifest.json", "train")
    params, _ = train(scenes, cfg, log_path=args.log)
    save_checkpoint(params, cfg, args.out)
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    report = evaluate_checkpoint(args.ckpt, Path(args.data) / "manifest.json", args.split)
    if args.verbose:
        for line in report.per_image_lines():
            print(line)
    print(report.summary())
    return 0


def _cmd_infer(args) -> int:
    _check_out_path(args.out, "--out")
    if args.viz:
        _check_out_path(args.viz, "--viz")
    params, cfg = load_checkpoint(args.ckpt)
    dmap, _ = predict(load_image(args.image), params, cfg.net)
    save_density(dmap, args.out)
    if args.viz:
        _save_peak_normalized(dmap.values, args.viz)
    print(f"count={dmap.count:.6f}")
    return 0


def _cmd_ra(args) -> int:
    _check_out_path(args.out, "--out")
    if args.diff:
        _check_out_path(args.diff, "--diff")
    image = load_image(args.image)
    enhanced = enhance(image.pixels, load_image(args.priority).pixels, args.temp)
    save_image(GrayImage(np.clip(enhanced, 0.0, 1.0)), args.out)
    if args.diff:
        _save_peak_normalized(np.abs(enhanced - image.pixels), args.diff)
    return 0


def _save_peak_normalized(values: np.ndarray, path) -> None:
    """Render a non-negative map as a PGM whose maximum is white."""
    peak = float(values.max())
    save_image(GrayImage(values / peak if peak > 0 else np.zeros_like(values)), path)


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "ra": _cmd_ra,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, OSError, NumericError, ShapeError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
