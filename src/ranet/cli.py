"""Command-line surface: gen / train / eval / infer / ra.

Exit codes: 0 success, 1 usage error, 2 data or format error (a malformed or
inconsistent file, a file-system error such as a missing file or a path through
a file, a wrong image shape, non-finite numbers).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
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

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--train", type=int, default=200)
    p_gen.add_argument("--test", type=int, default=50)
    p_gen.add_argument("--width", type=int)
    p_gen.add_argument("--height", type=int)
    p_gen.add_argument("--min-heads", type=int)
    p_gen.add_argument("--max-heads", type=int)
    p_gen.set_defaults(run=_cmd_gen, outputs=())  # its --out is a directory it creates

    p_train = sub.add_parser("train", help="train on a generated dataset",
                             argument_default=argparse.SUPPRESS)
    p_train.add_argument("--data", required=True, help="dataset directory (with manifest.json)")
    p_train.add_argument("--out", required=True, help="checkpoint path to write")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--batch", type=int, dest="batch_size", metavar="BATCH")
    p_train.add_argument("--crop", type=int)
    p_train.add_argument("--delta", type=float,
                         help="Gaussian spread of the point-supervision loss, pixels")
    p_train.add_argument("--d-ratio", type=float,
                         help="background margin as a fraction of the shorter crop side")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--single-thread", action="store_true",
                         help="sequential sample evaluation (the default and only mode)")
    p_train.add_argument("--log", metavar="CSV", default=None)
    p_train.set_defaults(run=_cmd_train, outputs=("--out", "--log"))

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=("train", "test"), required=True)
    p_eval.add_argument("-v", "--verbose", action="store_true")
    p_eval.set_defaults(run=_cmd_eval, outputs=())

    p_infer = sub.add_parser("infer", help="run inference on one image")
    p_infer.add_argument("--ckpt", required=True)
    p_infer.add_argument("--image", required=True)
    p_infer.add_argument("--out", required=True, help="density map path (RADM)")
    p_infer.add_argument("--viz", default=None, help="optional grayscale rendering (PGM)")
    p_infer.set_defaults(run=_cmd_infer, outputs=("--out", "--viz"))

    p_ra = sub.add_parser("ra", help="apply the region-aware block to an image pair")
    p_ra.add_argument("--image", required=True)
    p_ra.add_argument("--priority", required=True)
    p_ra.add_argument("--out", required=True)
    p_ra.add_argument("--diff", default=None, help="optional |out - in| rendering (PGM)")
    p_ra.add_argument("--temp", type=float, default=1.0)
    p_ra.set_defaults(run=_cmd_ra, outputs=("--out", "--diff"))
    return parser


def _given(cls, args, **nested):
    """A cls of the settings given; an omitted one is not in args and keeps cls's default."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given}, **nested)


def _cmd_gen(args) -> int:
    manifest = gen_dataset(_given(SceneSpec, args), args.train, args.test, args.out)
    print(f"wrote {args.train} train / {args.test} test scenes; manifest at {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = _given(TrainConfig, args, net=_given(NetConfig, args))  # --seed sets both seeds
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
    params, cfg = load_checkpoint(args.ckpt)
    dmap, _ = predict(load_image(args.image), params, cfg.net)
    save_density(dmap, args.out)
    if args.viz:
        _save_peak_normalized(dmap.values, args.viz)
    print(f"count={dmap.count:.6f}")
    return 0


def _cmd_ra(args) -> int:
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


def _check_outputs(args) -> None:
    """Refuse an output path that cannot be written, or that an earlier output
    flag already names, before any input is read."""
    named = {}
    for flag in args.outputs:
        if (path := getattr(args, flag[2:])) is None:
            continue
        out = Path(path)
        if out.is_dir():
            raise IsADirectoryError(f"{flag} {out}: is a directory")
        if not out.parent.is_dir():
            raise FileNotFoundError(f"{flag} {out}: no directory {out.parent}")
        first = named.setdefault(os.path.realpath(out), flag)  # Path.resolve raises on a loop
        if first != flag:
            raise ValueError(f"{flag} {out}: {first} names the same file")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        _check_outputs(args)
        return args.run(args)
    except (FormatError, OSError, MemoryError, NumericError, ShapeError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
