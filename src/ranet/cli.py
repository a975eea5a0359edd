"""Command-line surface: gen / train / eval / infer.

Exit codes: 0 success, 1 usage error, 2 data or format error (a malformed or
inconsistent file, a file-system error such as a missing file or a path through
a file, a training image smaller than the crop, non-finite numbers).
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
from .datagen import MANIFEST_KEYS, SceneSpec, gen_dataset, load_manifest, load_split
from .evaluate import evaluate_scenes
from .network import NetConfig, predict
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
    # outputs=(): its --out is a directory it creates
    p_gen.set_defaults(run=_cmd_gen, outputs=(), inputs=lambda a: [])

    p_train = sub.add_parser("train", help="train on a generated dataset",
                             argument_default=argparse.SUPPRESS)
    p_train.add_argument("--data", required=True, help="dataset directory (with manifest.json)")
    p_train.add_argument("--out", required=True, help="checkpoint path to write")
    p_train.add_argument("--epochs", type=int)
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
    p_train.set_defaults(run=_cmd_train, outputs=("--out", "--log"), inputs=_dataset_files)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=("train", "test"), required=True)
    p_eval.add_argument("-v", "--verbose", action="store_true")
    p_eval.set_defaults(run=_cmd_eval, outputs=(), inputs=lambda a: [])

    p_infer = sub.add_parser("infer", help="run inference on one image")
    p_infer.add_argument("--ckpt", required=True)
    p_infer.add_argument("--image", required=True)
    p_infer.add_argument("--out", required=True, help="density map path (RADM)")
    p_infer.add_argument("--viz", default=None, help="optional grayscale rendering (PGM)")
    p_infer.set_defaults(run=_cmd_infer, outputs=("--out", "--viz"),
                         inputs=lambda a: [("--ckpt", a.ckpt), ("--image", a.image)])
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
    params, cfg = load_checkpoint(args.ckpt)
    report = evaluate_scenes(load_split(Path(args.data) / "manifest.json", args.split),
                             params, cfg.net)
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


def _save_peak_normalized(values: np.ndarray, path) -> None:
    """Render a non-negative map as a PGM whose maximum is white."""
    peak = float(values.max())
    save_image(GrayImage(values / peak if peak > 0 else np.zeros_like(values)), path)


def _dataset_files(args) -> list[tuple[str, Path]]:
    """train's inputs: the manifest and every image and annotation file it lists."""
    manifest = Path(args.data) / "manifest.json"
    doc = load_manifest(manifest)
    return [("--data", manifest)] + [("--data", manifest.parent / entry[key])
                                     for split in ("train", "test") for entry in doc[split]
                                     for key in MANIFEST_KEYS]


def _file_key(path):
    """One key per file: hard links share (st_dev, st_ino); a path to no file yet
    is known by its real path, so a dangling symlink meets its target."""
    try:
        st = os.stat(path)
    except (FileNotFoundError, NotADirectoryError):
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_outputs(args) -> None:
    """Refuse an output path that cannot be written, then one that an input file or
    an earlier output flag already names, before the command reads its data."""
    outputs = [(flag, Path(path)) for flag in args.outputs
               if (path := getattr(args, flag[2:])) is not None]
    for flag, out in outputs:
        if out.is_dir():
            raise IsADirectoryError(f"{flag} {out}: is a directory")
        if not out.parent.is_dir():
            raise FileNotFoundError(f"{flag} {out}: no directory {out.parent}")
    named = {_file_key(path): flag for flag, path in args.inputs(args)}
    for flag, out in outputs:
        first = named.setdefault(_file_key(out), flag)
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
