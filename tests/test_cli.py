"""End-to-end CLI behavior through the real subcommands on tiny datasets."""

import argparse
import importlib
import inspect
import json
import pkgutil
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import hand_built_rack
import ranet
from ranet import autodiff, cli, training
from ranet.cli import main
from ranet.core import load_density, load_image, save_image, GrayImage
from ranet.datagen import MANIFEST_KEYS, SceneSpec, load_manifest, load_split
from ranet.network import NetConfig, full_forward, init_params, predict
from ranet.training import TrainConfig, load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]
# a default-recipe checkpoint (grids up to 6), read only
INFER256 = ROOT / "perfbench" / "checkpoint" / "infer256.rack"

FAST_TRAIN = [
    "--epochs", "2", "--batch", "4", "--crop", "32",
    "--delta", "4.0", "--d-ratio", "0.25",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = main([
        "gen", "--out", str(root), "--seed", "3", "--train", "6", "--test", "3",
        "--width", "32", "--height", "32", "--max-heads", "5",
    ])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def head_free_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("head_free")
    rc = main([
        "gen", "--out", str(root), "--seed", "3", "--train", "2", "--test", "1",
        "--width", "32", "--height", "32", "--min-heads", "0", "--max-heads", "0",
    ])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "model.rack"
    rc = main([
        "train", "--data", str(dataset), "--out", str(ckpt), "--seed", "1",
        *FAST_TRAIN,
    ])
    assert rc == 0
    return ckpt


def test_flag_defaults_are_the_config_defaults(dataset, tmp_path, monkeypatch):
    # a setting left off takes its config dataclass's default; --seed sets both seeds
    specs = []
    monkeypatch.setattr(cli, "gen_dataset", lambda spec, *rest: specs.append(spec) or "m")
    assert main(["gen", "--out", str(tmp_path / "d")]) == 0
    assert specs == [SceneSpec()]
    short = TrainConfig(epochs=1, crop=32)
    for flags, want in [([], short),
                        (["--batch", "4", "--seed", "7"],
                         replace(short, batch_size=4, seed=7, net=NetConfig(seed=7)))]:
        ckpt = tmp_path / "m.rack"
        assert main(["train", "--data", str(dataset), "--out", str(ckpt),
                     "--epochs", "1", "--crop", "32", *flags]) == 0
        assert load_checkpoint(ckpt)[1] == want


@pytest.mark.parametrize("argv, message", [
    (["gen", "--out", "d", "--noise", "0.1"], "unrecognized arguments: --noise 0.1"),
    (["train", "--data", "d", "--out", "m.rack", "--ra-temp", "2"],
     "unrecognized arguments: --ra-temp 2"),
    (["ra", "--image", "q.pgm", "--priority", "a.pgm", "--out", "o.pgm"],
     "invalid choice: 'ra'"),
], ids=["gen-noise", "train-ra-temp", "ra"])
def test_flags_of_fixed_settings_are_unknown(argv, message, capsys):
    # the scene noise and the RA temperature are constants; the RA block runs only in the network
    assert main(argv) == 1
    assert message in capsys.readouterr().err


# every long option of each command; a new one must be added here on purpose
OPTIONS = {
    "gen": ["--height", "--max-heads", "--min-heads", "--out", "--seed", "--test", "--train",
            "--width"],
    "train": ["--batch", "--crop", "--d-ratio", "--data", "--delta", "--epochs", "--log",
              "--out", "--seed", "--single-thread"],
    "eval": ["--ckpt", "--data", "--split", "--verbose"],
    "infer": ["--ckpt", "--image", "--out", "--viz"],
}


def command_options() -> dict[str, list[str]]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: sorted(o for a in p._actions for o in a.option_strings
                         if o.startswith("--") and o != "--help")
            for name, p in sub.choices.items()}


def test_long_options_by_command():
    assert command_options() == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 26


def test_readme_command_line_names_only_real_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    options = command_options()
    lines = block.strip().splitlines()
    assert [line.split()[1] for line in lines] == list(options)
    for line in lines:
        command = line.split()[1]
        for flag in re.findall(r"--[a-z-]+", line.split("#")[0]):
            assert flag in options[command], f"README names {flag} for ranet {command}"


def test_readme_python_api_names_only_real_functions():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"## Python API\n(.*?)\n## ", readme, re.S).group(1)
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", section))
    modules = {m.name: importlib.import_module(f"ranet.{m.name}")
               for m in pkgutil.iter_modules(ranet.__path__)}
    assert "predict" in names
    for name in names:
        owner, _, attr = name.rpartition(".")
        found = [getattr(m, attr, None) for key, m in modules.items() if owner in ("", key)]
        assert any(map(callable, found)), f"README's Python API names {name}(, which is gone"


# every parameter of these functions has a caller; a knob must be added here on purpose
NARROWED = {
    autodiff.avgpool: ["x"],
    full_forward: ["image", "heads", "params", "cfg", "delta", "d_ratio", "dtype"],
    training.train: ["scenes", "cfg", "log_path"],
}


@pytest.mark.parametrize("fn", NARROWED, ids=lambda fn: fn.__name__)
def test_narrowed_functions_take_only_what_the_program_passes(fn):
    assert list(inspect.signature(fn).parameters) == NARROWED[fn]


class TestGen:
    def test_manifest_resolves(self, dataset):
        doc = load_manifest(dataset / "manifest.json")
        assert len(doc["train"]) == 6 and len(doc["test"]) == 3
        for entry in doc["train"] + doc["test"]:
            assert tuple(entry) == MANIFEST_KEYS
            assert all((dataset / entry[key]).is_file() for key in MANIFEST_KEYS)

    def test_side_below_limit_names_it(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path), "--width", "10", "--height", "10"])
        assert rc == 1
        assert "at least 11 pixels" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [("-3", "-1"), ("-1", "0"), ("0", "-1")],
                             ids=["both", "train", "test"])
    def test_negative_count_is_usage_error(self, counts, tmp_path, capsys):
        out = tmp_path / "d"
        rc = main(["gen", "--out", str(out), "--train", counts[0], "--test", counts[1]])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not out.exists()

    def test_negative_seed_is_usage_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "d"
        rc = main(["gen", "--out", str(out), "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and "seed" in err[0]
        assert not out.exists()

    def test_min_heads_above_max_heads_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen", "--out", str(out), "--min-heads", "5", "--max-heads", "3"]) == 1
        assert capsys.readouterr().err == "usage error: need 0 <= min_heads <= max_heads\n"
        assert not out.exists()

    def test_zero_counts_write_an_empty_manifest(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"), "--train", "0", "--test", "0"]) == 0
        doc = load_manifest(tmp_path / "d" / "manifest.json")
        assert doc["train"] == [] and doc["test"] == []


class TestTrainEval:
    def test_train_writes_checkpoint_and_telemetry(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.rack"
        rc = main([
            "train", "--data", str(dataset), "--out", str(ckpt), "--seed", "2",
            "--single-thread", *FAST_TRAIN,
        ])
        out = capsys.readouterr().out
        assert rc == 0 and ckpt.exists()
        lines = [ln for ln in out.splitlines() if ln.startswith("epoch=")]
        assert len(lines) == 2 and "mae_train=" in lines[0]

    def test_train_keeps_the_default_pooling_grids_at_a_small_crop(self, checkpoint):
        # the fixture trains on 32-pixel crops, whose context map is 4x4
        assert load_checkpoint(checkpoint)[1].net.pool_grids == (1, 2, 3, 6)

    @pytest.mark.parametrize("out_name, reason", [
        ("missing/m.rack", "no directory"),
        ("", "is a directory"),
    ], ids=["missing", "directory"])
    def test_train_out_in_missing_directory_fails_before_training(self, out_name, reason,
                                                                   dataset, tmp_path, capsys):
        out = tmp_path / out_name
        rc = main(["train", "--data", str(dataset), "--out", str(out), *FAST_TRAIN])
        captured = capsys.readouterr()
        assert rc == 2 and "epoch=" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "inf"),
    ], ids=["delta-inf"])
    def test_non_finite_setting_fails_before_training(self, flag, value, dataset, tmp_path,
                                                      capsys):
        # such a checkpoint could never be loaded: its config block refuses the value
        rc = main(["train", "--data", str(dataset), "--out", str(tmp_path / "m.rack"),
                   *FAST_TRAIN, flag, value])
        captured = capsys.readouterr()
        assert rc == 1 and "epoch=" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and "finite" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, value, reason, data", [
        ("--delta", "1e-300", "delta", "dataset"), ("--delta", "1e-20", "delta", "dataset"),
        ("--delta", "1e-30", "delta", "dataset"),
        ("--delta", "1e-30", "delta", "head_free_dataset"),
    ], ids=["delta-1e-300", "delta-1e-20", "delta-1e-30", "delta-1e-30-head-free"])
    def test_setting_too_small_for_float32_is_one_usage_error(self, flag, value, reason, data,
                                                               request, tmp_path, capsys,
                                                               monkeypatch):
        # refused before any data is read, so also where no posteriors would be built
        reads = []
        monkeypatch.setattr(cli, "load_split", lambda *args: reads.append(args))
        rc = main(["train", "--data", str(request.getfixturevalue(data)),
                   "--out", str(tmp_path / "m.rack"), *FAST_TRAIN, flag, value])
        captured = capsys.readouterr()
        assert rc == 1 and "epoch=" not in captured.out and reads == []
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and reason in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_step_that_overflows_the_parameters_writes_no_checkpoint(self, dataset, tmp_path,
                                                                      capsys, monkeypatch):
        # one batch holds all six scenes, so no later forward pass meets the overflow
        monkeypatch.setattr(training, "ADAM_LR", 1e308)
        rc = main(["train", "--data", str(dataset), "--out", str(tmp_path / "m.rack"),
                   "--epochs", "1", "--batch", "8", "--crop", "32"])
        captured = capsys.readouterr()
        assert rc == 2 and "epoch=" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'bb.block1.k'" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_step_size_is_not_a_flag(self, dataset, tmp_path, capsys):
        # the Adam step size is a constant: any --lr is refused before an epoch runs
        rc = main(["train", "--data", str(dataset), "--out", str(tmp_path / "m.rack"),
                   *FAST_TRAIN, "--lr", "1e39"])
        captured = capsys.readouterr()
        assert rc == 1 and "epoch=" not in captured.out
        assert "unrecognized arguments: --lr 1e39" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_fails_before_training(self, dataset, tmp_path, capsys):
        rc = main(["train", "--data", str(dataset), "--out", str(tmp_path / "m.rack"),
                   *FAST_TRAIN, "--seed", "-2"])
        captured = capsys.readouterr()
        assert rc == 1 and "epoch=" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and "seed" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_train_determinism_byte_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a.rack", tmp_path / "b.rack"
        args = ["train", "--data", str(dataset), "--seed", "9", "--single-thread",
                *FAST_TRAIN]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_prints_summary(self, dataset, checkpoint, capsys):
        rc = main(["eval", "--ckpt", str(checkpoint), "--data", str(dataset),
                   "--split", "test"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[-1].startswith("N=3 MAE=")

    def test_eval_scores_images_of_any_size(self, checkpoint, tmp_path, capsys):
        # 60 is no multiple of 8: predict pads each image and crops the maps back
        assert main(["gen", "--out", str(tmp_path), "--seed", "4", "--train", "1",
                     "--test", "2", "--width", "60", "--height", "60"]) == 0
        rc = main(["eval", "--ckpt", str(checkpoint), "--data", str(tmp_path),
                   "--split", "test"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert captured.out.strip().splitlines()[-1].startswith("N=2 MAE=")

    def test_eval_reproducible_to_all_digits(self, dataset, checkpoint, capsys):
        args = ["eval", "--ckpt", str(checkpoint), "--data", str(dataset),
                "--split", "test"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_eval_verbose_per_image(self, dataset, checkpoint, capsys):
        rc = main(["eval", "--ckpt", str(checkpoint), "--data", str(dataset),
                   "--split", "test", "-v"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0 and len(out) == 4  # 3 per-image lines + summary
        assert out[0].startswith("image=0 predicted=")

    def test_missing_checkpoint_is_data_error(self, dataset, capsys):
        rc = main(["eval", "--ckpt", "/nonexistent.rack", "--data", str(dataset),
                   "--split", "test"])
        assert rc == 2

    def test_bad_usage_exit_code(self, capsys):
        assert main(["eval", "--ckpt", "x"]) == 1  # missing required args
        assert main(["nonsense"]) == 1


class TestInfer:
    def test_count_matches_written_density(self, dataset, checkpoint, tmp_path, capsys):
        image = dataset / "test" / "scene_0000.pgm"
        out = tmp_path / "dens.radm"
        rc = main(["infer", "--ckpt", str(checkpoint), "--image", str(image),
                   "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        count = float(printed.split("count=")[1])
        dmap = load_density(out)
        assert count == pytest.approx(dmap.count, abs=1e-5)

    def test_deterministic_across_runs(self, dataset, checkpoint, tmp_path, capsys):
        image = dataset / "test" / "scene_0001.pgm"
        o1, o2 = tmp_path / "d1.radm", tmp_path / "d2.radm"
        main(["infer", "--ckpt", str(checkpoint), "--image", str(image), "--out", str(o1)])
        main(["infer", "--ckpt", str(checkpoint), "--image", str(image), "--out", str(o2)])
        capsys.readouterr()
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("ckpt", ["fixture", "infer256"])
    def test_image_smaller_than_pool_grids_runs(self, ckpt, checkpoint, tmp_path, capsys):
        # both checkpoints' context grids go up to 6; a 16x16 image has 2x2 features
        small = tmp_path / "small.pgm"
        save_image(GrayImage(np.full((16, 16), 0.5)), small)
        out = tmp_path / "o.radm"
        rc = main(["infer", "--ckpt", str(checkpoint if ckpt == "fixture" else INFER256),
                   "--image", str(small), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert load_density(out).values.shape == (16, 16)

    def test_pad_crops_density_back(self, checkpoint, tmp_path, capsys):
        odd = tmp_path / "odd.pgm"
        rng = np.random.default_rng(6)
        save_image(GrayImage(rng.uniform(0, 1, size=(30, 26))), odd)
        out = tmp_path / "o.radm"
        rc = main(["infer", "--ckpt", str(checkpoint), "--image", str(odd),
                   "--out", str(out)])
        assert rc == 0
        dmap = load_density(out)
        assert (dmap.height, dmap.width) == (30, 26)
        printed = capsys.readouterr().out
        assert float(printed.split("count=")[1]) == pytest.approx(dmap.count, abs=1e-5)

    def test_viz_is_valid_max_normalized_pgm(self, dataset, checkpoint, tmp_path, capsys):
        image = dataset / "test" / "scene_0002.pgm"
        out, viz = tmp_path / "d.radm", tmp_path / "v.pgm"
        rc = main(["infer", "--ckpt", str(checkpoint), "--image", str(image),
                   "--out", str(out), "--viz", str(viz)])
        assert rc == 0
        rendered = load_image(viz)
        dmap = load_density(out)
        if dmap.values.max() > 0:
            assert rendered.pixels.max() == 1.0

    @pytest.mark.parametrize("flag, out_name, reason", [
        ("--out", "missing/d.radm", "no directory"),
        ("--out", "", "is a directory"),
        ("--viz", "missing/v.pgm", "no directory"),
    ], ids=["out-missing", "out-directory", "viz-missing"])
    def test_unwritable_output_fails_before_predict(self, flag, out_name, reason, dataset,
                                                    checkpoint, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "predict", lambda *a, **k: calls.append(a) or predict(*a, **k))
        paths = {"--out": tmp_path / "d.radm", "--viz": tmp_path / "v.pgm"}
        paths[flag] = tmp_path / out_name
        rc = main(["infer", "--ckpt", str(checkpoint),
                   "--image", str(dataset / "test" / "scene_0000.pgm"),
                   "--out", str(paths["--out"]), "--viz", str(paths["--viz"])])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 2 and captured.out == "" and calls == []
        assert len(err) == 1 and err[0].startswith(f"error: {flag} ") and reason in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("side", [20, 30])
    def test_pad_reflects_to_the_next_multiple_of_8(self, side, tmp_path, capsys):
        image = tmp_path / "small.pgm"
        save_image(GrayImage(np.random.default_rng(side).uniform(0, 1, size=(side, side))), image)
        out = tmp_path / "o.radm"
        rc = main(["infer", "--ckpt", str(INFER256), "--image", str(image), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        params, cfg = load_checkpoint(INFER256)
        padded = np.pad(load_image(image).pixels, ((0, -side % 8),) * 2, mode="reflect")
        want = predict(GrayImage(padded), params, cfg.net)[0].values[:side, :side]
        np.testing.assert_array_equal(load_density(out).values, want.astype(np.float32))


class TestOutputRule:
    """Every declared output flag is checked once, in order, before any input is read."""

    MINIMAL = {
        "gen": ["gen", "--out", "d"],
        "train": ["train", "--data", "d", "--out", "m.rack"],
        "eval": ["eval", "--ckpt", "m.rack", "--data", "d", "--split", "test"],
        "infer": ["infer", "--ckpt", "m.rack", "--image", "q.pgm", "--out", "d.radm"],
    }

    @pytest.mark.parametrize("command", MINIMAL)
    def test_declared_outputs_are_attributes_of_the_namespace(self, command, dataset,
                                                              tmp_path, monkeypatch):
        # a flag renamed later must not escape the check with an AttributeError
        monkeypatch.chdir(tmp_path)
        shutil.copytree(dataset, "d")  # train's inputs are the files its manifest lists
        before = sorted(tmp_path.rglob("*"))
        args = cli.build_parser().parse_args(self.MINIMAL[command])
        assert all(hasattr(args, flag[2:]) for flag in args.outputs)
        cli._check_outputs(args)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("viz", ["d", "./d", "absolute", "link"])
    def test_infer_out_and_viz_naming_one_file(self, viz, dataset, checkpoint, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "predict", lambda *a, **k: calls.append(a) or predict(*a, **k))
        (tmp_path / "link").symlink_to("d")  # dangling until d is written
        viz = {"absolute": str(tmp_path / "d")}.get(viz, viz)
        rc = main(["infer", "--ckpt", str(checkpoint),
                   "--image", str(dataset / "test" / "scene_0000.pgm"),
                   "--out", "d", "--viz", viz])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 1 and captured.out == "" and calls == []
        assert err == [f"usage error: --viz {Path(viz)}: --out names the same file"]
        assert list(tmp_path.iterdir()) == [tmp_path / "link"]

    @pytest.mark.parametrize("flag, taken", [("--out", "--image"), ("--viz", "--ckpt"),
                                             ("--out", "--ckpt"), ("--viz", "--image")])
    def test_infer_output_naming_an_input(self, flag, taken, dataset, checkpoint, tmp_path,
                                          capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "predict", lambda *a, **k: calls.append(a) or predict(*a, **k))
        inputs = {"--ckpt": tmp_path / "m.rack", "--image": tmp_path / "q.pgm"}
        shutil.copy(checkpoint, inputs["--ckpt"])
        shutil.copy(dataset / "test" / "scene_0000.pgm", inputs["--image"])
        before = {path: path.read_bytes() for path in inputs.values()}
        outputs = {"--out": tmp_path / "d.radm", "--viz": tmp_path / "v.pgm"}
        outputs[flag] = inputs[taken]
        rc = main(["infer", "--ckpt", str(inputs["--ckpt"]), "--image", str(inputs["--image"]),
                   "--out", str(outputs["--out"]), "--viz", str(outputs["--viz"])])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and calls == []
        assert captured.err == f"usage error: {flag} {inputs[taken]}: {taken} names the same file\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_output_linking_to_an_input_is_refused(self, dataset, checkpoint, tmp_path,
                                                   capsys):
        # the rule compares the files a path reaches, so a symlink to the image is taken
        image, link = tmp_path / "q.pgm", tmp_path / "link"
        shutil.copy(dataset / "test" / "scene_0000.pgm", image)
        link.symlink_to("q.pgm")
        before = image.read_bytes()
        rc = main(["infer", "--ckpt", str(checkpoint), "--image", str(image),
                   "--out", str(link)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"usage error: --out {link}: --image names the same file\n"
        assert image.read_bytes() == before and link.is_symlink()

    @pytest.mark.parametrize("flag, listed", [
        ("--out", "manifest.json"), ("--log", "manifest.json"),
        ("--log", "train/scene_0000.pgm"), ("--out", "test/scene_0001.json"),
    ], ids=["out-manifest", "log-manifest", "log-scene-image", "out-scene-annotations"])
    def test_train_output_naming_a_dataset_file(self, flag, listed, dataset, tmp_path, capsys,
                                                monkeypatch):
        # the manifest and every file it lists are train's inputs
        calls = []
        monkeypatch.setattr(cli, "load_split", lambda *a: calls.append(a) or load_split(*a))
        data = tmp_path / "d"
        shutil.copytree(dataset, data)
        before = {path: path.read_bytes() for path in data.rglob("*") if path.is_file()}
        outputs = {"--out": tmp_path / "m.rack", "--log": tmp_path / "l.csv"}
        outputs[flag] = data / listed
        rc = main(["train", "--data", str(data), "--out", str(outputs["--out"]),
                   "--log", str(outputs["--log"]), *FAST_TRAIN])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and calls == []
        assert captured.err == f"usage error: {flag} {data / listed}: --data names the same file\n"
        assert {path: path.read_bytes() for path in data.rglob("*") if path.is_file()} == before
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_output_hard_linked_to_an_input_is_refused(self, command, dataset, checkpoint,
                                                       tmp_path, capsys):
        # a hard link is another name for the same file, whatever its path says
        data = tmp_path / "d"
        shutil.copytree(dataset, data)
        image, hard = data / "test" / "scene_0000.pgm", tmp_path / "hard"
        hard.hardlink_to(image)
        before = image.read_bytes()
        flag, taken, argv = {
            "infer": ("--out", "--image", ["infer", "--ckpt", str(checkpoint),
                                           "--image", str(image), "--out", str(hard)]),
            "train": ("--log", "--data", ["train", "--data", str(data), "--out",
                                          str(tmp_path / "m.rack"), "--log", str(hard),
                                          *FAST_TRAIN]),
        }[command]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"usage error: {flag} {hard}: {taken} names the same file\n"
        assert image.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [data, hard]

    def test_train_out_and_log_naming_one_file(self, dataset, tmp_path, capsys):
        out = tmp_path / "m"
        rc = main(["train", "--data", str(dataset), "--out", str(out), "--log", str(out),
                   *FAST_TRAIN])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 1 and "epoch=" not in captured.out
        assert err == [f"usage error: --log {out}: --out names the same file"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("log, reason", [
        ("missing/l.csv", "no directory"), ("", "is a directory"),
    ], ids=["missing", "directory"])
    def test_unwritable_log_fails_before_the_dataset_is_read(self, log, reason, dataset,
                                                             tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "load_split", lambda *a: calls.append(a) or load_split(*a))
        rc = main(["train", "--data", str(dataset), "--out", str(tmp_path / "m.rack"),
                   "--log", str(tmp_path / log), *FAST_TRAIN])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 2 and "epoch=" not in captured.out and calls == []
        assert len(err) == 1 and err[0].startswith("error: --log ") and reason in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_empty_optional_path_is_refused_like_an_empty_out(self, command, dataset,
                                                              checkpoint, tmp_path, capsys):
        flag, argv = {
            "train": ("--log", ["train", "--data", str(dataset),
                                "--out", str(tmp_path / "m.rack"), *FAST_TRAIN]),
            "infer": ("--viz", ["infer", "--ckpt", str(checkpoint), "--image",
                                str(dataset / "test" / "scene_0000.pgm"),
                                "--out", str(tmp_path / "d.radm")]),
        }[command]
        rc = main([*argv, flag, ""])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {flag} .: is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_that_is_a_symlink_loop_is_one_error_line(self, dataset, checkpoint,
                                                             tmp_path, capsys):
        loop = tmp_path / "loop"
        loop.symlink_to("loop")
        rc = main(["infer", "--ckpt", str(checkpoint),
                   "--image", str(dataset / "test" / "scene_0000.pgm"), "--out", str(loop)])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 2 and captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == [loop]


def rewrite_config(blob: bytes, edit) -> bytes:
    """A RACK blob whose config JSON has been passed through edit(doc)."""
    n = int.from_bytes(blob[8:12], "little")
    doc = json.loads(blob[12 : 12 + n])
    edit(doc)
    new = json.dumps(doc).encode("utf-8")
    return blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + n :]


class TestMalformedCheckpoint:
    """Each defect is a one-line data error (exit 2), never a traceback or a count."""

    @pytest.fixture
    def infer(self, dataset, tmp_path, capsys):
        def run(ckpt):
            rc = main(["infer", "--ckpt", str(ckpt), "--image",
                       str(dataset / "test" / "scene_0000.pgm"), "--out", str(tmp_path / "d.radm")])
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            return rc, err[0]
        return run

    def edited_params(self, checkpoint, tmp_path, edit):
        # save_checkpoint refuses tensors its config does not imply, so the file is built by hand
        params, cfg = load_checkpoint(checkpoint)
        edit(params)
        bad = tmp_path / "bad.rack"
        bad.write_bytes(hand_built_rack(json.dumps(cfg.to_dict()), params))
        return bad

    def test_missing_tensor(self, checkpoint, tmp_path, infer):
        bad = self.edited_params(checkpoint, tmp_path, lambda p: p.pop("head.out.b"))
        rc, err = infer(bad)
        assert rc == 2 and "head.out.b" in err

    def test_wrong_kernel_shape(self, checkpoint, tmp_path, infer):
        def widen(p):
            p["head.feat.k"] = np.zeros((16, 16, 5, 5), dtype=np.float32)
        rc, err = infer(self.edited_params(checkpoint, tmp_path, widen))
        assert rc == 2 and "head.feat.k" in err

    def test_non_finite_tensor(self, checkpoint, tmp_path, infer):
        # save_checkpoint refuses a NaN, so it goes into the file's bytes
        blob = bytearray(checkpoint.read_bytes())
        at = blob.index(b"head.out.b") + len(b"head.out.b") + 8  # past ndim = 1 and its dim
        blob[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        bad = tmp_path / "bad.rack"
        bad.write_bytes(bytes(blob))
        rc, err = infer(bad)
        assert rc == 2 and "non-finite" in err

    def test_mistyped_config_value(self, checkpoint, tmp_path, infer):
        bad = tmp_path / "bad.rack"
        bad.write_bytes(rewrite_config(checkpoint.read_bytes(),
                                       lambda doc: doc["net"].update(pool_grids="abc")))
        rc, err = infer(bad)
        assert rc == 2 and "pool_grids" in err

    @pytest.mark.parametrize("key,value,layer", [
        ("head_channels", 0, "head.fuse1"),
        ("decoder_channels", 1, "dec.fuse2"),
    ])
    def test_config_with_an_empty_layer(self, checkpoint, tmp_path, infer, key, value, layer):
        # the channel counts are fixed: a config block holding another count is
        # refused by that retired key, before any tensor of the layer is read
        bad = tmp_path / "bad.rack"
        bad.write_bytes(rewrite_config(checkpoint.read_bytes(),
                                       lambda doc: doc["net"].update({key: value})))
        rc, err = infer(bad)
        assert rc == 2 and f"config key {key!r}" in err and "retired" in err and layer not in err

    def test_config_without_dilation_rates(self, checkpoint, tmp_path, infer):
        bad = tmp_path / "bad.rack"
        bad.write_bytes(rewrite_config(checkpoint.read_bytes(),
                                       lambda doc: doc["net"].update(dilation_rates=[])))
        rc, err = infer(bad)
        assert rc == 2 and "dilation rate" in err

    def test_config_with_a_repeated_grid(self, checkpoint, tmp_path, infer):
        def repeat_first_grid(doc):
            grids = doc["net"]["pool_grids"]
            grids.append(grids[0])
        bad = tmp_path / "bad.rack"
        bad.write_bytes(rewrite_config(checkpoint.read_bytes(), repeat_first_grid))
        rc, err = infer(bad)
        assert rc == 2 and "pool_grids must not repeat" in err

    @pytest.mark.parametrize("key,edit", [
        ("ra_column_normalize", lambda doc: doc["net"].update(ra_column_normalize=True)),
        ("ra_temperature", lambda doc: doc["net"].update(ra_temperature=2.0)),
        ("clip_norm", lambda doc: doc.update(clip_norm=5.0)),
        ("lr", lambda doc: doc.update(lr=0.002)),
    ])
    def test_retired_key_with_another_value(self, checkpoint, tmp_path, infer, key, edit):
        bad = tmp_path / "bad.rack"
        bad.write_bytes(rewrite_config(checkpoint.read_bytes(), edit))
        rc, err = infer(bad)
        assert rc == 2 and f"config key {key!r}" in err and "is retired" in err

    @pytest.mark.parametrize("key,edit", [
        ("ra_temprature", lambda doc: doc["net"].update(ra_temprature=5.0)),
        ("momentum", lambda doc: doc.update(momentum=0.5)),
    ])
    def test_misspelled_config_key(self, checkpoint, tmp_path, infer, key, edit):
        bad = tmp_path / "bad.rack"
        bad.write_bytes(rewrite_config(checkpoint.read_bytes(), edit))
        rc, err = infer(bad)
        assert rc == 2 and key in err

    def test_config_block_nested_too_deeply(self, checkpoint, tmp_path, infer):
        blob = checkpoint.read_bytes()
        deep = b"[" * 100_000
        bad = tmp_path / "bad.rack"
        bad.write_bytes(blob[:8] + len(deep).to_bytes(4, "little") + deep
                        + blob[12 + int.from_bytes(blob[8:12], "little"):])
        rc, err = infer(bad)
        assert rc == 2 and str(bad) in err and "config block: JSON nested too deeply" in err

    def test_config_block_not_an_object(self, checkpoint, tmp_path, infer):
        blob = checkpoint.read_bytes()
        bad = tmp_path / "bad.rack"
        bad.write_bytes(blob[:8] + (2).to_bytes(4, "little") + b"[]"
                        + blob[12 + int.from_bytes(blob[8:12], "little"):])
        rc, err = infer(bad)
        assert rc == 2 and err == (f"error: {bad}: unreadable config block "
                                   "(TrainConfig document must be a JSON object)")

    def test_allocation_larger_than_any_address_space(self, tmp_path, infer):
        # dilation 10**7 pads the image to petabytes: the allocation fails at once,
        # without touching memory
        cfg = TrainConfig(net=NetConfig(dilation_rates=(1, 10**7)))
        bad = tmp_path / "dilated.rack"
        save_checkpoint(init_params(cfg.net), cfg, bad)
        rc, err = infer(bad)
        assert rc == 2 and err.startswith("error: Unable to allocate")
        assert not (tmp_path / "d.radm").exists()

    def test_second_backbone(self, checkpoint, tmp_path, infer):
        # a checkpoint from a build that could give pass 2 its own backbone
        def add_bb2(p):
            for name in [n for n in p if n.startswith("bb.")]:
                p["bb2." + name[3:]] = p[name].copy()
        blob = self.edited_params(checkpoint, tmp_path, add_bb2).read_bytes()
        bad = tmp_path / "two_tower.rack"
        bad.write_bytes(rewrite_config(blob, lambda doc: doc["net"].update(two_tower=True)))
        rc, err = infer(bad)
        assert rc == 2 and "two_tower" in err

    def test_undecodable_tensor_name(self, checkpoint, tmp_path, infer):
        blob = bytearray(checkpoint.read_bytes())
        at = blob.index(b"bb.block1.k")
        blob[at] = 0xFF
        bad = tmp_path / "bad.rack"
        bad.write_bytes(bytes(blob))
        rc, err = infer(bad)
        assert rc == 2 and "UTF-8" in err

    def test_overflowing_weights_are_numeric_error(self, dataset, checkpoint, tmp_path, capsys):
        # finite weights can still overflow float32 inside the forward pass
        def blow_up(p):
            for name in p:
                if name.endswith(".k"):
                    p[name] = np.full_like(p[name], 1e30)
        bad = self.edited_params(checkpoint, tmp_path, blow_up)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["infer", "--ckpt", str(bad), "--image",
                       str(dataset / "test" / "scene_0000.pgm"), "--out", str(tmp_path / "d.radm")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err


class TestMalformedData:
    """Malformed dataset files are data errors (exit 2), not usage errors."""

    @pytest.fixture
    def data(self, dataset, tmp_path):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        return copy

    def eval_rc(self, data, checkpoint, capsys):
        rc = main(["eval", "--ckpt", str(checkpoint), "--data", str(data), "--split", "test"])
        err = capsys.readouterr().err
        assert "usage error" not in err
        return rc

    def test_annotation_not_utf8(self, data, checkpoint, capsys):
        (data / "test" / "scene_0001.json").write_bytes(b'{"points": [[1.0, \xff2.0]]}')
        assert self.eval_rc(data, checkpoint, capsys) == 2

    def test_manifest_not_json(self, data, checkpoint, capsys):
        (data / "manifest.json").write_text('{"train": [], "test": [')
        assert self.eval_rc(data, checkpoint, capsys) == 2

    def test_manifest_missing_split(self, data, checkpoint, capsys):
        (data / "manifest.json").write_text('{"train": []}')
        assert self.eval_rc(data, checkpoint, capsys) == 2

    def test_manifest_entry_without_paths(self, data, checkpoint, capsys):
        (data / "manifest.json").write_text('{"train": [], "test": [{"image": 3}]}')
        assert self.eval_rc(data, checkpoint, capsys) == 2

    @pytest.mark.parametrize("text", [
        '{"train": [], "test": [', '{"train": []}', '{"train": [], "test": [{"image": 3}]}',
    ], ids=["not-json", "missing-split", "entry-without-paths"])
    def test_train_reads_its_inputs_from_a_malformed_manifest_as_a_data_error(
            self, text, data, tmp_path, capsys):
        # the output rule reads the manifest to learn train's inputs; its refusal is exit 2
        manifest = data / "manifest.json"
        manifest.write_text(text)
        ckpt, log = tmp_path / "m.rack", tmp_path / "log.csv"
        rc = main(["train", "--data", str(data), "--out", str(ckpt), "--log", str(log),
                   *FAST_TRAIN])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 2 and captured.out == "" and len(err) == 1
        assert err[0].startswith(f"error: {manifest}")
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize("name", ["manifest.json", "test/scene_0001.json"],
                             ids=["manifest", "annotations"])
    def test_json_nested_too_deeply(self, name, data, checkpoint, capsys):
        # Python's JSON parser recurses once per level and gives up near 1000
        (data / name).write_text("[" * 100_000)
        rc = main(["eval", "--ckpt", str(checkpoint), "--data", str(data), "--split", "test"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0] == f"error: {data / name}: JSON nested too deeply"

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_manifest_path_with_a_nul_byte(self, command, data, checkpoint, tmp_path, capsys):
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["train"][1]["image"] = "scene\0.pgm"
        manifest.write_text(json.dumps(doc))
        argv = {"eval": ["eval", "--ckpt", str(checkpoint), "--data", str(data),
                         "--split", "test"],
                "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.rack"),
                          *FAST_TRAIN]}[command]
        rc = main(argv)
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 2 and "epoch=" not in captured.out and len(err) == 1
        assert err[0].startswith(f"error: {manifest}: train[1] has a path with a NUL byte")

    @pytest.mark.parametrize("command", ["gen", "train", "infer"])
    def test_path_through_a_file_is_one_error_line(self, command, dataset, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = {
            "gen": ["gen", "--out", str(afile), "--train", "1", "--test", "1"],
            "train": ["train", "--data", str(afile), "--out", str(tmp_path / "m.rack"),
                      *FAST_TRAIN],
            "infer": ["infer", "--ckpt", str(afile / "x.rack"), "--image",
                      str(dataset / "test" / "scene_0000.pgm"), "--out", str(tmp_path / "d.radm")],
        }[command]
        rc = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1 and err[0].startswith("error: ")

    def test_empty_split(self, data, checkpoint, tmp_path, capsys):
        manifest = data / "manifest.json"
        manifest.write_text('{"train": [], "test": []}')
        rc = main(["eval", "--ckpt", str(checkpoint), "--data", str(data), "--split", "test"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:")
        assert str(manifest) in err and "'test'" in err
        # ranet train refuses before it opens the log or the checkpoint
        ckpt, log = tmp_path / "m.rack", tmp_path / "log.csv"
        rc = main(["train", "--data", str(data), "--out", str(ckpt), "--log", str(log),
                   *FAST_TRAIN])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {manifest}: split 'train' lists no scenes\n"
        assert not ckpt.exists() and not log.exists()

    def test_annotation_outside_its_image(self, data, tmp_path, capsys):
        ann = data / "train" / "scene_0001.json"
        ann.write_text('{"points": [[40.0, 1.0]]}')  # the images are 32x32
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m.rack"), *FAST_TRAIN])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0] == f"error: {ann}: annotation coordinates fall outside the image bounds"
