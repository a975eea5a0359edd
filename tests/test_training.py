"""Cropping, optimizer determinism, checkpoint format, and overfit sanity."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import hand_built_rack
from ranet import training
from ranet.bayes import posteriors_from_distances
from ranet.core import FormatError, GrayImage, PointAnnotations, Scene
from ranet.datagen import SceneSpec, gen_scene
from ranet.network import NetConfig, init_params
from ranet.training import (
    OptState,
    TrainConfig,
    TrainingError,
    load_checkpoint,
    random_crop,
    save_checkpoint,
    train,
    train_epoch,
)

RNG = np.random.default_rng(4242)

FAST_NET = NetConfig(pool_grids=(1, 2), dilation_rates=(1, 2), seed=0)
FAST_BAYES = dict(delta=4.0, d_ratio=0.25)


def small_scenes(n, seed=13, size=32):
    spec = SceneSpec(width=size, height=size, min_heads=1, max_heads=4, seed=seed)
    return [gen_scene(spec, i) for i in range(n)]


class TestRandomCrop:
    def scene(self):
        img = GrayImage(RNG.uniform(0, 1, size=(32, 48)))
        ann = PointAnnotations(np.array([[10.0, 10.0], [40.0, 30.0], [2.5, 20.0]]))
        return Scene(img, ann)

    def test_identity_crop(self):
        img = GrayImage(RNG.uniform(0, 1, size=(32, 32)))
        ann = PointAnnotations(np.array([[10.0, 10.0]]))
        out = random_crop(Scene(img, ann), 32, np.random.default_rng(0))
        np.testing.assert_array_equal(out.image.pixels, img.pixels)
        np.testing.assert_array_equal(out.annotations.points, ann.points)

    def test_coordinates_shift(self):
        img = GrayImage(RNG.uniform(0, 1, size=(32, 32)))
        ann = PointAnnotations(np.array([[10.0, 10.0]]))
        scene = Scene(img, ann)

        class FixedRng:
            def __init__(self):
                self.calls = 0

            def integers(self, lo, hi):
                self.calls += 1
                return 8

        out = random_crop(scene, 16, FixedRng())
        np.testing.assert_array_equal(out.annotations.points, [[2.0, 2.0]])
        np.testing.assert_array_equal(out.image.pixels, img.pixels[8:24, 8:24])

    def test_outside_heads_dropped(self):
        scene = self.scene()
        seen = []
        for trial in range(50):
            out = random_crop(scene, 16, np.random.default_rng(trial))
            assert len(out.annotations) <= len(scene.annotations)
            seen.append(len(out.annotations))
            assert out.annotations.inside(16, 16)
        assert min(seen) < len(scene.annotations)  # some crops exclude heads

    def test_count_preserved_for_inside_heads(self):
        scene = self.scene()
        for trial in range(20):
            rng = np.random.default_rng(trial)
            y0 = int(rng.integers(0, 32 - 16 + 1))
            x0 = int(rng.integers(0, 48 - 16 + 1))
            pts = scene.annotations.points
            expected = int(
                (
                    (pts[:, 0] >= x0) & (pts[:, 0] < x0 + 16)
                    & (pts[:, 1] >= y0) & (pts[:, 1] < y0 + 16)
                ).sum()
            )
            out = random_crop(scene, 16, np.random.default_rng(trial))
            assert len(out.annotations) == expected

    def test_oversized_crop_rejected(self):
        with pytest.raises(ValueError):
            random_crop(self.scene(), 64, np.random.default_rng(0))


class TestTrainEpoch:
    def cfg(self, **kw):
        base = dict(
            batch_size=2, crop=32, epochs=1, seed=5,
            **FAST_BAYES, net=FAST_NET,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_updates(self):
        scenes = small_scenes(4)
        cfg = self.cfg()

        def run():
            params = init_params(cfg.net)
            state = OptState.fresh(params)
            params, state, stats = train_epoch(params, scenes, cfg, state, 0)
            return params, stats

        p1, s1 = run()
        p2, s2 = run()
        assert s1 == s2
        for k in p1:
            assert p1[k].tobytes() == p2[k].tobytes()

    def test_zero_lr_keeps_params(self, monkeypatch):
        scenes = small_scenes(2)
        # emulate the null step with a step size -> 0
        monkeypatch.setattr(training, "ADAM_LR", 1e-30)
        cfg = self.cfg()
        params = init_params(cfg.net)
        before = {k: v.copy() for k, v in params.items()}
        params, _, _ = train_epoch(params, scenes, cfg, OptState.fresh(params), 0)
        for k in params:
            np.testing.assert_allclose(params[k], before[k], atol=1e-25)

    def test_epoch_stats_are_finite(self):
        scenes = small_scenes(4)
        cfg = self.cfg()
        params = init_params(cfg.net)
        _, _, stats = train_epoch(params, scenes, cfg, OptState.fresh(params), 0)
        assert np.isfinite(stats.mean_loss) and np.isfinite(stats.mae_train)
        assert stats.pass1_grad_min >= 0.0

    @pytest.mark.filterwarnings("error")
    def test_step_that_leaves_a_parameter_non_finite_names_it(self, monkeypatch):
        # float32(1e308) is inf, so the first Adam step overflows every kernel
        scenes = small_scenes(2)
        monkeypatch.setattr(training, "ADAM_LR", 1e308)
        cfg = self.cfg()
        params = init_params(cfg.net)
        with pytest.raises(TrainingError,
                           match=r"'bb\.block1\.k' after the step at epoch 0, batch 0"):
            train_epoch(params, scenes, cfg, OptState.fresh(params), 0)

    def test_empty_dataset_rejected(self):
        cfg = self.cfg()
        params = init_params(cfg.net)
        with pytest.raises(TrainingError):
            train_epoch(params, [], cfg, OptState.fresh(params), 0)

    def test_empty_dataset_rejected_before_the_log_is_opened(self, tmp_path):
        log = tmp_path / "log.csv"
        with pytest.raises(TrainingError, match="empty training set"):
            train([], self.cfg(), log_path=log)
        assert not log.exists()

    def test_overfit_two_samples(self, monkeypatch):
        # optimization sanity: a memorizable 2-scene problem must collapse its
        # own loss.  Start from a miscalibrated density scale (an output bias
        # of -4 puts the initial count far above the 13 heads) so epoch 1 is
        # genuinely bad; 200 epochs must recover more than 95% of it.
        dense = gen_scene(
            SceneSpec(width=64, height=64, min_heads=12, max_heads=15, seed=33), 0
        )
        scenes = [dense, dense]
        monkeypatch.setattr(training, "ADAM_LR", 3e-3)
        cfg = TrainConfig(
            batch_size=1, crop=64, epochs=200, seed=0,
            delta=4.0, d_ratio=0.45,
            net=NetConfig(seed=0),
        )
        params = init_params(cfg.net)
        params["head.out.b"][:] = -4.0
        state = OptState.fresh(params)
        first = None
        for epoch in range(cfg.epochs):
            params, state, stats = train_epoch(params, scenes, cfg, state, epoch)
            if first is None:
                first = stats.mean_loss
        assert stats.mean_loss < 0.05 * first, (
            f"loss {first:.3f} -> {stats.mean_loss:.3f} did not overfit"
        )


class TestTrainDriver:
    def test_telemetry_lines(self, capsys):
        scenes = small_scenes(3)
        cfg = TrainConfig(batch_size=2, crop=32, epochs=2, seed=1, **FAST_BAYES, net=FAST_NET)
        train(scenes, cfg)
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("epoch=0 loss=")
        assert "mae_train=" in lines[1]

    def test_csv_log(self, tmp_path):
        scenes = small_scenes(2)
        cfg = TrainConfig(batch_size=2, crop=32, epochs=2, seed=1, **FAST_BAYES, net=FAST_NET)
        log = tmp_path / "log.csv"
        train(scenes, cfg, log_path=log)
        rows = log.read_text().strip().splitlines()
        assert rows[0] == "epoch,loss,mae_train,pass1_grad_min,pass1_grad_mean"
        assert len(rows) == 3

    def test_crop_larger_than_images_rejected(self):
        scenes = small_scenes(2, size=32)
        cfg = TrainConfig(crop=64, epochs=1, **FAST_BAYES, net=FAST_NET)
        with pytest.raises(TrainingError):
            train(scenes, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(crop=20)
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            TrainConfig(epochs=0)

    @pytest.mark.filterwarnings("error")
    def test_smallest_delta_is_the_one_the_farthest_head_of_a_crop_fits(self):
        # a head and a pixel of a crop lie less than crop apart on each axis, so the
        # squared distance over 2 delta^2 stays below crop^2 / delta^2
        crop = 32
        edge = crop / math.sqrt(float(np.finfo(np.float32).max))
        with pytest.raises(ValueError, match="delta .* too small for float32"):
            TrainConfig(crop=crop, delta=edge * 0.999)
        cfg = TrainConfig(crop=crop, delta=edge * 1.001)
        far = np.array([[crop - 1e-9, crop - 1e-9], [0.0, 0.0]])
        probs = posteriors_from_distances(crop, crop, far, cfg.delta, cfg.d_ratio * crop,
                                          np.float32)
        assert np.isfinite(probs).all()

    def test_crop_need_not_hold_the_pooling_grids(self):
        # the default grids go up to 6; a 32 crop's 4x4 context map pools into overlapping bins
        assert TrainConfig(crop=32).net.pool_grids == (1, 2, 3, 6)
        with pytest.raises(ValueError, match="multiple of 8 and at least 16, got 20"):
            TrainConfig(crop=20)

    def test_bayes_defaults_are_the_training_recipe(self):
        assert (TrainConfig().delta, TrainConfig().d_ratio) == (16.0, 0.1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestCheckpointFormat:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = TrainConfig(**FAST_BAYES, net=FAST_NET, epochs=3, seed=7)
        params = init_params(cfg.net)
        path = tmp_path / "model.rack"
        save_checkpoint(params, cfg, path)
        loaded, cfg2 = load_checkpoint(path)
        assert list(loaded) == list(params)
        for k in params:
            assert loaded[k].tobytes() == params[k].tobytes()
            assert loaded[k].shape == params[k].shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "above-float32"])
    def test_non_finite_tensor_is_refused_before_the_file_opens(self, tmp_path, bad):
        cfg = TrainConfig(**FAST_BAYES, net=FAST_NET)
        params = init_params(cfg.net)
        params["head.out.b"] = np.array([bad])
        path = tmp_path / "model.rack"
        with pytest.raises(ValueError, match="'head.out.b'"):
            save_checkpoint(params, cfg, path)
        assert not path.exists()

    def test_tensors_of_another_config_are_refused_before_the_file_opens(self, tmp_path):
        # grids (1, 2) give the context head two branches, the default config four
        path = tmp_path / "model.rack"
        with pytest.raises(ValueError, match="'ctx.fuse.k'"):
            save_checkpoint(init_params(NetConfig(pool_grids=(1, 2))), TrainConfig(), path)
        assert not path.exists()

    def test_mis_shaped_tensor_is_refused_before_the_file_opens(self, tmp_path):
        params = init_params(NetConfig())
        params["head.out.b"] = np.zeros((1, 1), dtype=np.float32)
        path = tmp_path / "model.rack"
        with pytest.raises(ValueError, match="'head.out.b'"):
            save_checkpoint(params, TrainConfig(), path)
        assert not path.exists()

    def test_config_round_trips_field_for_field(self, tmp_path):
        cfg = TrainConfig(
            batch_size=4, crop=32, epochs=9, seed=3,
            delta=3.5, d_ratio=0.2,
            net=NetConfig(pool_grids=(1, 3), seed=2),
        )
        params = init_params(cfg.net)
        path = tmp_path / "model.rack"
        save_checkpoint(params, cfg, path)
        _, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg

    def test_magic_layout(self, tmp_path):
        cfg = TrainConfig(**FAST_BAYES, net=FAST_NET)
        path = tmp_path / "model.rack"
        save_checkpoint(init_params(cfg.net), cfg, path)
        blob = path.read_bytes()
        assert blob[:4] == b"RACK"
        assert np.frombuffer(blob[4:8], dtype="<u4")[0] == 1

    def test_corrupted_magic_rejected(self, tmp_path):
        cfg = TrainConfig(**FAST_BAYES, net=FAST_NET)
        path = tmp_path / "model.rack"
        save_checkpoint(init_params(cfg.net), cfg, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        cfg = TrainConfig(**FAST_BAYES, net=FAST_NET)
        path = tmp_path / "model.rack"
        save_checkpoint(init_params(cfg.net), cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FormatError):
            load_checkpoint(path)


# The config block of a default checkpoint as this build writes it.
DEFAULT_CONFIG_JSON = (
    '{"batch_size": 8, "crop": 64, "d_ratio": 0.1, "delta": 16.0, "epochs": 30, '
    '"net": {"dilation_rates": [1, 2, 3, 4], "pool_grids": [1, 2, 3, 6], "seed": 0}, "seed": 0}'
)

# The same block as builds with a settable step size wrote it.
LEGACY_STEP_SIZE_CONFIG_JSON = (
    '{"batch_size": 8, "crop": 64, "d_ratio": 0.1, "delta": 16.0, "epochs": 30, "lr": 0.001, '
    '"net": {"dilation_rates": [1, 2, 3, 4], "pool_grids": [1, 2, 3, 6], "seed": 0}, "seed": 0}'
)

# The same block as builds with a settable RA temperature wrote it.
LEGACY_TEMPERATURE_CONFIG_JSON = (
    '{"batch_size": 8, "crop": 64, "d_ratio": 0.1, "delta": 16.0, "epochs": 30, "lr": 0.001, '
    '"net": {"dilation_rates": [1, 2, 3, 4], "pool_grids": [1, 2, 3, 6], '
    '"ra_temperature": 1.0, "seed": 0}, "seed": 0}'
)

# The same block as builds with a configurable architecture (backbone widths,
# branch and head channels, density bias) wrote it.
LEGACY_ARCHITECTURE_CONFIG_JSON = (
    '{"batch_size": 8, "crop": 64, "d_ratio": 0.1, "delta": 16.0, "epochs": 30, "lr": 0.001, '
    '"net": {"aspp_channels": 8, "context_channels": 8, "decoder_channels": 16, '
    '"density_bias": -6.0, "dilation_rates": [1, 2, 3, 4], "head_channels": 16, '
    '"pool_grids": [1, 2, 3, 6], "ra_temperature": 1.0, '
    '"seed": 0, "widths": [8, 16, 32, 32]}, "seed": 0}'
)

# The same block as builds that also had configurable Adam settings, clip norm,
# cosine similarity and second backbone wrote it (``perfbench/checkpoint/infer256.rack``
# holds these bytes).
LEGACY_CONFIG_JSON = (
    '{"batch_size": 8, "beta1": 0.9, "beta2": 0.999, "clip_norm": 10.0, "crop": 64, '
    '"d_ratio": 0.1, "delta": 16.0, "epochs": 30, "eps": 1e-08, "lr": 0.001, '
    '"net": {"aspp_channels": 8, "context_channels": 8, "decoder_channels": 16, '
    '"density_bias": -6.0, "dilation_rates": [1, 2, 3, 4], "head_channels": 16, '
    '"pool_grids": [1, 2, 3, 6], "ra_column_normalize": false, "ra_temperature": 1.0, '
    '"seed": 0, "two_tower": false, "widths": [8, 16, 32, 32]}, "seed": 0}'
)

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_CHECKPOINT = ROOT / "perfbench/checkpoint/infer256.rack"


class TestPinnedConfigFormat:
    def test_default_config_serializes_to_pinned_json(self):
        assert json.dumps(TrainConfig().to_dict(), sort_keys=True) == DEFAULT_CONFIG_JSON

    @pytest.mark.parametrize("config", [TrainConfig(), NetConfig()], ids=["train", "net"])
    def test_document_keys_are_the_field_names(self, config):
        assert list(config.to_dict()) == [f.name for f in dataclasses.fields(config)]

    def test_dict_round_trip_with_a_non_default_net(self):
        cfg = TrainConfig(crop=32, seed=3,
                          net=NetConfig(pool_grids=(2, 1), dilation_rates=(3,), seed=4))
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_settable_values_by_name(self):
        # the nested net block holds settings but is not one
        names = sorted(f"{cls.__name__}.{f.name}" for cls in (TrainConfig, NetConfig, SceneSpec)
                       for f in dataclasses.fields(cls) if f.name != "net")
        assert names == [
            "NetConfig.dilation_rates", "NetConfig.pool_grids", "NetConfig.seed",
            "SceneSpec.height", "SceneSpec.max_heads", "SceneSpec.min_heads", "SceneSpec.seed",
            "SceneSpec.width",
            "TrainConfig.batch_size", "TrainConfig.crop", "TrainConfig.d_ratio",
            "TrainConfig.delta", "TrainConfig.epochs", "TrainConfig.seed",
        ]

    def test_pinned_json_round_trips(self):
        cfg = TrainConfig.from_dict(json.loads(DEFAULT_CONFIG_JSON))
        assert cfg == TrainConfig()
        assert json.dumps(cfg.to_dict(), sort_keys=True) == DEFAULT_CONFIG_JSON

    def test_default_checkpoint_writes_pinned_bytes(self, tmp_path):
        path = tmp_path / "default.rack"
        save_checkpoint(init_params(NetConfig()), TrainConfig(), path)
        blob = path.read_bytes()
        n = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
        assert blob[12 : 12 + n] == DEFAULT_CONFIG_JSON.encode("utf-8")

    def test_pinned_rack_loads(self, tmp_path):
        params = init_params(NetConfig())
        path = tmp_path / "pinned.rack"
        path.write_bytes(hand_built_rack(DEFAULT_CONFIG_JSON, params))
        loaded, cfg = load_checkpoint(path)
        assert cfg == TrainConfig()
        assert all(loaded[k].tobytes() == params[k].tobytes() for k in params)

    def test_legacy_rack_loads(self, tmp_path):
        params = init_params(NetConfig())
        path = tmp_path / "legacy.rack"
        for config_json in (LEGACY_CONFIG_JSON, LEGACY_ARCHITECTURE_CONFIG_JSON,
                            LEGACY_TEMPERATURE_CONFIG_JSON, LEGACY_STEP_SIZE_CONFIG_JSON):
            path.write_bytes(hand_built_rack(config_json, params))
            loaded, cfg = load_checkpoint(path)
            assert cfg == TrainConfig()
            assert all(loaded[k].tobytes() == params[k].tobytes() for k in params)

    @pytest.mark.parametrize("config_json", [LEGACY_CONFIG_JSON, LEGACY_ARCHITECTURE_CONFIG_JSON,
                                             LEGACY_TEMPERATURE_CONFIG_JSON,
                                             LEGACY_STEP_SIZE_CONFIG_JSON],
                             ids=["legacy", "legacy_architecture", "legacy_temperature",
                                  "legacy_step_size"])
    def test_legacy_block_parses_to_the_default_config(self, config_json):
        assert TrainConfig.from_dict(json.loads(config_json)) == TrainConfig()

    def test_declared_retired_keys_are_the_ones_the_readme_lists(self):
        declared = {*TrainConfig._retired, *(f"net.{k}" for k in NetConfig._retired)}
        readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
        listed = re.search(r"fourteen retired keys \(([^)]*)\)", readme).group(1)
        assert declared == set(re.findall(r"`([^`]+)`", listed))

    def test_committed_legacy_checkpoint_loads(self):
        params, cfg = load_checkpoint(COMMITTED_CHECKPOINT)
        assert cfg == TrainConfig()
        assert list(params) == list(init_params(NetConfig()))

    @pytest.mark.parametrize("block,key,value", [
        (None, "lr", 0.002), (None, "beta1", 0.8), (None, "beta2", 0.99), (None, "eps", 1e-6),
        (None, "clip_norm", -10.0), (None, "clip_norm", "10.0"),
        ("net", "two_tower", True), ("net", "two_tower", 0),
        ("net", "ra_column_normalize", True),
        ("net", "widths", [4, 8, 8, 8]), ("net", "widths", [8, 16, 32]),
        ("net", "head_channels", 24), ("net", "context_channels", 8.0),
        ("net", "density_bias", -4.0), ("net", "density_bias", "-6.0"),
        ("net", "ra_temperature", 0.5), ("net", "ra_temperature", "1.0"),
    ])
    def test_retired_key_with_another_value_is_format_error(self, tmp_path, block, key, value):
        doc = json.loads(LEGACY_CONFIG_JSON)
        (doc[block] if block else doc)[key] = value
        path = tmp_path / "legacy.rack"
        path.write_bytes(hand_built_rack(json.dumps(doc), init_params(NetConfig())))
        with pytest.raises(FormatError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("d_ratio", "0.1"), ("epochs", 30.0), ("epochs", True), ("delta", float("nan")),
    ])
    def test_mistyped_value_is_format_error(self, key, value):
        doc = json.loads(DEFAULT_CONFIG_JSON)
        doc[key] = value
        with pytest.raises(FormatError, match=key):
            TrainConfig.from_dict(doc)

    def test_mistyped_nested_value_is_format_error(self):
        doc = json.loads(DEFAULT_CONFIG_JSON)
        doc["net"]["pool_grids"] = [1, "2"]
        with pytest.raises(FormatError, match="pool_grids"):
            TrainConfig.from_dict(doc)

    @pytest.mark.parametrize("key", ["d_ratio", "net", "delta"])
    def test_missing_key_is_format_error(self, key):
        doc = json.loads(DEFAULT_CONFIG_JSON)
        del doc[key]
        with pytest.raises(FormatError, match=key):
            TrainConfig.from_dict(doc)

    @pytest.mark.parametrize("block,key", [
        (None, "momentum"),              # no such setting
        (None, "deltaa"),                # a misspelled key
        ("net", "ra_temprature"),        # a misspelled key in the nested block
        ("net", "temperature"),          # a key without its ra_ prefix
        ("net", "beta1"),                # a retired key in the wrong block
    ])
    def test_unknown_key_is_format_error(self, block, key):
        doc = json.loads(DEFAULT_CONFIG_JSON)
        (doc[block] if block else doc)[key] = 0.5
        with pytest.raises(FormatError, match=key):
            TrainConfig.from_dict(doc)

    def test_unknown_key_in_a_legacy_rack_is_format_error(self, tmp_path):
        doc = json.loads(LEGACY_CONFIG_JSON)
        doc["net"]["ra_temprature"] = 5.0
        path = tmp_path / "legacy.rack"
        path.write_bytes(hand_built_rack(json.dumps(doc), init_params(NetConfig())))
        with pytest.raises(FormatError, match="ra_temprature"):
            load_checkpoint(path)

    def test_missing_nested_key_is_format_error(self):
        doc = json.loads(DEFAULT_CONFIG_JSON)
        del doc["net"]["pool_grids"]
        with pytest.raises(FormatError, match="pool_grids"):
            TrainConfig.from_dict(doc)
