"""Byte-mutation fuzzing of every on-disk format.

Each mutated file must load to a valid object or raise FormatError; any
other exception is a loader bug.  The runs are derandomized, so the same
mutations are tried on every run.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ranet.core import (
    DensityMap,
    FormatError,
    GrayImage,
    PointAnnotations,
    load_annotations,
    load_density,
    load_image,
    save_density,
)
from ranet.datagen import MANIFEST_KEYS, SceneSpec, gen_dataset, load_manifest
from ranet.network import NetConfig, init_params, param_shapes
from ranet.training import TrainConfig, load_checkpoint, save_checkpoint

TINY_NET = NetConfig(pool_grids=(1,), dilation_rates=(1,))


def valid_checkpoint(out):
    params, cfg = out
    assert isinstance(cfg, TrainConfig)
    assert {k: v.shape for k, v in params.items()} == param_shapes(cfg.net)
    assert all(np.isfinite(v).all() for v in params.values())


def valid_manifest(doc):
    for split in ("train", "test"):
        for entry in doc[split]:
            assert all(isinstance(entry[key], str) for key in MANIFEST_KEYS)


FORMATS = {
    "pgm": ("train/scene_0000.pgm", load_image, lambda out: isinstance(out, GrayImage)),
    "radm": ("density.radm", load_density, lambda out: isinstance(out, DensityMap)),
    "annotations": ("train/scene_0000.json", load_annotations,
                    lambda out: isinstance(out, PointAnnotations)),
    "manifest": ("manifest.json", load_manifest, valid_manifest),
    "rack": ("model.rack", load_checkpoint, valid_checkpoint),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One valid file of every format, written by the package's own writers."""
    root = tmp_path_factory.mktemp("corpus")
    gen_dataset(SceneSpec(width=16, height=16, max_heads=3, seed=5), 1, 1, root)
    save_density(DensityMap(np.random.default_rng(5).uniform(0, 0.1, (16, 16))),
                 root / "density.radm")
    save_checkpoint(init_params(TINY_NET), TrainConfig(net=TINY_NET), root / "model.rack")
    return root


@st.composite
def mutations(draw, size):
    """Up to four byte overwrites, sometimes followed by a truncation."""
    edits = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, 255)),
                          min_size=1, max_size=4))
    cut = draw(st.one_of(st.none(), st.integers(0, size)))
    return edits, cut


def rack_header_size(blob) -> int:
    """Bytes before the first tensor's values: magic, version, config block
    and the first tensor's name and shape."""
    at = 12 + int.from_bytes(blob[8:12], "little")
    at += 4 + int.from_bytes(blob[at:at + 4], "little")
    return at + 4 + 4 * int.from_bytes(blob[at:at + 4], "little")


def load_mutant(fmt, corpus, tmp_path, edits, cut):
    name, loader, valid = FORMATS[fmt]
    blob = bytearray((corpus / name).read_bytes())
    for pos, byte in edits:
        blob[pos] = byte
    path = tmp_path / f"mutant.{fmt}"
    path.write_bytes(bytes(blob[:cut]))
    try:
        out = loader(path)
    except FormatError:
        return
    assert valid(out) is not False


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_loads_or_raises_format_error(fmt, corpus, tmp_path, data):
    size = (corpus / FORMATS[fmt][0]).stat().st_size
    load_mutant(fmt, corpus, tmp_path, *data.draw(mutations(size)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_rack_header_loads_or_raises_format_error(corpus, tmp_path, data):
    # the rack file is almost all float32 values, which the uniform case's
    # edits mostly hit; these edits stay in the bytes the loader must check
    header = rack_header_size((corpus / FORMATS["rack"][0]).read_bytes())
    load_mutant("rack", corpus, tmp_path, *data.draw(mutations(header)))


def test_rack_header_ends_where_the_first_tensor_values_start(corpus):
    blob = (corpus / FORMATS["rack"][0]).read_bytes()
    params, _ = load_checkpoint(corpus / FORMATS["rack"][0])
    first = next(iter(params.values()))
    values = np.frombuffer(blob, "<f4", count=first.size, offset=rack_header_size(blob))
    np.testing.assert_array_equal(values, first.ravel())


def test_corpus_files_are_valid(corpus):
    for name, loader, valid in FORMATS.values():
        assert valid(loader(corpus / name)) is not False


def test_manifest_lists_the_corpus(corpus):
    doc = json.loads((corpus / "manifest.json").read_text())
    assert len(doc["train"]) == len(doc["test"]) == 1
