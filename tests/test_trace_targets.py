"""The functions the benchmark's tracer wraps still exist where it looks them up.

``perfbench/layers.py`` names each traced function by the module attribute
its caller reads; a name imported with ``from x import y`` is wrapped in the
importing module.  A renamed function or a rewritten import line would make
a traced run fail or time the wrong object, so these checks run with the
unit tests.
"""

import importlib.util
from pathlib import Path

import pytest

from ranet import bayes, network, region_aware, training

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(layers):
    targets = layers.op_targets(layers.primitives()) + layers.setup_targets()
    assert "conv2d" in layers.primitives()
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_names_imported_by_name_are_the_programs_own():
    assert training.full_forward is network.full_forward
    assert network.ra_apply is region_aware.ra_apply
    assert network.bayes_loss is bayes.bayes_loss
