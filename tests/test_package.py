"""The package binds no names of its own: each name is imported from its module."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports ranet from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_ranet_binds_no_public_name():
    out = _fresh("import ranet; print(sorted(n for n in vars(ranet) if not n.startswith('_')))")
    assert out == "[]\n"


def test_benchmark_imports_load_neither_evaluate_nor_cli():
    out = _fresh("import sys\nfrom ranet import datagen, network, training\n"
                 "print(sorted({'ranet.evaluate', 'ranet.cli'} & set(sys.modules)))")
    assert out == "[]\n"
