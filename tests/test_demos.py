"""The quick demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# 05_train_and_evaluate.py trains for 15 epochs, about 8 s on two cores.
QUICK_DEMOS = [
    "01_region_aware_block.py",
    "02_bayesian_point_loss.py",
    "03_gradient_checking.py",
    "04_synthetic_scenes.py",
    "05_train_and_evaluate.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # the demo's temporary files must be gone when it exits
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []
