"""Every script in demos/ runs standalone and exits 0."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path, tmp_path):
    result = subprocess.run([sys.executable, path], cwd=tmp_path, env=src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
