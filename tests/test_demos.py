"""Every script in demos/ runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(tmp_path, path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, path], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120)
    assert res.returncode == 0, res.stderr
