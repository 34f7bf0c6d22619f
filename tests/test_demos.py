"""Each demo runs to completion in its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import barkspace

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    """The demos write through ``tempfile.mkdtemp``, so TMPDIR keeps them in ``tmp_path``."""
    src = str(Path(barkspace.__file__).parent.parent)
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
