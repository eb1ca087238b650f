"""Each demo runs to the end and removes what it writes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9]*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_a_demo_leaves_the_temporary_directory_empty(tmp_path, demo):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
