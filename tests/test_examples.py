"""Every script under ``examples/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_0(script, tmp_path):
    """Each example runs as a user runs it, in its own process, at a
    tiny ``REPRO_SCALE``; its working directory and result cache are
    temporary, so what it writes (``mdp_netlist.py``'s Verilog) stays
    out of the checkout."""
    env = dict(os.environ, REPRO_SCALE="0.01",
               REPRO_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
