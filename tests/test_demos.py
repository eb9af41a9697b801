import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, tmp_path):
    # demo 03 reads scenarios/ relative to the repo root and writes its
    # outputs to the directory it is given
    args = [str(tmp_path)] if script.name == "03_closed_loop.py" else []
    proc = subprocess.run([sys.executable, str(script), *args], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
