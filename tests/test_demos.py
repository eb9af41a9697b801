import re
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


def test_readme_python_blocks_run(tmp_path):
    # the README's library examples run as written from the repo root
    blocks = re.findall(r"```python\n(.*?)```",
                        (REPO / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        proc = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
