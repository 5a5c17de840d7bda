"""The demo scripts and the README library tour must keep running."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S)
    assert tour is not None
    exec(compile(tour.group(1), "README.md", "exec"), {})
