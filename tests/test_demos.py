"""Every script under ``demos/`` runs to completion and writes no files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
_SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"}


def _files(root: Path) -> set:
    found = set()
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = [d for d in subdirs if d not in _SKIP]
        found.update(os.path.join(directory, name) for name in names)
    return found


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_writes_nothing(demo, tmp_path):
    before = _files(ROOT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
    assert _files(ROOT) == before
