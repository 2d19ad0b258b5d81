"""Smoke tests: the scripts under scripts/ run end to end."""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120,
    )


def test_errata_scan_prints_one_row_per_gauge(tmp_path):
    proc = run_script("errata_scan.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the table runs from the header to the first blank line
    rows = lines[1 : lines.index("")]
    assert len(rows) == 8


def test_worked_examples_write_four_figures(tmp_path):
    proc = run_script("worked_examples.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    svgs = sorted((tmp_path / "out").glob("*.svg"))
    assert len(svgs) == 4
    assert all(p.read_bytes().startswith(b"<svg") for p in svgs)
