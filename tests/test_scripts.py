"""The example scripts run to completion from a plain checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_make_synthetic_corpus_writes_both_files(tmp_path):
    done = run_script("make_synthetic_corpus.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "synthetic.cupt").stat().st_size > 0
    assert (tmp_path / "synthetic.vec").stat().st_size > 0


def test_overfit_demo_reports_both_baselines():
    done = run_script("overfit_demo.py", "--epochs", "1")
    assert done.returncode == 0, done.stderr
    rows = [line.split()[0] for line in done.stdout.splitlines() if line.strip()]
    assert "baseline/standard" in rows and "baseline/turian" in rows
