"""The repository's pytest configuration reports a failing property test as
an ordinary failure: the warnings it turns into errors must not abort the
session while Hypothesis reports the falsifying example."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_small(x):
    assert x < 10


def test_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_an_ordinary_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
