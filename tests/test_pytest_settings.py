"""The repository's pytest settings report a failing Hypothesis example as
one FAILED test, and the session runs on to the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert False


def test_passes():
    pass
'''


def test_failing_hypothesis_example_is_one_failed_test(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import;
    # under warnings-as-errors that warning once ended the whole session
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
        + ["-q", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1
