"""The test harness itself: a failing hypothesis test is reported as a
failure under this repository's pytest configuration."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def snapshot(root):
    return {p: p.stat().st_mtime_ns for p in root.rglob("*") if ".git" not in p.relative_to(root).parts}


def test_a_failing_given_test_exits_1_not_with_an_internal_error(tmp_path):
    """``filterwarnings = error`` must not turn the warning that hypothesis's
    failing-example patch writer may raise on import into an INTERNALERROR
    (exit 3) that ends the run."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    before = snapshot(REPO)
    argv = ["-q", "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in run.stdout and "INTERNALERROR" not in output, output
    assert snapshot(REPO) == before
