"""The suite's pytest configuration, exercised in a child pytest run.

``pyproject.toml`` turns a ``DeprecationWarning`` raised from repro code
or from a test into an error.  The filter is scoped by module so that a
third-party import inside Hypothesis' failure report (libcst, when it is
installed) does not abort the run with an INTERNALERROR before the
falsifying example is printed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(0, 100))
def test_small(x):
    assert x < 10
'''

WARNING_TEST = '''
import warnings


def test_warns():
    warnings.warn("an old spelling", DeprecationWarning)
'''


def _child_pytest(tmp_path: Path, source: str) -> subprocess.CompletedProcess:
    """Run *source* as ``tests/test_child.py`` under the repo's pytest config."""
    package = tmp_path / "tests"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "test_child.py").write_text(source)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(REPO_ROOT / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "tests/test_child.py",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_failing_property_reports_its_falsifying_example(tmp_path):
    run = _child_pytest(tmp_path, FAILING_PROPERTY)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed" in output


def test_deprecation_warning_in_a_test_fails_it(tmp_path):
    run = _child_pytest(tmp_path, WARNING_TEST)
    output = run.stdout + run.stderr
    assert run.returncode == 1
    assert "DeprecationWarning: an old spelling" in output
    assert "1 failed" in output
