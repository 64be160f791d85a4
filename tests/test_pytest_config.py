import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_FAILING_PROPERTIES = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_first_property(x):
    assert x < 10


@settings(derandomize=True, database=None)
@given(st.integers())
def test_second_property(x):
    assert x > -10
"""


def test_every_failing_property_is_reported(tmp_path):
    # Under the repo's warning filters, the report of one failing property
    # must not abort the session and hide the failures after it.
    module = tmp_path / "test_two_failing.py"
    module.write_text(_TWO_FAILING_PROPERTIES)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(module)]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_two_failing.py::test_first_property" in output
    assert "FAILED test_two_failing.py::test_second_property" in output
    assert "2 failed" in output
