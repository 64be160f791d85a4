"""Golden digests of the CLI's artifacts for fixed seeds.

The cases and their recorded digests are in ``golden_cases``.  Any change
to a model byte, a score, a flagged line or a report fails here.
``golden_interpreters.py`` checks the same digests under other Python
interpreters; the tests below run it under this one.
"""

import platform
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import GOLDEN, cli_digests

SCRIPT = Path(__file__).with_name("golden_interpreters.py")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_outputs_match_golden_digests(case, tmp_path):
    assert cli_digests(tmp_path, case) == GOLDEN[case]


def _run_script(*interpreters) -> subprocess.CompletedProcess:
    command = [sys.executable, str(SCRIPT), *map(str, interpreters)]
    return subprocess.run(command, capture_output=True, text=True)


def test_the_interpreter_script_checks_every_digest_under_this_interpreter():
    result = _run_script(sys.executable)
    assert (result.returncode, result.stderr) == (0, "")
    digests = sum(len(case) for case in GOLDEN.values())
    ran = f"{sys.executable} (Python {platform.python_version()})"
    assert result.stdout == f"ok        {ran}: {digests} digests equal\n"


def test_the_golden_digests_hold_under_two_hash_seeds(monkeypatch):
    # String hashes, and so the order of a set of strings, change with the seed;
    # no output may depend on them.  The script passes its environment on.
    import golden_interpreters

    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        ok, line = golden_interpreters.check(sys.executable)
        assert ok, f"PYTHONHASHSEED={seed}: {line}"


def test_the_interpreter_script_fails_on_a_missing_interpreter(tmp_path):
    result = _run_script(tmp_path / "python")
    assert result.returncode == 1
    assert result.stdout == f"MISSING   {tmp_path / 'python'}\n"


@pytest.mark.parametrize(
    "child, line",
    [
        (
            'print(\'{"version": "3.x", "checked": 14, "differ": ["case/eval_json"]}\')',
            "MISMATCH  {python} (Python 3.x): case/eval_json\n",
        ),
        ("import sys; sys.exit('boom')", "FAILED    {python}: exit 1: boom\n"),
    ],
)
def test_the_interpreter_script_fails_on_a_digest_that_differs_or_a_failed_run(
    child, line, monkeypatch, capsys
):
    import golden_interpreters

    monkeypatch.setattr(golden_interpreters, "CHILD", child)
    assert golden_interpreters.main([sys.executable]) == 1
    assert capsys.readouterr().out == line.format(python=sys.executable)
