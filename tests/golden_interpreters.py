"""Check the golden digests under each Python interpreter named on the command line.

    python tests/golden_interpreters.py /path/to/python3.10 /path/to/python3.13 ...

Each interpreter runs every case of ``golden_cases`` in a fresh process,
with this checkout's ``src`` and ``tests`` on its path, and compares each
digest with the recorded one.  One line per interpreter says what ran:
``ok``, ``MISMATCH`` with the digests that differ, ``FAILED`` with the
child's stderr, or ``MISSING`` for a path that is not an executable file.
The exit code is 0 only if every interpreter given ran and matched every
digest.  Standard library only, so it needs no pytest on any interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# Run in the child: every golden case in a temporary directory, then one
# JSON line with the interpreter's version and the digests that differ.
CHILD = """
import json, platform, tempfile
from pathlib import Path
from golden_cases import GOLDEN, cli_digests

checked, differ = 0, []
for case in sorted(GOLDEN):
    with tempfile.TemporaryDirectory() as workdir:
        digests = cli_digests(Path(workdir), case)
    for name, expected in sorted(GOLDEN[case].items()):
        checked += 1
        if digests.get(name) != expected:
            differ.append(f"{case}/{name}")
print(json.dumps({"version": platform.python_version(), "checked": checked, "differ": differ}))
"""


def check(interpreter: str) -> tuple[bool, str]:
    """Run the golden cases under one interpreter: whether all matched, and its report line."""
    if not (os.path.isfile(interpreter) and os.access(interpreter, os.X_OK)):
        return False, f"MISSING   {interpreter}"
    path = [str(TESTS.parent / "src"), str(TESTS)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run([interpreter, "-c", CHILD], env=env, capture_output=True, text=True)
    try:
        report = json.loads(result.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if result.returncode != 0 or report is None:
        last = (result.stderr.strip().splitlines() or ["no output"])[-1]
        return False, f"FAILED    {interpreter}: exit {result.returncode}: {last}"
    ran = f"{interpreter} (Python {report['version']})"
    if report["differ"]:
        return False, f"MISMATCH  {ran}: {', '.join(report['differ'])}"
    return True, f"ok        {ran}: {report['checked']} digests equal"


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: golden_interpreters.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    passed = True
    for interpreter in argv:
        ok, line = check(interpreter)
        print(line, flush=True)
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
