"""The golden cases: the CLI's artifacts for fixed seeds and their digests.

Each case generates a corpus, trains a model, and runs predict, eval (all
four baselines) and ablate on it; predicting the passed logs covers the
majority-class fallback.  ``cli_digests`` returns the SHA-256 digests of
the model file and of every command's stdout, and ``GOLDEN`` holds the
recorded ones.  A deliberate output change re-records the constants and
says why.  ``corpus_digest`` digests a generated corpus tree, for the
tests that check that generation is deterministic.

This module imports no pytest: ``tests/test_golden.py`` checks the cases
under the test run's interpreter, and ``tests/golden_interpreters.py``
under any others.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from ncchecker.cli import main

NOISY_SPEC = {
    "cause_counts": [40, 24, 12, 6],
    "passed_count": 20,
    "seed": 11,
    "noise_rate": 0.3,
    "lines_range": [20, 60],
}

GOLDEN = {
    "default-seed7": {
        "model": "aeafb6379bec119a80c997d5494fff196480f0e29f84f147ac1a59cc1fc4e8eb",
        "predict": "0fa09ae922d57ba31ab8add39880af0549b5c0f2fe0612bda4f0dafa37a065a9",
        "predict_json": "3b2d8c4ac1df9e5bd3e6c6608f161d9edc9e9809384d9786ac6f15e9dd0f77bf",
        "predict_passed": "6e004aac40bdb96fc383962e095c204940898d4141b5be9a33a7f11e45fede6f",
        "eval": "7f2ba152d700c91b73fb05c2cdcdbd004f37d5793dc4b070be52b97224e1b897",
        "eval_json": "a028b31028b108c5bb003f61354506cb37f8a838772070acb3ed7f48e10f67df",
        "ablate": "12cf8d796abddbbe4c912aed63ac86e8555986f1ec4babc696f9b813330d7cc4",
    },
    "noisy-seed11": {
        "model": "7482d294332b2b026efbab99f8a255e6c753106dad1ab80c4c5694c587139ce4",
        "predict": "f063a1af3827ff840b4904bcc11bacb8f7ce91038a3865e55c70f69557d21bdb",
        "predict_json": "6d2c12aa03ad8c42ad79cbe911ea5ffecf0b03d2a1d1bf302bd9680b223657ad",
        "predict_passed": "9ba41e08045118fc1a078bea6830c3d0c284b4e849af98f2c29c20009f0780d1",
        "eval": "8b677235dc2925b0ecca49a37f5734593eb43d4d25956664ca6c4d0cb4dc986f",
        "eval_json": "c79b810f1afd13e034598f87dae45b208e69f4c5cfe9df15e91a692fcc4a3965",
        "ablate": "95570e3374bb200c0003fb8bb34d2130a095042e90b3a036c1805578cb89d258",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_digest(root) -> str:
    """SHA-256 over every file in the corpus tree; used to check determinism."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cli_digests(workdir: Path, case: str) -> dict:
    """Run the case's commands in ``workdir``; the digests of their stdout and of the model."""
    corpus = workdir / "corpus"
    model = workdir / "model.ncc"
    if case == "default-seed7":
        gen = ["gen", "--seed", "7", "--out", str(corpus)]
    else:
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(NOISY_SPEC))
        gen = ["gen", str(spec), "--out", str(corpus)]
    runs = {
        "gen": gen,
        "train": ["train", str(corpus), "--out", str(model)],
        "predict": ["predict", str(model), str(corpus / "failed")],
        "predict_json": ["predict", str(model), str(corpus / "failed"), "--json"],
        "predict_passed": ["predict", str(model), str(corpus / "passed"), "--json"],
        "eval": ["eval", str(model), str(corpus), "--baselines", "rg,mcc,cam,lff",
                 "--train-dir", str(corpus)],
        "eval_json": ["eval", str(model), str(corpus), "--baselines", "rg,mcc,cam,lff",
                      "--train-dir", str(corpus), "--json"],
        "ablate": ["ablate", str(corpus), "--seed", "3"],
    }
    digests = {}
    for name, argv in runs.items():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{case}: {name} exited {code}")
        stdout = captured.getvalue()
        if name not in ("gen", "train"):  # their stdout names the tmp paths
            digests[name] = _digest(stdout.encode("utf-8"))
    digests["model"] = _digest(model.read_bytes())
    return digests
