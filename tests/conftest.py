from pathlib import Path

import pytest

from ncchecker.corpus import Corpus, load_corpus

# Shared one-problem lines for the miniature worked-example corpus. Token
# counts and leading tokens are chosen so the miner keeps them distinct
# from each other and from the benign lines.
MULTI_LINE = "The slave board is not in position"
SINGLE5_LINE = "Temperature sensor calibration drifted out of range"
SINGLE1_LINE = "Watchdog restarted process tree unexpectedly"

_BENIGN = {
    "view": "system-view",
    "user": "return user view {n}",
    "path": "cmd.pathinfo=/usr/local/cmd/cfg.rb:{n}",
    "took": "Took {n} seconds to build instances",
    "ckpt": "delete rollback checkpoint {n}",
}


def _benign(key: str, n: int) -> str:
    return _BENIGN[key].format(n=n)


def write_corpus(root, passed, failed, labels_rows) -> None:
    """Write a corpus directory: each ``{log_id: text}`` of ``passed`` and
    ``failed`` as a log file, and ``labels.csv`` with ``labels_rows``."""
    root = Path(root)
    (root / "passed").mkdir(parents=True)
    (root / "failed").mkdir(parents=True)
    for name, text in passed.items():
        (root / "passed" / f"{name}.log").write_text(text, encoding="utf-8")
    for name, text in failed.items():
        (root / "failed" / f"{name}.log").write_text(text, encoding="utf-8")
    (root / "labels.csv").write_text("\n".join(["log_id,cause_id"] + labels_rows) + "\n")


def log_text(lines) -> str:
    """The text of a log file whose lines are ``lines``."""
    return "".join(f"{line}\n" for line in lines)


def make_fig_corpus(root) -> Corpus:
    """Miniature corpus whose lookup table has exactly three rows, written
    under ``root`` and loaded from there.

    The shared benign lines occur in passed and failed logs (with varying
    dynamic fields) and are diffed away.  The three one-problem lines
    produce count rows [2, 4, 1, 3], [0, 5, 0, 0], and [0, 1, 0, 0]
    against per-cause training sizes (2, 5, 1, 3).
    """
    passed = {
        "p01": (
            _benign("view", 0),
            _benign("user", 5),
            _benign("path", 259),
            _benign("took", 10),
            _benign("ckpt", 3),
        ),
        "p02": (
            _benign("view", 0),
            _benign("user", 8),
            _benign("path", 357),
            _benign("took", 22),
            _benign("ckpt", 7),
        ),
    }
    failed = {
        "f01": ((_benign("view", 0), _benign("user", 3), MULTI_LINE), 0),
        "f02": ((_benign("took", 31), MULTI_LINE, _benign("path", 41)), 0),
        "f03": ((_benign("view", 0), MULTI_LINE, SINGLE5_LINE), 1),
        "f04": ((_benign("user", 2), MULTI_LINE, SINGLE5_LINE), 1),
        "f05": ((MULTI_LINE, SINGLE5_LINE, _benign("ckpt", 9)), 1),
        "f06": ((_benign("path", 73), MULTI_LINE, SINGLE5_LINE), 1),
        "f07": ((_benign("view", 0), SINGLE5_LINE, SINGLE1_LINE), 1),
        "f08": ((_benign("took", 12), MULTI_LINE), 2),
        "f09": ((MULTI_LINE, _benign("user", 9)), 3),
        "f10": ((_benign("view", 0), MULTI_LINE), 3),
        "f11": ((MULTI_LINE, _benign("ckpt", 2)), 3),
    }
    write_corpus(
        root,
        {log_id: log_text(lines) for log_id, lines in passed.items()},
        {log_id: log_text(lines) for log_id, (lines, _) in failed.items()},
        [f"{log_id},{cause}" for log_id, (_, cause) in failed.items()],
    )
    return load_corpus(root)


@pytest.fixture
def fig_corpus(tmp_path) -> Corpus:
    return make_fig_corpus(tmp_path / "fig")
