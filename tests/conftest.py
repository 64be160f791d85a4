import pytest

from ncchecker.corpus import DEFAULT_TAXONOMY, Corpus, LabeledFailedLog, PassedLog

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


def make_fig_corpus() -> Corpus:
    """Miniature corpus whose lookup table has exactly three rows.

    The shared benign lines occur in passed and failed logs (with varying
    dynamic fields) and are diffed away.  The three one-problem lines
    produce count rows [2, 4, 1, 3], [0, 5, 0, 0], and [0, 1, 0, 0]
    against per-cause training sizes (2, 5, 1, 3).
    """
    passed = (
        PassedLog(
            "p01",
            (
                _benign("view", 0),
                _benign("user", 5),
                _benign("path", 259),
                _benign("took", 10),
                _benign("ckpt", 3),
            ),
        ),
        PassedLog(
            "p02",
            (
                _benign("view", 0),
                _benign("user", 8),
                _benign("path", 357),
                _benign("took", 22),
                _benign("ckpt", 7),
            ),
        ),
    )
    failed = (
        LabeledFailedLog("f01", (_benign("view", 0), _benign("user", 3), MULTI_LINE), 0),
        LabeledFailedLog("f02", (_benign("took", 31), MULTI_LINE, _benign("path", 41)), 0),
        LabeledFailedLog("f03", (_benign("view", 0), MULTI_LINE, SINGLE5_LINE), 1),
        LabeledFailedLog("f04", (_benign("user", 2), MULTI_LINE, SINGLE5_LINE), 1),
        LabeledFailedLog("f05", (MULTI_LINE, SINGLE5_LINE, _benign("ckpt", 9)), 1),
        LabeledFailedLog("f06", (_benign("path", 73), MULTI_LINE, SINGLE5_LINE), 1),
        LabeledFailedLog("f07", (_benign("view", 0), SINGLE5_LINE, SINGLE1_LINE), 1),
        LabeledFailedLog("f08", (_benign("took", 12), MULTI_LINE), 2),
        LabeledFailedLog("f09", (MULTI_LINE, _benign("user", 9)), 3),
        LabeledFailedLog("f10", (_benign("view", 0), MULTI_LINE), 3),
        LabeledFailedLog("f11", (MULTI_LINE, _benign("ckpt", 2)), 3),
    )
    return Corpus(passed, failed, DEFAULT_TAXONOMY)


@pytest.fixture
def fig_corpus() -> Corpus:
    return make_fig_corpus()
