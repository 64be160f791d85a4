import math
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from ncchecker import ValidationError, build, flag_lines, predict_lines
from ncchecker.abstraction import REGISTRY_HEADER, UNKNOWN_EVENT_ID, EventSequence, TemplateMiner
from ncchecker.corpus import DEFAULT_TAXONOMY
from ncchecker.predictor import FlaggedLine, predict
from ncchecker.table import ABLATION_VARIANTS, ScoreTable, ablation_tables

from conftest import MULTI_LINE, SINGLE1_LINE, SINGLE5_LINE, make_fig_corpus


def _seq(events, source="f"):
    return EventSequence(source, tuple(events))


def _table(counts, n_per_cause=(10, 10, 10, 10), skip_reweight=False, skip_icf=True):
    """A table of count rows over the default taxonomy, by default scored without the icf.

    The default's equal class sizes give every cause the same icf, which
    breaks score ties.  Reweighted, a count row (2, 4, 1, 3) scores
    (0.2, 0.4, 0.1, 0.3), (1, 1, 0, 0) scores (0.5, 0.5, 0.0, 0.0), and a
    lone count c scores 1.0 for c = 1, else log2(1 + c).
    """
    return ScoreTable(counts, DEFAULT_TAXONOMY, tuple(n_per_cause), skip_reweight, skip_icf)


# -- scores ---------------------------------------------------------------------


def test_score_single_event_row():
    # A lone C4 count scaled by icf_4 = 251 / 4 = 62.75.
    table = _table({"e1": (0, 0, 0, 1)}, (100, 100, 47, 4), skip_icf=False)
    assert predict(table, _seq(["e1"])).scores == (0.0, 0.0, 0.0, 62.75)


def test_score_out_of_table_events_contribute_nothing():
    table = _table({"e1": (1, 0, 0, 0)})
    assert predict(table, _seq(["e9", "<unknown>", None])).scores == (0.0, 0.0, 0.0, 0.0)
    # UNKNOWN scores nothing even if a row names it.
    named = predict(_table({"<unknown>": (1, 0, 0, 0)}), _seq(["<unknown>"]))
    assert named.fallback_used


def test_score_presence_not_multiplicity():
    table = _table({"ea": (1, 0, 0, 0), "eb": (2, 4, 1, 3)})
    events = _seq(["ea", "eb", "eb", "eb"])
    scores = list(predict(table, events).scores)
    assert scores == [1.2, 0.4, 0.1, 0.3]
    # A per-line-summing variant would count eb three times instead.
    per_line = [0.0] * 4
    for eid in events.events:
        for j, v in enumerate(table.rows.get(eid, ())):
            per_line[j] += v
    assert per_line == pytest.approx([1.6, 1.2, 0.3, 0.9])
    assert scores != per_line


@given(st.sets(st.sampled_from(["e1", "e2", "e3", "e4", "e5"]), min_size=1, max_size=5))
def test_score_additivity_over_partitions(event_set):
    table = _table(
        {
            "e1": (1, 0, 0, 0),
            "e2": (1, 1, 1, 1),
            "e3": (0, 3, 0, 0),
            "e4": (0, 0, 7, 0),
        }
    )
    events = sorted(event_set)
    whole = predict(table, _seq(events)).scores
    half = len(events) // 2
    left = predict(table, _seq(events[:half])).scores
    right = predict(table, _seq(events[half:])).scores
    for w, l, r in zip(whole, left, right):
        assert abs(w - (l + r)) <= 1e-12


# -- predict --------------------------------------------------------------------


def test_predict_argmax():
    table = _table({"ea": (1, 0, 0, 0), "eb": (2, 4, 1, 3)})
    prediction = predict(table, _seq(["ea", "eb"]))
    assert prediction.cause == 0
    assert prediction.scores == (1.2, 0.4, 0.1, 0.3)
    assert not prediction.fallback_used


def test_predict_all_zero_falls_back_to_majority():
    table = _table({"e1": (1, 0, 0, 0)}, n_per_cause=(2600, 885, 470, 65))
    prediction = predict(table, _seq(["e9"]))
    assert prediction.fallback_used
    assert prediction.cause == 0
    assert prediction.contributors == ()


def test_predict_fallback_majority_tie_takes_lower_id():
    table = _table({"e1": (1, 0, 0, 0)}, n_per_cause=(5, 5, 2, 1))
    prediction = predict(table, _seq(["e9"]))
    assert prediction.cause == 0


def test_predict_score_tie_prefers_rarer_class():
    table = _table({"ea": (1, 1, 0, 0)}, n_per_cause=(2600, 885, 470, 65))
    assert table.rows["ea"] == (0.5, 0.5, 0.0, 0.0)
    prediction = predict(table, _seq(["ea"]))
    assert prediction.cause == 1


def test_predict_score_and_icf_tie_takes_lower_id():
    table = _table({"ea": (1, 1, 0, 0)})
    assert predict(table, _seq(["ea"])).cause == 0


def test_contributors_ranked_by_row_max_then_id():
    # Contributors rank by their cell in the predicted column (C4 here); on
    # this table that is the same order as by row maximum.
    table = _table(
        {"e1": (0, 0, 0, 1), "e2": (3, 1, 0, 0), "e3": (1, 0, 0, 0)},
        (100, 100, 47, 4),
        skip_icf=False,
    )
    prediction = predict(table, _seq(["e2", "e1", "e3"]))
    assert [c.event_id for c in prediction.contributors] == ["e1", "e2", "e3"]
    assert prediction.contributors[0].score == 62.75


def test_contributors_ranked_by_predicted_column_cell():
    table = _table({"e1": (0, 3, 1, 0), "e2": (0, 0, 3, 0), "e3": (0, 0, 5, 0)})
    events = _seq(["e1", "e2", None, "e3", "e1"])
    prediction = predict(table, events)
    assert prediction.cause == 2
    assert [c.event_id for c in prediction.contributors] == ["e3", "e2", "e1"]
    assert [c.score for c in prediction.contributors] == [math.log2(6), 2.0, 0.25]
    # Line n is events[n - 1]; flag_lines finds the lines, in contributor rank.
    miner = TemplateMiner.from_registry_lines([REGISTRY_HEADER, "1\ta", "1\tb", "1\tc"])
    flagged = flag_lines(prediction, events, miner)
    assert [(f.line_number, f.event_id) for f in flagged] == [
        (4, "e3"),
        (2, "e2"),
        (1, "e1"),
        (5, "e1"),
    ]


@given(st.integers(min_value=1, max_value=1000))
def test_argmax_invariant_under_positive_scaling(factor):
    # Without either scoring step the scores are the counts themselves.
    rows = {"ea": (1, 0, 0, 0), "eb": (2, 4, 1, 3), "ec": (0, 0, 2, 2)}
    sizes = (4000, 4000, 4000, 4000)
    base = _table(rows, sizes, skip_reweight=True)
    scaled = _table(
        {eid: tuple(c * factor for c in row) for eid, row in rows.items()},
        sizes,
        skip_reweight=True,
    )
    for events in (["ea"], ["eb"], ["ea", "eb"], ["ec"], ["ea", "eb", "ec"]):
        assert predict(base, _seq(events)).cause == predict(scaled, _seq(events)).cause


def test_prediction_is_pure(fig_corpus):
    miner, table = build(fig_corpus)
    registry = miner.export_registry()
    rows_before = dict(table.rows)
    prediction, events = predict_lines(
        miner, table, [MULTI_LINE, "never seen gibberish line"], "new"
    )
    assert miner.export_registry() == registry
    assert table.rows == rows_before
    assert not prediction.fallback_used


def test_predict_lines_requires_frozen_miner(fig_corpus):
    from ncchecker.abstraction import TemplateMiner

    _, table = build(fig_corpus)
    thawed = TemplateMiner()
    with pytest.raises(ValidationError, match="frozen"):
        predict_lines(thawed, table, ["x"], "f")


# -- flag_lines -------------------------------------------------------------------


def test_flag_lines_single_contributor(fig_corpus):
    miner, table = build(fig_corpus)
    lines = ["system-view", MULTI_LINE, "return user view 4", MULTI_LINE]
    prediction, events = predict_lines(miner, table, lines, "new")
    flagged = flag_lines(prediction, events, miner)
    assert [f.line_number for f in flagged] == [2, 4]
    assert flagged[0].template == MULTI_LINE


def test_flag_lines_ordered_by_predicted_column_score(fig_corpus):
    miner, table = build(fig_corpus)
    lines = [MULTI_LINE, SINGLE5_LINE, SINGLE1_LINE]
    prediction, events = predict_lines(miner, table, lines, "new")
    assert prediction.cause == 1
    flagged = flag_lines(prediction, events, miner)
    column = [table.rows[f.event_id][prediction.cause] for f in flagged]
    assert column == sorted(column, reverse=True)
    assert flagged[0].template == SINGLE5_LINE  # log2(6) * icf beats the rest


def test_flag_lines_fallback_is_empty(fig_corpus):
    miner, table = build(fig_corpus)
    prediction, events = predict_lines(miner, table, ["system-view"], "new")
    assert prediction.fallback_used
    assert flag_lines(prediction, events, miner) == []


def test_flag_lines_rejects_mismatched_log(fig_corpus):
    miner, table = build(fig_corpus)
    prediction, _ = predict_lines(miner, table, [MULTI_LINE], "a")
    _, other_events = predict_lines(miner, table, ["system-view"], "b")
    with pytest.raises(ValidationError, match="not produced from this log"):
        flag_lines(prediction, other_events, miner)


# -- predict and flag_lines against per-line parses ------------------------------------

# The fig corpus's miner and its table for each variant; drop1 keeps the
# benign events too.
_FIG_MODELS = []


def _fig_model(variant):
    if not _FIG_MODELS:
        with tempfile.TemporaryDirectory() as root:
            _FIG_MODELS.extend(ablation_tables(make_fig_corpus(root)))
    miner, tables = _FIG_MODELS
    return miner, tables[variant]


_FIG_LINES = st.one_of(
    st.sampled_from(
        [MULTI_LINE, SINGLE5_LINE, SINGLE1_LINE, "system-view", "", "   ", "never seen gibberish"]
    ),
    st.integers(0, 999).map("return user view {}".format),
    st.integers(0, 999).map("Took {} seconds to build instances".format),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(ABLATION_VARIANTS), st.lists(_FIG_LINES, max_size=12))
def test_flag_lines_and_predict_equal_per_line_references(variant, log):
    # Logs with blank lines, unknown lines and repeated events.
    miner, table = _fig_model(variant)
    prediction, events = predict_lines(miner, table, log, "log")
    ids = [miner.parse_line(line) for line in log]
    assert events.events == tuple(ids)
    # In contributor order, then by ascending line number.
    expected = [
        FlaggedLine(n, c.event_id, miner.template_text(c.event_id), c.score)
        for c in prediction.contributors
        for n, event_id in enumerate(ids, 1)
        if event_id == c.event_id
    ]
    assert flag_lines(prediction, events, miner) == expected
    in_table = set(ids) & table.rows.keys() - {UNKNOWN_EVENT_ID}
    assert {c.event_id for c in prediction.contributors} == in_table
    # Scoring reads only the log's event set.
    assert predict(table, next(miner.event_sets(["\n".join(log)]))) == prediction
