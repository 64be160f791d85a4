import pytest
from hypothesis import given, strategies as st

from ncchecker import ValidationError, build, flag_lines, predict_lines
from ncchecker.abstraction import EventSequence
from ncchecker.corpus import DEFAULT_TAXONOMY
from ncchecker.predictor import predict
from ncchecker.table import ScoreTable

from conftest import MULTI_LINE, SINGLE1_LINE, SINGLE5_LINE


def _seq(events, source="f"):
    return EventSequence(source, tuple(events), tuple(range(1, len(events) + 1)))


def _table(rows, icf=(1.0, 1.0, 1.0, 1.0), n_per_cause=(4, 3, 2, 1)):
    kinds = {
        eid: "single" if sum(1 for v in row if v) == 1 else "multi"
        for eid, row in rows.items()
    }
    return ScoreTable(
        rows={eid: tuple(row) for eid, row in rows.items()},
        kinds=kinds,
        icf=tuple(icf),
        taxonomy=DEFAULT_TAXONOMY,
        n_total=sum(n_per_cause),
        n_per_cause=tuple(n_per_cause),
    )


# -- scores ---------------------------------------------------------------------


def test_score_single_event_row():
    table = _table({"e1": (0.0, 0.0, 0.0, 62.75)})
    assert predict(table, _seq(["e1"])).scores == (0.0, 0.0, 0.0, 62.75)


def test_score_out_of_table_events_contribute_nothing():
    table = _table({"e1": (1.0, 0.0, 0.0, 0.0)})
    assert predict(table, _seq(["e9", "<unknown>"])).scores == (0.0, 0.0, 0.0, 0.0)


def test_score_presence_not_multiplicity():
    table = _table({"ea": (1.0, 0.0, 0.0, 0.0), "eb": (0.2, 0.4, 0.1, 0.3)})
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
            "e1": (1.0, 0.0, 0.0, 0.0),
            "e2": (0.25, 0.25, 0.25, 0.25),
            "e3": (0.0, 2.0, 0.0, 0.0),
            "e4": (0.0, 0.0, 3.5, 0.0),
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
    table = _table({"ea": (1.0, 0.0, 0.0, 0.0), "eb": (0.2, 0.4, 0.1, 0.3)})
    prediction = predict(table, _seq(["ea", "eb"]))
    assert prediction.cause == 0
    assert prediction.scores == (1.2, 0.4, 0.1, 0.3)
    assert not prediction.fallback_used


def test_predict_all_zero_falls_back_to_majority():
    table = _table({"e1": (1.0, 0.0, 0.0, 0.0)}, n_per_cause=(2600, 885, 470, 65))
    prediction = predict(table, _seq(["e9"]))
    assert prediction.fallback_used
    assert prediction.cause == 0
    assert prediction.contributors == ()


def test_predict_fallback_majority_tie_takes_lower_id():
    table = _table({"e1": (1.0, 0.0, 0.0, 0.0)}, n_per_cause=(5, 5, 2, 1))
    prediction = predict(table, _seq(["e9"]))
    assert prediction.cause == 0


def test_predict_score_tie_prefers_rarer_class():
    table = _table(
        {"ea": (0.5, 0.5, 0.0, 0.0)},
        icf=(1.55, 4.54, 8.55, 61.85),
    )
    prediction = predict(table, _seq(["ea"]))
    assert prediction.cause == 1


def test_predict_score_and_icf_tie_takes_lower_id():
    table = _table({"ea": (0.5, 0.5, 0.0, 0.0)}, icf=(2.0, 2.0, 2.0, 2.0))
    assert predict(table, _seq(["ea"])).cause == 0


def test_contributors_ranked_by_row_max_then_id():
    # Contributors rank by their cell in the predicted column (C4 here); on
    # this table that is the same order as by row maximum.
    table = _table(
        {
            "e1": (0.0, 0.0, 0.0, 62.75),
            "e2": (0.3, 0.1, 0.0, 0.0),
            "e3": (0.3, 0.0, 0.0, 0.0),
        }
    )
    prediction = predict(table, _seq(["e2", "e1", "e3"]))
    assert [c.event_id for c in prediction.contributors] == ["e1", "e2", "e3"]
    assert prediction.contributors[0].score == 62.75


def test_contributors_ranked_by_predicted_column_cell():
    table = _table(
        {
            "e1": (0.0, 3.0, 1.0, 0.0),
            "e2": (0.0, 0.0, 2.0, 0.0),
            "e3": (0.0, 0.0, 2.5, 0.0),
        }
    )
    prediction = predict(table, _seq(["e1", "e2", "e3", "e1"]))
    assert prediction.cause == 2
    assert [c.event_id for c in prediction.contributors] == ["e3", "e2", "e1"]
    assert [c.score for c in prediction.contributors] == [2.5, 2.0, 1.0]
    assert prediction.contributors[2].line_numbers == (1, 4)


@given(st.floats(min_value=0.001, max_value=1000.0, allow_nan=False))
def test_argmax_invariant_under_positive_scaling(factor):
    rows = {"ea": (1.0, 0.0, 0.0, 0.0), "eb": (0.2, 0.4, 0.1, 0.3), "ec": (0.0, 0.0, 2.0, 2.0)}
    base = _table(rows)
    scaled = _table({eid: tuple(v * factor for v in row) for eid, row in rows.items()})
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
