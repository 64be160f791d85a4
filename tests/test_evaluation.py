from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from ncchecker import ValidationError, build, load_corpus, predict_lines, split
from ncchecker.abstraction import MASK_CHUNK_LINES, TemplateMiner
from ncchecker.corpus import DEFAULT_TAXONOMY
from ncchecker import evaluation
from ncchecker.evaluation import (
    ClassMetrics,
    ablation_identities,
    confusion,
    evaluate,
    left_sum,
    macro,
    per_class_metrics,
    render_comparison,
    render_report,
    report_records,
    score_tables,
)
from ncchecker.generator import default_spec, generate_synthetic
from ncchecker.table import ABLATION_VARIANTS, ablation_tables


# -- confusion -----------------------------------------------------------------


def test_confusion_perfect_predictions_are_diagonal():
    counts = confusion([0, 1, 2, 3, 1], [0, 1, 2, 3, 1], 4)
    assert counts == ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert sum(map(sum, counts)) == 5


def test_confusion_constant_predictions_fill_one_column():
    counts = confusion([0, 1, 2, 3], [0, 0, 0, 0], 4)
    for row in counts:
        assert row[1:] == (0, 0, 0)
    assert sum(row[0] for row in counts) == 4


def test_confusion_hand_tally():
    counts = confusion([1, 1, 2, 3], [1, 2, 2, 1], 4)
    assert counts[1][1] == 1
    assert counts[1][2] == 1
    assert counts[2][2] == 1
    assert counts[3][1] == 1
    assert sum(map(sum, counts)) == 4


def test_confusion_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="lengths differ"):
        confusion([0, 1], [0], 4)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60
    ),
    st.randoms(use_true_random=False),
)
def test_confusion_total_conserved_under_permutation(pairs, rng):
    truth = [t for t, _ in pairs]
    predicted = [p for _, p in pairs]
    counts = confusion(truth, predicted, 4)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert confusion([t for t, _ in shuffled], [p for _, p in shuffled], 4) == counts
    assert sum(map(sum, counts)) == len(pairs)


# -- per-class metrics -----------------------------------------------------------


def test_metrics_diagonal_confusion_is_perfect():
    cm = confusion([0, 1, 2, 3], [0, 1, 2, 3], 4)
    assert per_class_metrics(cm) == [ClassMetrics(1.0, 1.0, 1.0)] * 4


def test_metrics_never_predicted_class_gets_zeros():
    cm = confusion([0, 0, 1], [0, 0, 0], 4)
    metrics = per_class_metrics(cm)
    assert metrics[1] == ClassMetrics(0.0, 0.0, 0.0)
    assert metrics[2] == ClassMetrics(0.0, 0.0, 0.0)


def test_metrics_direct_substitution():
    # TP=3, FP=1, FN=2 for class 0.
    truth = [0, 0, 0, 0, 0, 1]
    predicted = [0, 0, 0, 1, 1, 0]
    metrics = per_class_metrics(confusion(truth, predicted, 2))
    assert metrics[0].precision == 0.75
    assert metrics[0].recall == 0.6
    assert metrics[0].f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-12)


def test_mcc_pattern_majority_full_recall_minority_zero():
    truth = [0] * 8 + [1] * 4 + [2] * 2 + [3]
    predicted = [0] * len(truth)
    report = evaluate(truth, predicted, DEFAULT_TAXONOMY)
    assert report.per_class[0].recall == 1.0
    for j in (1, 2, 3):
        assert report.per_class[j] == ClassMetrics(0.0, 0.0, 0.0)
    assert report.recall == 0.25  # 1/K with a fully recalled majority


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=80))
def test_metric_bounds(pairs):
    report = evaluate([t for t, _ in pairs], [p for _, p in pairs], DEFAULT_TAXONOMY)
    values = [report.precision, report.recall, report.f1]
    for m in report.per_class:
        values.extend(m)
    assert all(0.0 <= v <= 1.0 for v in values)


# -- macro -------------------------------------------------------------------------


def test_macro_all_perfect():
    report = macro([ClassMetrics(1.0, 1.0, 1.0)] * 4, DEFAULT_TAXONOMY.names, (3, 2, 0, 1))
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert (report.class_names, report.support, report.total) == (
        DEFAULT_TAXONOMY.names,
        (3, 2, 0, 1),
        6,
    )


def test_macro_f1_averages_per_class_f1():
    per_class = [
        ClassMetrics(0.656, 1.0, 0.792),
        ClassMetrics(0.0, 0.0, 0.0),
        ClassMetrics(0.0, 0.0, 0.0),
        ClassMetrics(0.0, 0.0, 0.0),
    ]
    report = macro(per_class, DEFAULT_TAXONOMY.names, (1, 1, 1, 1))
    assert report.f1 == pytest.approx(0.198, abs=1e-12)


def test_macro_precision_mean():
    per_class = [ClassMetrics(p, 0.0, 0.0) for p in (0.8, 0.6, 0.4, 0.2)]
    report = macro(per_class, DEFAULT_TAXONOMY.names, (1, 1, 1, 1))
    assert report.precision == pytest.approx(0.5, abs=1e-12)


def test_macro_includes_zero_support_classes():
    truth = [0, 0, 1]
    predicted = [0, 0, 1]
    report = evaluate(truth, predicted, DEFAULT_TAXONOMY)
    assert report.support == (2, 1, 0, 0)
    assert report.f1 == pytest.approx(0.5, abs=1e-12)


def test_left_sum_adds_left_to_right_from_zero():
    # Compensated sums (math.fsum, and sum() from Python 3.12) give 1.0 and 1.0.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(iter([1e16, 1.0, -1e16])) == 0.0
    assert left_sum([]) == 0.0 and isinstance(left_sum([]), float)


def test_macro_means_sum_left_to_right():
    # 0.1 + 0.1 + 0.1 + 0.3 is 0.6000000000000001 left to right, 0.6 compensated.
    per_class = [ClassMetrics(v, v, v) for v in (0.1, 0.1, 0.1, 0.3)]
    report = macro(per_class, DEFAULT_TAXONOMY.names, (1, 1, 1, 1))
    assert (report.precision, report.recall, report.f1) == (0.15000000000000002,) * 3


def test_macro_needs_two_classes():
    with pytest.raises(ValidationError):
        macro([ClassMetrics(1.0, 1.0, 1.0)], ("C1",), (1,))


# -- rendering ----------------------------------------------------------------------


def test_render_report_has_class_and_macro_rows():
    report = evaluate([0, 1, 2, 3], [0, 1, 2, 3], DEFAULT_TAXONOMY)
    text = render_report(report)
    for name in DEFAULT_TAXONOMY.names:
        assert name in text
    assert "macro" in text
    assert "100.0%" in text


def test_report_records_one_per_class_plus_macro():
    report = evaluate([0, 1, 2, 3], [0, 1, 2, 3], DEFAULT_TAXONOMY)
    records = report_records(report, "ncchecker")
    assert len(records) == 5
    assert records[-1]["class"] == "macro"
    assert all(r["approach"] == "ncchecker" for r in records)


def test_render_comparison_lists_every_approach():
    report = evaluate([0, 1, 2, 3], [0, 1, 2, 3], DEFAULT_TAXONOMY)
    text = render_comparison({"ncchecker": report, "mcc": report})
    assert "ncchecker" in text and "mcc" in text


# -- ablation -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_split(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    spec = default_spec(cause_counts=(24, 12, 8, 5), passed_count=10, seed=77, noise_rate=0.1)
    generate_synthetic(spec, root)
    corpus = load_corpus(root)
    return split(corpus, 0.2, seed=3)


def _ablation_reports(train, test):
    miner, tables = ablation_tables(train)
    return tables, score_tables(miner, tables, test)


def test_full_pipeline_is_perfect_on_planted_corpus(planted_split):
    train, test = planted_split
    _, reports = _ablation_reports(train, test)
    assert reports["full"].f1 == 1.0


def test_run_ablation_returns_the_variant_table_and_its_report(planted_split):
    # The one-pass tables and scores stand for the per-variant run: the
    # drop2 table is build's table without the reweighting, and each
    # table's report is the one it gets scored alone.
    train, test = planted_split
    miner, tables = ablation_tables(train)
    assert tables["drop2"] == replace(build(train)[1], skip_reweight=True)
    reports = score_tables(miner, tables, test)
    assert list(reports) == list(ABLATION_VARIANTS)
    for name in ("drop2", "full"):
        assert score_tables(miner, {name: tables[name]}, test) == {name: reports[name]}


def test_score_tables_requires_a_frozen_miner(planted_split):
    train, test = planted_split
    _, tables = ablation_tables(train)
    with pytest.raises(ValidationError, match="requires a frozen miner"):
        score_tables(TemplateMiner(), tables, test)


def test_drop1_table_is_superset_and_drop3_scales(planted_split):
    train, _ = planted_split
    _, tables = ablation_tables(train)
    messages = ablation_identities(tables["full"], tables["drop1"], tables["drop3"])
    assert len(messages) == 2
    assert set(tables["drop1"].rows) > set(tables["full"].rows)


def test_drop2_rows_are_counts_times_icf(planted_split):
    train, _ = planted_split
    _, tables = ablation_tables(train)
    full, drop2, drop3 = tables["full"], tables["drop2"], tables["drop3"]
    assert set(drop2.rows) == set(full.rows)
    for eid, row in drop2.rows.items():
        # Undo the icf scaling: the remaining values must be raw integer
        # counts, not reweighted fractions.
        counts = [v / full.icf[j] if full.icf[j] else 0.0 for j, v in enumerate(row)]
        assert all(abs(c - round(c)) < 1e-9 for c in counts)
        # And drop3 carries the reweighted values for the same events.
        assert eid in drop3.rows


def test_variants_disagree_in_the_expected_direction(planted_split):
    train, test = planted_split
    _, reports = _ablation_reports(train, test)
    assert reports["full"].f1 >= reports["drop3"].f1
    assert all(0.0 <= r.f1 <= 1.0 for r in reports.values())


def test_scores_from_event_sets_equal_per_log_predictions(tmp_path, monkeypatch):
    # Short logs, more test lines than one masking chunk holds, and a chunk
    # boundary inside a log; contamination makes the variants disagree, and
    # some logs fall back to the majority class.
    spec = default_spec(
        cause_counts=(120, 40, 25, 10),
        passed_count=12,
        markers_per_cause=5,
        noise_rate=0.0,
        seed=90_210,
        last_cause_contamination=5,
    )
    generate_synthetic(spec, tmp_path)
    train, test = split(load_corpus(tmp_path), 0.7, seed=1)
    ends = list(accumulate(len(log.lines) for log in test.failed))
    assert ends[-1] > MASK_CHUNK_LINES and MASK_CHUNK_LINES not in ends
    miner, tables = ablation_tables(train)

    scored = []  # each table's causes, in the order the reports are made

    def record(truth, predicted, taxonomy):
        scored.append(list(predicted))
        return evaluate(truth, predicted, taxonomy)

    monkeypatch.setattr(evaluation, "evaluate", record)
    reports = score_tables(miner, tables, test)
    monkeypatch.undo()
    truth = [log.cause for log in test.failed]
    fallbacks = 0
    for (name, table), causes in zip(tables.items(), scored, strict=True):
        per_log = [predict_lines(miner, table, log.lines, log.log_id)[0] for log in test.failed]
        assert causes == [prediction.cause for prediction in per_log], name
        assert reports[name] == evaluate(truth, causes, test.taxonomy)
        fallbacks += sum(prediction.fallback_used for prediction in per_log)
    # The variants do not all predict alike, so the check tells them apart.
    assert len({tuple(causes) for causes in scored}) > 1
    assert fallbacks
