import re

import pytest
from hypothesis import given, strategies as st

from ncchecker import ValidationError, build, load_corpus, split
from ncchecker.corpus import DEFAULT_TAXONOMY
from ncchecker.evaluation import (
    ClassMetrics,
    ablation_identities,
    confusion,
    evaluate,
    macro,
    per_class_metrics,
    predict_corpus,
    render_comparison,
    render_report,
    report_records,
    run_ablation,
)
from ncchecker.generator import default_spec, generate_synthetic
from ncchecker.table import ABLATION_VARIANTS


# -- confusion -----------------------------------------------------------------


def test_confusion_perfect_predictions_are_diagonal():
    cm = confusion([0, 1, 2, 3, 1], [0, 1, 2, 3, 1], 4)
    assert cm.counts == ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert cm.total == 5


def test_confusion_constant_predictions_fill_one_column():
    cm = confusion([0, 1, 2, 3], [0, 0, 0, 0], 4)
    for row in cm.counts:
        assert row[1:] == (0, 0, 0)
    assert cm.col_sum(0) == 4


def test_confusion_hand_tally():
    cm = confusion([1, 1, 2, 3], [1, 2, 2, 1], 4)
    assert cm.counts[1][1] == 1
    assert cm.counts[1][2] == 1
    assert cm.counts[2][2] == 1
    assert cm.counts[3][1] == 1
    assert cm.total == 4


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
    cm = confusion(truth, predicted, 4)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    cm_shuffled = confusion([t for t, _ in shuffled], [p for _, p in shuffled], 4)
    assert cm.counts == cm_shuffled.counts
    assert cm.total == len(pairs)


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
    report = macro([ClassMetrics(1.0, 1.0, 1.0)] * 4)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_macro_f1_averages_per_class_f1():
    per_class = [
        ClassMetrics(0.656, 1.0, 0.792),
        ClassMetrics(0.0, 0.0, 0.0),
        ClassMetrics(0.0, 0.0, 0.0),
        ClassMetrics(0.0, 0.0, 0.0),
    ]
    report = macro(per_class)
    assert report.f1 == pytest.approx(0.198, abs=1e-12)


def test_macro_precision_mean():
    per_class = [ClassMetrics(p, 0.0, 0.0) for p in (0.8, 0.6, 0.4, 0.2)]
    assert macro(per_class).precision == pytest.approx(0.5, abs=1e-12)


def test_macro_includes_zero_support_classes():
    truth = [0, 0, 1]
    predicted = [0, 0, 1]
    report = evaluate(truth, predicted, DEFAULT_TAXONOMY)
    assert report.support == (2, 1, 0, 0)
    assert report.f1 == pytest.approx(0.5, abs=1e-12)


def test_macro_needs_two_classes():
    with pytest.raises(ValidationError):
        macro([ClassMetrics(1.0, 1.0, 1.0)])


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


def test_full_pipeline_is_perfect_on_planted_corpus(planted_split):
    train, test = planted_split
    _, report = run_ablation(train, test, "full")
    assert report.f1 == 1.0


def test_run_ablation_returns_the_variant_table_and_its_report(planted_split):
    train, test = planted_split
    miner, built = build(train, variant="drop2")
    table, report = run_ablation(train, test, "drop2")
    assert table == built
    assert report == predict_corpus(miner, built, test)


def test_drop1_table_is_superset_and_drop3_scales(planted_split):
    train, _ = planted_split
    tables = {v: build(train, variant=v)[1] for v in ABLATION_VARIANTS}
    messages = ablation_identities(tables["full"], tables["drop1"], tables["drop3"])
    assert len(messages) == 2
    assert set(tables["drop1"].rows) > set(tables["full"].rows)


def test_drop2_rows_are_counts_times_icf(planted_split):
    train, _ = planted_split
    full = build(train, variant="full")[1]
    drop2 = build(train, variant="drop2")[1]
    drop3 = build(train, variant="drop3")[1]
    assert set(drop2.rows) == set(full.rows)
    for eid, row in drop2.rows.items():
        # Undo the icf scaling: the remaining values must be raw integer
        # counts, not reweighted fractions.
        counts = [v / full.icf[j] if full.icf[j] else 0.0 for j, v in enumerate(row)]
        assert all(abs(c - round(c)) < 1e-9 for c in counts)
        # And drop3 carries the reweighted values for the same events.
        assert eid in drop3.rows


def test_unknown_variant_rejected(planted_split):
    train, test = planted_split
    with pytest.raises(ValidationError, match="unknown ablation variant"):
        run_ablation(train, test, "drop9")
    message = "unknown ablation variant 'drop4'; choose from full, drop1, drop2, drop3"
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(train, variant="drop4")


def test_variant_names_are_case_insensitive(planted_split):
    train, test = planted_split
    assert run_ablation(train, test, "Full")[1].f1 == run_ablation(train, test, "full")[1].f1
    assert build(train, variant="DROP1")[1] == build(train, variant="drop1")[1]


def test_variants_disagree_in_the_expected_direction(planted_split):
    train, test = planted_split
    reports = {v: run_ablation(train, test, v)[1] for v in ABLATION_VARIANTS}
    assert reports["full"].f1 >= reports["drop3"].f1
    assert all(0.0 <= r.f1 <= 1.0 for r in reports.values())
