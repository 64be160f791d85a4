import math

import pytest
from hypothesis import given, strategies as st

from ncchecker import ValidationError, build, load_corpus
from ncchecker.abstraction import EventSequence
from ncchecker.corpus import DEFAULT_TAXONOMY, Corpus, LabeledFailedLog
from ncchecker.generator import default_spec, generate_synthetic, parse_manifest
from ncchecker.table import (
    apply_icf,
    collect_pools,
    compute_icf,
    diff_with_pass,
    init_counts,
    reweight,
    scores_from_counts,
    table_from_text,
    table_to_text,
)

from bruteforce import brute_force_rows
from conftest import MULTI_LINE, SINGLE1_LINE, SINGLE5_LINE


def _seq(source, events):
    return EventSequence(source, tuple(events), tuple(range(1, len(events) + 1)))


# -- pools and diff ----------------------------------------------------------


def test_collect_pools_union():
    passed, failed = collect_pools(
        [_seq("p1", ["e0", "e1"]), _seq("p2", ["e1", "e4"])],
        [_seq("f1", ["e2", "e0"])],
    )
    assert passed == {"e0", "e1", "e4"}
    assert failed == {"e2", "e0"}


def test_collect_pools_no_passed_logs():
    passed, _ = collect_pools([], [_seq("f1", ["e1"])])
    assert passed == frozenset()


def test_diff_removes_shared_events():
    failed = frozenset({f"e{i}" for i in range(8)})
    passed = frozenset({"e0", "e1", "e4", "e6", "e7"})
    assert diff_with_pass(failed, passed) == {"e2", "e3", "e5"}


def test_diff_with_empty_passed_pool_is_identity():
    failed = frozenset({"e1", "e2"})
    assert diff_with_pass(failed, frozenset()) == {"e1", "e2"}


def test_diff_aborts_when_nothing_remains():
    pool = frozenset({"e1"})
    with pytest.raises(ValidationError, match="no discriminative events"):
        diff_with_pass(pool, frozenset({"e1"}))


# -- init_counts -------------------------------------------------------------


def test_init_counts_rows():
    vocab = frozenset({"e2", "e10"})
    seqs = (
        [(_seq(f"a{i}", ["e2"]), 0) for i in range(2)]
        + [(_seq(f"b{i}", ["e2", "e10"]), 1) for i in range(4)]
        + [(_seq("b4", ["e10"]), 1)]
        + [(_seq("c0", ["e2"]), 2)]
        + [(_seq(f"d{i}", ["e2"]), 3) for i in range(3)]
    )
    counts = init_counts(vocab, seqs, 4)
    assert counts.rows["e2"] == (2, 4, 1, 3)
    assert counts.rows["e10"] == (0, 5, 0, 0)
    assert counts.n_total == 11
    assert counts.n_per_cause == (2, 5, 1, 3)


def test_init_counts_presence_not_multiplicity():
    # The same event on 7 lines of one log contributes 1; a per-occurrence
    # variant would put 7 in the cell.
    vocab = frozenset({"e1"})
    seq = _seq("f1", ["e1"] * 7)
    counts = init_counts(vocab, [(seq, 2)], 4)
    per_occurrence = sum(1 for e in seq.events if e == "e1")
    assert per_occurrence == 7
    assert counts.rows["e1"] == (0, 0, 1, 0)


def test_init_counts_ignores_out_of_vocabulary_events():
    counts = init_counts(frozenset({"e1"}), [(_seq("f1", ["e1", "e9"]), 0)], 4)
    assert set(counts.rows) == {"e1"}


# -- reweight ----------------------------------------------------------------


def test_reweight_multi_problem_normalizes():
    assert reweight([2, 4, 1, 3]) == [0.2, 0.4, 0.1, 0.3]


def test_reweight_single_problem_log_rule():
    row = reweight([0, 5, 0, 0])
    assert row[0] == row[2] == row[3] == 0.0
    assert abs(row[1] - math.log2(6)) <= 1e-12


def test_reweight_single_count_of_one():
    assert reweight([0, 0, 1, 0]) == [0.0, 0.0, 1.0, 0.0]


def test_reweight_branches_agree_at_count_one():
    assert math.log2(1 + 1) == 1.0


def test_reweight_rejects_all_zero():
    with pytest.raises(ValidationError):
        reweight([0, 0, 0, 0])


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=6))
def test_reweight_row_properties(row):
    if not any(row):
        return
    weights = reweight(row)
    nonzero = sum(1 for c in row if c)
    if nonzero >= 2:
        assert abs(sum(weights) - 1.0) <= 1e-12
        for c, w in zip(row, weights):
            assert (c == 0) == (w == 0.0)
    else:
        assert sum(1 for w in weights if w) == 1
        assert max(weights) >= 1.0


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=10_000))
def test_reweight_single_problem_monotone(a, b):
    low, high = sorted((a, a + b))
    row_low = reweight([low, 0])
    row_high = reweight([high, 0])
    assert row_high[0] >= row_low[0]


# -- icf -----------------------------------------------------------------------


def test_icf_reference_training_counts():
    icf = compute_icf(4020, (2600, 885, 470, 65))
    assert icf == (4020 / 2600, 4020 / 885, 4020 / 470, 4020 / 65)
    assert abs(icf[0] - 1.546) < 1e-3
    assert abs(icf[3] - 61.846) < 1e-3


def test_icf_equal_counts():
    assert compute_icf(10, (5, 5)) == (2.0, 2.0)


def test_icf_zero_count_cause():
    assert compute_icf(10, (10, 0)) == (1.0, 0.0)


# -- apply_icf -----------------------------------------------------------------


def test_apply_icf_multiplies_columns():
    counts = init_counts(
        frozenset({"e1"}),
        [(_seq(f"f{i}", ["e1"]), c) for i, c in enumerate([0] * 2 + [1] * 4 + [2] * 1 + [3] * 3)],
        4,
    )
    reweighted = scores_from_counts(counts, DEFAULT_TAXONOMY)
    final = apply_icf(reweighted)
    expected = tuple(v * reweighted.icf[j] for j, v in enumerate(reweighted.rows["e1"]))
    assert final.rows["e1"] == expected


def test_apply_icf_single_problem_example():
    # A lone C4 row [0, 0, 0, 1.0] scaled by icf_4 = 62.75.
    from dataclasses import replace

    counts = init_counts(frozenset({"e11"}), [(_seq("f0", ["e11"]), 3)], 4)
    reweighted = replace(
        scores_from_counts(counts, DEFAULT_TAXONOMY), icf=(1.0, 1.0, 1.0, 62.75)
    )
    final = apply_icf(reweighted)
    assert final.rows["e11"] == (0.0, 0.0, 0.0, 62.75)


def test_apply_icf_keeps_zero_cells_zero():
    counts = init_counts(frozenset({"e1"}), [(_seq("f0", ["e1"]), 1)], 4)
    final = apply_icf(scores_from_counts(counts, DEFAULT_TAXONOMY))
    assert final.rows["e1"][0] == final.rows["e1"][2] == final.rows["e1"][3] == 0.0


def test_reweighted_times_icf_example():
    row = (0.2, 0.4, 0.1, 0.3)
    icf = (1.546, 4.542, 8.553, 61.846)
    expected = tuple(v * w for v, w in zip(row, icf))
    assert abs(expected[0] - 0.3092) < 1e-4
    assert abs(expected[1] - 1.8168) < 1e-4
    assert abs(expected[2] - 0.8553) < 1e-4
    assert abs(expected[3] - 18.5538) < 1e-4


# -- build ---------------------------------------------------------------------


def test_build_fig_corpus_keeps_only_failure_events(fig_corpus):
    miner, table = build(fig_corpus)
    assert len(table.rows) == 3
    texts = {miner.template_text(eid) for eid in table.rows}
    assert texts == {MULTI_LINE, SINGLE5_LINE, SINGLE1_LINE}
    assert table.n_total == 11
    assert table.n_per_cause == (2, 5, 1, 3)
    kinds = {miner.template_text(eid): table.kinds[eid] for eid in table.rows}
    assert kinds[MULTI_LINE] == "multi"
    assert kinds[SINGLE5_LINE] == "single"


def test_build_requires_failed_logs(fig_corpus):
    empty = Corpus(fig_corpus.passed, (), DEFAULT_TAXONOMY)
    with pytest.raises(ValidationError, match="no failed logs"):
        build(empty)


def test_build_aborts_when_diff_empties_the_table(fig_corpus):
    # Failed logs made only of benign lines leave nothing after the diff.
    benign_only = Corpus(
        fig_corpus.passed,
        (LabeledFailedLog("f1", fig_corpus.passed[0].lines, 0),),
        DEFAULT_TAXONOMY,
    )
    with pytest.raises(ValidationError, match="no discriminative events"):
        build(benign_only)


def test_build_synthetic_markers_become_single_problem_rows(tmp_path):
    spec = default_spec(cause_counts=(10, 6, 4, 3), passed_count=8, seed=21)
    manifest = parse_manifest(generate_synthetic(spec, tmp_path))
    corpus = load_corpus(tmp_path)
    miner, table = build(corpus)
    signatures = manifest.marker_signatures()
    seen_causes = set()
    for eid in table.rows:
        head = miner.template_text(eid).split()[0]
        if head in signatures:
            cause = signatures[head]
            assert table.kinds[eid] == "single"
            nonzero = [j for j, v in enumerate(table.rows[eid]) if v]
            assert nonzero == [cause]
            seen_causes.add(cause)
    assert seen_causes == {0, 1, 2, 3}


def test_build_deterministic(fig_corpus):
    first = build(fig_corpus)
    second = build(fig_corpus)
    assert first[0].export_registry() == second[0].export_registry()
    assert first[1].rows == second[1].rows


def test_no_table_event_occurs_in_passed_logs(fig_corpus):
    # Diff soundness, checked by replaying the passed logs frozen.
    miner, table = build(fig_corpus)
    for log in fig_corpus.passed:
        replayed = miner.parse_log(log.lines, log.log_id)
        assert not (set(replayed.events) & set(table.rows))


# -- oracle equivalence ---------------------------------------------------------


def test_pipeline_matches_brute_force_on_fig_corpus(fig_corpus):
    _, table = build(fig_corpus)
    oracle = brute_force_rows(fig_corpus)
    assert set(oracle) == set(table.rows)
    for eid, row in oracle.items():
        for got, want in zip(table.rows[eid], row):
            assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_pipeline_matches_brute_force_on_small_synthetic(tmp_path, seed):
    spec = default_spec(
        cause_counts=(6, 4, 3, 2), passed_count=5, seed=seed, noise_rate=0.2
    )
    generate_synthetic(spec, tmp_path / str(seed))
    corpus = load_corpus(tmp_path / str(seed))
    # The oracle keeps its own switches for the steps each variant drops.
    for variant, switches in (
        ("full", {}),
        ("drop1", {"skip_diff": True}),
        ("drop2", {"skip_reweight": True}),
        ("drop3", {"skip_icf": True}),
    ):
        _, table = build(corpus, variant=variant)
        oracle = brute_force_rows(corpus, **switches)
        assert set(oracle) == set(table.rows)
        for eid, row in oracle.items():
            for got, want in zip(table.rows[eid], row):
                assert abs(got - want) <= 1e-9


# -- persistence -----------------------------------------------------------------


def test_save_load_round_trip(fig_corpus):
    _, table = build(fig_corpus)
    loaded = table_from_text(table_to_text(table))
    assert loaded.rows == table.rows
    assert loaded.kinds == table.kinds
    assert loaded.icf == table.icf
    assert loaded.n_total == table.n_total
    assert loaded.n_per_cause == table.n_per_cause
    assert loaded.taxonomy.names == table.taxonomy.names


def test_load_version_mismatch():
    with pytest.raises(ValidationError, match="header"):
        table_from_text("ncc-table v999\nk\t4\n")


def test_load_corrupt_field_names_it():
    text = "ncc-table v1\nk\tfour\n"
    with pytest.raises(ValidationError, match="corrupt"):
        table_from_text(text)


def test_load_rejects_a_stage_other_than_final(fig_corpus):
    _, table = build(fig_corpus)
    text = table_to_text(table)
    assert "\nstage\tfinal\nregistry\t-\n" in text
    with pytest.raises(ValidationError, match="stage"):
        table_from_text(text.replace("stage\tfinal", "stage\treweighted"))


@pytest.mark.parametrize("counts", ["-5\t25\t10\t5", "0\t0\t0\t0"])
def test_load_rejects_corrupt_class_counts(fig_corpus, counts):
    _, table = build(fig_corpus)
    text = table_to_text(table).replace("n_per_cause\t2\t5\t1\t3", f"n_per_cause\t{counts}")
    assert counts in text
    with pytest.raises(ValidationError, match="n_per_cause"):
        table_from_text(text)


@pytest.mark.parametrize("field", ["icf", "cell"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_values(fig_corpus, field, value):
    _, table = build(fig_corpus)
    lines = table_to_text(table).splitlines()
    prefix = "icf\t" if field == "icf" else "e"
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    parts = lines[at].split("\t")
    parts[1] = value
    lines[at] = "\t".join(parts)
    with pytest.raises(ValidationError, match="finite"):
        table_from_text("\n".join(lines))


def test_load_truncated_rows_detected(fig_corpus):
    _, table = build(fig_corpus)
    lines = table_to_text(table).splitlines()
    with pytest.raises(ValidationError, match="truncated"):
        table_from_text("\n".join(lines[:-1]))


def test_serialized_size_scales_with_rows(tmp_path):
    spec = default_spec(cause_counts=(30, 12, 8, 4), passed_count=10, seed=31, noise_rate=0.0)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    _, table = build(corpus)
    text = table_to_text(table)
    overhead = 8 + table.k  # header and metadata lines
    assert len(text.splitlines()) == len(table.rows) + overhead
    assert len(text.encode()) < 200 * (len(table.rows) + overhead)
