import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ncchecker import ValidationError, build, load_corpus
from ncchecker.abstraction import EventSequence, TemplateMiner
from ncchecker.corpus import DEFAULT_TAXONOMY, CauseTaxonomy, Corpus, LabeledFailedLog
from ncchecker.generator import default_spec, generate_synthetic
from ncchecker import table as table_module
from ncchecker.table import (
    ABLATION_VARIANTS,
    CountTable,
    ScoreTable,
    ablation_tables,
    apply_icf,
    collect_pools,
    compute_icf,
    diff_with_pass,
    init_counts,
    reweight,
    scores_from_counts,
    table_from_text,
    table_lines,
)

from bruteforce import brute_force_rows
from conftest import MULTI_LINE, SINGLE1_LINE, SINGLE5_LINE


def _seq(source, events):
    return EventSequence(source, tuple(events))


def _table_text(table):
    return "\n".join(table_lines(table)) + "\n"


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


@pytest.mark.parametrize("seed", [31, 32])
def test_init_counts_equal_from_event_sets_and_from_replayed_sequences(tmp_path, seed):
    # Training passes each failed log's set of events; the traced bench
    # replays ``build`` and passes each log's ``parse_log`` sequence.
    spec = default_spec(cause_counts=(6, 4, 3, 2), passed_count=5, seed=seed, noise_rate=0.2)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    replay = TemplateMiner()
    passed_seqs = [replay.parse_log(log.lines, log.log_id) for log in corpus.passed]
    failed_seqs = [replay.parse_log(log.lines, log.log_id) for log in corpus.failed]
    passed_pool, failed_pool = collect_pools(passed_seqs, failed_seqs)
    vocabulary = diff_with_pass(failed_pool, passed_pool)
    causes = [log.cause for log in corpus.failed]
    sets = list(TemplateMiner().event_sets(log.text for log in (*corpus.passed, *corpus.failed)))
    failed_sets = sets[len(corpus.passed) :]
    assert failed_sets == [seq.distinct_events() for seq in failed_seqs]
    from_seqs = init_counts(vocabulary, list(zip(failed_seqs, causes)), 4)
    from_sets = init_counts(vocabulary, list(zip(failed_sets, causes)), 4)
    assert from_sets == from_seqs
    assert from_sets.rows == build(corpus)[1].counts


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
    # A lone C4 row [0, 0, 0, 1.0] scaled by icf_4 = 251 / 4 = 62.75.
    counts = init_counts(frozenset({"e11"}), [(_seq("f0", ["e11"]), 3)], 4)
    reweighted = ScoreTable(counts.rows, DEFAULT_TAXONOMY, (100, 100, 47, 4), skip_icf=True)
    assert reweighted.rows["e11"] == (0.0, 0.0, 0.0, 1.0)
    assert reweighted.icf[3] == 62.75
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


def test_ablation_tables_reject_what_build_rejects(fig_corpus):
    # drop1 would keep the benign events, but full needs a table too.
    benign_only = Corpus(
        fig_corpus.passed,
        (LabeledFailedLog("f1", fig_corpus.passed[0].lines, 0),),
        DEFAULT_TAXONOMY,
    )
    with pytest.raises(ValidationError, match="no discriminative events"):
        ablation_tables(benign_only)
    with pytest.raises(ValidationError, match="no failed logs"):
        ablation_tables(Corpus(fig_corpus.passed, (), DEFAULT_TAXONOMY))


def test_build_synthetic_markers_become_single_problem_rows(tmp_path):
    spec = default_spec(cause_counts=(10, 6, 4, 3), passed_count=8, seed=21)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    miner, table = build(corpus)
    signatures = spec.marker_signatures()
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


@pytest.mark.parametrize("variant", ["full", "drop1", "drop2", "drop3"])
def test_build_constructs_no_event_sequence(tmp_path, monkeypatch, variant):
    # Neither build nor the one-pass ablation tables make an EventSequence.
    spec = default_spec(cause_counts=(6, 4, 3, 2), passed_count=5, seed=41, noise_rate=0.2)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    miner, _ = build(corpus)
    table = ablation_tables(corpus)[1][variant]

    def refuse(self, *args):
        raise AssertionError("training made an EventSequence")

    monkeypatch.setattr(EventSequence, "__init__", refuse)
    with pytest.raises(AssertionError, match="made an EventSequence"):
        _seq("probe", ["e1"])
    again, _ = build(corpus)
    ablation_miner, tables_again = ablation_tables(corpus)
    assert again.export_registry() == miner.export_registry()
    assert ablation_miner.export_registry() == miner.export_registry()
    assert table_lines(tables_again[variant]) == table_lines(table)


@pytest.mark.parametrize("seed", [41, 42])
def test_ablation_tables_mine_as_build_and_hold_its_table(tmp_path, seed):
    spec = default_spec(cause_counts=(6, 4, 3, 2), passed_count=5, seed=seed, noise_rate=0.2)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    miner, table = build(corpus)
    ablation_miner, tables = ablation_tables(corpus)
    assert ablation_miner.frozen
    assert ablation_miner.export_registry() == miner.export_registry()
    assert tuple(tables) == ABLATION_VARIANTS
    assert table_lines(tables["full"]) == table_lines(table)
    assert repr(tables["full"].rows) == repr(table.rows)


def test_build_and_ablation_tables_count_each_failed_set_before_the_next_pull(
    tmp_path, monkeypatch
):
    # Training holds counts, not sets: each failed log's set is counted, read
    # once by its cause's counter, before the next log's set is pulled, and
    # a set outlives the next pull only in a loop variable (the last set
    # pulled, and the last passed set).  ablation_tables counts once too.
    spec = default_spec(cause_counts=(6, 4, 3, 2), passed_count=5, seed=41, noise_rate=0.2)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    n_passed, n_logs = len(corpus.passed), len(corpus.passed) + len(corpus.failed)
    want_texts = [_table_text(table) for table in ablation_tables(corpus)[1].values()]
    event_sets = TemplateMiner.event_sets
    steps, pulled = [], []

    class RecordedSet(frozenset):
        def __iter__(self):
            steps.append(("count", self.n))
            return super().__iter__()

    def recorded_event_sets(self, texts):
        for n, events in enumerate(event_sets(self, texts)):
            assert sum(ref() is not None for ref in pulled) <= 2
            steps.append(("pull", n))
            events = RecordedSet(events)
            events.n = n
            pulled.append(weakref.ref(events))
            yield events

    monkeypatch.setattr(TemplateMiner, "event_sets", recorded_event_sets)
    want_steps = [("pull", n) for n in range(n_passed)]
    want_steps += [step for n in range(n_passed, n_logs) for step in (("pull", n), ("count", n))]
    for train in (build, ablation_tables):
        steps.clear()
        pulled.clear()
        _, tables = train(corpus)
        assert steps == want_steps
        if train is build:
            assert _table_text(tables) == want_texts[0]
        else:
            assert [_table_text(table) for table in tables.values()] == want_texts


def test_build_freezes_the_miner_before_it_builds_the_count_rows(fig_corpus, monkeypatch):
    # freeze() drops the training memo, so it is not alive while the rows,
    # sorted by event_sort_key, are allocated.
    steps = []
    freeze, sort_key = TemplateMiner.freeze, table_module.event_sort_key

    def recorded_freeze(self):
        steps.append("freeze")
        return freeze(self)

    def recorded_sort_key(event_id):
        steps.append("rows")
        return sort_key(event_id)

    monkeypatch.setattr(TemplateMiner, "freeze", recorded_freeze)
    monkeypatch.setattr(table_module, "event_sort_key", recorded_sort_key)
    for train in (build, ablation_tables):
        steps.clear()
        train(fig_corpus)
        assert steps[0] == "freeze" and set(steps[1:]) == {"rows"}


def test_init_counts_gives_no_row_to_a_vocabulary_id_no_log_holds():
    # Its row would be all zero, which no ScoreTable accepts.
    counts = init_counts(frozenset({"e1", "e7"}), [(_seq("f1", ["e1", "e9"]), 0)], 4)
    assert counts == CountTable({"e1": (1, 0, 0, 0)}, (1, 0, 0, 0))
    scores_from_counts(counts, DEFAULT_TAXONOMY)
    with pytest.raises(ValidationError, match="not all 0"):
        ScoreTable({**counts.rows, "e7": (0, 0, 0, 0)}, DEFAULT_TAXONOMY, counts.n_per_cause)


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
    _, tables = ablation_tables(corpus)
    for variant, switches in (
        ("full", {}),
        ("drop1", {"skip_diff": True}),
        ("drop2", {"skip_reweight": True}),
        ("drop3", {"skip_icf": True}),
    ):
        table = tables[variant]
        oracle = brute_force_rows(corpus, **switches)
        assert set(oracle) == set(table.rows)
        for eid, row in oracle.items():
            for got, want in zip(table.rows[eid], row):
                assert abs(got - want) <= 1e-9


# -- persistence -----------------------------------------------------------------


def test_save_load_round_trip(fig_corpus):
    _, table = build(fig_corpus)
    loaded = table_from_text(_table_text(table))
    assert loaded.counts == table.counts
    assert loaded.rows == table.rows
    assert loaded.kinds == table.kinds
    assert loaded.icf == table.icf
    assert loaded.n_per_cause == table.n_per_cause
    assert loaded.taxonomy.names == table.taxonomy.names


def test_load_version_mismatch():
    with pytest.raises(ValidationError, match="header"):
        table_from_text("ncc-table v999\nk\t4\n")


def test_load_corrupt_field_names_it():
    text = "ncc-table v2\nk\tfour\n"
    with pytest.raises(ValidationError, match="^table line 2: invalid literal for int"):
        table_from_text(text)


@pytest.mark.parametrize(
    "variant, steps",
    [("full", "reweight,icf"), ("drop1", "reweight,icf"), ("drop2", "icf"), ("drop3", "reweight")],
)
def test_the_steps_line_names_the_scoring_steps_of_the_variant(fig_corpus, variant, steps):
    table = ablation_tables(fig_corpus)[1][variant]
    text = _table_text(table)
    assert f"\nsteps\t{steps}\n" in text
    assert table_from_text(text) == table


def test_load_rejects_a_steps_line_it_does_not_know(fig_corpus):
    _, table = build(fig_corpus)
    text = _table_text(table).replace("steps\treweight,icf", "steps\tfinal")
    with pytest.raises(ValidationError, match=r"^table line 8: expected 'steps\\tnone', found "):
        table_from_text(text)


@pytest.mark.parametrize("counts", ["-5\t25\t10\t5", "0\t0\t0\t0"])
def test_load_rejects_corrupt_class_counts(fig_corpus, counts):
    _, table = build(fig_corpus)
    text = _table_text(table).replace("n_per_cause\t2\t5\t1\t3", f"n_per_cause\t{counts}")
    assert counts in text
    with pytest.raises(ValidationError, match="n_per_cause"):
        table_from_text(text)


@pytest.mark.parametrize("field", ["n_per_cause", "cell"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_values(fig_corpus, field, value):
    _, table = build(fig_corpus)
    lines = _table_text(table).splitlines()
    prefix = "n_per_cause\t" if field == "n_per_cause" else "e"
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    parts = lines[at].split("\t")
    parts[1] = value
    lines[at] = "\t".join(parts)
    message = f"^table line {at + 1}: invalid literal for int\\(\\) with base 10: '{value}'$"
    with pytest.raises(ValidationError, match=message):
        table_from_text("\n".join(lines))


def test_load_truncated_rows_detected(fig_corpus):
    _, table = build(fig_corpus)
    lines = _table_text(table).splitlines()
    assert lines[-1] == "e8\t0\t1\t0\t0"
    lines[-1] = "e8\t0\t1"
    with pytest.raises(ValidationError, match=r"^table line 11: row for event 'e8': counts must"):
        table_from_text("\n".join(lines))


def test_serialized_size_scales_with_rows(tmp_path):
    spec = default_spec(cause_counts=(30, 12, 8, 4), passed_count=10, seed=31, noise_rate=0.0)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    _, table = build(corpus)
    text = _table_text(table)
    overhead = 4 + table.k  # header and metadata lines
    assert len(text.splitlines()) == len(table.rows) + overhead
    assert len(text.encode()) < 200 * (len(table.rows) + overhead)


def test_equal_count_rows_share_one_score_row_through_icf():
    logs = [
        (["e1", "e3", "e5"], 0),
        (["e1", "e3"], 0),
        (["e1", "e2", "e3", "e4", "e5"], 1),
        (["e1", "e2", "e3", "e4"], 1),
        (["e2", "e4"], 1),
    ]
    labeled = [(_seq(f"f{i}", events), cause) for i, (events, cause) in enumerate(logs)]
    counts = init_counts(frozenset({"e1", "e2", "e3", "e4", "e5"}), labeled, 2)
    assert counts == CountTable(
        rows={"e1": (2, 2), "e2": (0, 3), "e3": (2, 2), "e4": (0, 3), "e5": (1, 1)},
        n_per_cause=(2, 3),
    )
    # Equal counts are one tuple, so a table checks and scores them once.
    assert counts.rows["e1"] is counts.rows["e3"] and counts.rows["e2"] is counts.rows["e4"]
    for skip_reweight in (False, True):
        reweighted = scores_from_counts(
            counts, CauseTaxonomy(("x", "y")), skip_reweight=skip_reweight
        )
        final = apply_icf(reweighted)
        for table in (reweighted, final):
            assert table.rows["e1"] is table.rows["e3"]
            assert table.rows["e2"] is table.rows["e4"]
            assert len({id(row) for row in table.rows.values()}) == 3
        # (2, 2) and (1, 1) reweight to equal rows, but from different counts.
        assert (reweighted.rows["e1"] == reweighted.rows["e5"]) is not skip_reweight
        assert list(reweighted.kinds.values()) == ["multi", "single", "multi", "single", "multi"]


def test_load_rejects_a_line_after_the_rows(fig_corpus):
    # Every line after the head is read as a count row, so one that is no
    # row is named by its line.
    _, table = build(fig_corpus)
    text = _table_text(table)
    with pytest.raises(ValidationError, match=r"^table line 12: row for event 'rows': counts"):
        table_from_text(text + "rows\t3\n")
    with pytest.raises(ValidationError, match=r"^table line 12: invalid literal for int"):
        table_from_text(text + "\n")


def test_load_rejects_class_counts_too_large_for_an_icf(fig_corpus):
    _, table = build(fig_corpus)
    huge = 10**400
    text = _table_text(table).replace("n_per_cause\t2\t", f"n_per_cause\t{huge}\t")
    with pytest.raises(ValidationError, match="^table line 7: .*too large"):
        table_from_text(text)


def test_a_table_whose_class_sizes_overflow_the_icf_cannot_be_built():
    with pytest.raises(ValidationError, match="too large for a float icf"):
        ScoreTable({}, CauseTaxonomy(("x", "y")), (10**400, 1))
    # The icf fits, but a count as large as its class would not be a float.
    with pytest.raises(ValidationError, match="too large for a float icf"):
        ScoreTable(
            {"e1": (10**400, 0)}, CauseTaxonomy(("x", "y")), (10**400, 10**400), True, True
        )


@pytest.mark.parametrize("name", ["a\nb", "a\r", "\u2028"])
def test_a_cause_name_with_a_line_break_is_rejected(name):
    with pytest.raises(ValidationError, match="line break"):
        CauseTaxonomy(("x", name))


# Names and event ids hold no line break; a name may hold a tab.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_NAME = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=_LINE_BREAKS), max_size=6
)
_EVENT_ID = _NAME.filter(lambda e: "\t" not in e)


def _count_rows(n_per_cause):
    """Count rows a table over these class sizes may hold: not all zero."""
    return st.tuples(*[st.integers(0, n) for n in n_per_cause]).filter(any)


@st.composite
def _table_parts(draw):
    """Random valid table arguments: some rows share one tuple, some equal counts do not."""
    k = draw(st.integers(2, 5))
    names = draw(st.lists(_NAME, min_size=k, max_size=k))
    n_per_cause = tuple(
        draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k).filter(any))
    )
    pool = draw(st.lists(_count_rows(n_per_cause), min_size=1, max_size=4))
    eids = draw(st.lists(_EVENT_ID, max_size=8, unique=True))
    rows = {}
    for eid in eids:
        row = draw(st.sampled_from(pool))
        rows[eid] = row if draw(st.booleans()) else tuple(list(row))  # an equal other object
    skips = draw(st.tuples(st.booleans(), st.booleans()))
    return rows, CauseTaxonomy(tuple(names)), n_per_cause, *skips


def _tables():
    """Random valid tables (see ``_table_parts``)."""
    return _table_parts().map(lambda parts: ScoreTable(*parts))


@st.composite
def _faulty_table_parts(draw):
    """Valid table arguments plus one row the writer could not write.

    The row has a cell that is no int count of its cause (a float, a bool,
    a negative int or one above the class size), or all its cells are 0,
    or it has too few or too many cells, or it is a list, or its event id
    holds a tab or a line break.
    """
    rows, taxonomy, n_per_cause, *skips = draw(_table_parts())
    k = taxonomy.k
    fault = draw(st.sampled_from(["cell", "zero", "length", "list", "id"]))
    row = list(draw(_count_rows(n_per_cause)))
    eid = draw(_EVENT_ID.filter(lambda e: e not in rows))
    if fault == "cell":
        j = draw(st.integers(0, k - 1))
        row[j] = draw(
            st.one_of(
                st.floats(),
                st.booleans(),
                st.integers(max_value=-1),
                st.integers(n_per_cause[j] + 1, n_per_cause[j] + 10),
            )
        )
    elif fault == "zero":
        row = [0] * k
    elif fault == "length":
        row = row[1:] if draw(st.booleans()) else row + [0]
    elif fault == "id":
        breaker = draw(st.sampled_from("\t" + _LINE_BREAKS))
        eid = draw(_NAME) + breaker + draw(_NAME)
    items = list(rows.items())
    items.insert(draw(st.integers(0, len(items))), (eid, row if fault == "list" else tuple(row)))
    return dict(items), taxonomy, n_per_cause, *skips


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_tables())
def test_every_table_that_can_be_built_saves_and_reloads_equal(table):
    lines = table_lines(table)
    loaded = table_from_text("\n".join(lines) + "\n")
    assert table_lines(loaded) == lines
    assert loaded == table
    assert repr(loaded.rows) == repr(table.rows)
    assert loaded.kinds == table.kinds


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_faulty_table_parts())
def test_a_row_the_writer_could_not_write_is_rejected_at_construction(parts):
    with pytest.raises(ValidationError, match=r"^(row for event .*: |event id )"):
        ScoreTable(*parts)


_BAD_ROW = "counts must be a tuple of 2 ints, each from 0 to its cause's n_per_cause, not all 0"


@pytest.mark.parametrize(
    "rows, message",
    [
        ({"e1": (True, 0)}, f"row for event 'e1': {_BAD_ROW}"),
        ({"e1": (1,)}, f"row for event 'e1': {_BAD_ROW}"),
        ({"e1": (1, -1)}, f"row for event 'e1': {_BAD_ROW}"),
        ({"e0": (1, 0), "e1": (2, 1)}, f"row for event 'e1': {_BAD_ROW}"),
        ({"e1": (1, 0), "e\t2": (1, 0)}, "event id 'e\\t2' holds a tab or a line break"),
        ({"e\u20282": (1, 0)}, "event id 'e\\u20282' holds a tab or a line break"),
        ({"e0": (1, 0), "e1": (0, 0)}, f"row for event 'e1': {_BAD_ROW}"),
        ({"e1": (1.0, 0)}, f"row for event 'e1': {_BAD_ROW}"),
        ({"e1": (1, 0, 0)}, f"row for event 'e1': {_BAD_ROW}"),
        ({"e1": [1, 0]}, f"row for event 'e1': {_BAD_ROW}"),
        # Equal to e0's valid row, yet a bool: checked as an object of its own.
        ({"e0": (1, 0), "e1": (True, 0)}, f"row for event 'e1': {_BAD_ROW}"),
    ],
)
def test_a_hand_built_table_that_would_not_reload_cannot_be_built(rows, message):
    with pytest.raises(ValidationError) as raised:
        ScoreTable(rows, CauseTaxonomy(("x", "y")), (1, 1))
    assert str(raised.value) == message
