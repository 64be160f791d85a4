import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ncchecker import ValidationError, build, load_model, predict_lines, save_model
from ncchecker.abstraction import AbstractionConfig
from ncchecker.corpus import DEFAULT_TAXONOMY, Corpus, LabeledFailedLog, PassedLog
from ncchecker.model import model_from_text, model_to_text
from ncchecker.table import ABLATION_VARIANTS

from conftest import MULTI_LINE, SINGLE1_LINE, SINGLE5_LINE


def test_model_round_trip_preserves_everything(tmp_path, fig_corpus):
    miner, table = build(fig_corpus)
    path = tmp_path / "model.ncc"
    save_model(path, miner, table)
    loaded_miner, loaded_table = load_model(path)

    assert loaded_miner.frozen
    assert loaded_miner.export_registry() == miner.export_registry()
    assert loaded_miner.config == miner.config
    assert loaded_table.rows == table.rows
    assert loaded_table.kinds == table.kinds
    assert loaded_table.icf == table.icf
    assert loaded_table.n_per_cause == table.n_per_cause


def test_model_round_trip_preserves_predictions(tmp_path, fig_corpus):
    miner, table = build(fig_corpus)
    path = tmp_path / "model.ncc"
    save_model(path, miner, table)
    loaded_miner, loaded_table = load_model(path)
    for log in fig_corpus.failed:
        before, _ = predict_lines(miner, table, log.lines, log.log_id)
        after, _ = predict_lines(loaded_miner, loaded_table, log.lines, log.log_id)
        assert before.cause == after.cause
        assert before.scores == after.scores


def test_model_text_is_deterministic(fig_corpus):
    first = model_to_text(*build(fig_corpus))
    second = model_to_text(*build(fig_corpus))
    assert first == second


def test_model_header_version_check():
    with pytest.raises(ValidationError, match="header"):
        model_from_text("ncc-model v999\n")


def test_model_truncated_section_detected(fig_corpus):
    text = model_to_text(*build(fig_corpus))
    lines = text.splitlines()
    with pytest.raises(ValidationError, match="truncat"):
        model_from_text("\n".join(lines[: len(lines) // 2]))


def test_model_bad_config_named(fig_corpus):
    text = model_to_text(*build(fig_corpus))
    broken = text.replace("config\t{", "config\t{not json ", 1)
    with pytest.raises(ValidationError, match="config"):
        model_from_text(broken)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tree_depth", 4.0),
        ("tree_depth", True),
        ("max_children", 2.5),
        ("max_children", True),
        ("similarity_threshold", True),
        ("similarity_threshold", "0.4"),
    ],
)
def test_model_config_value_of_wrong_type_rejected(fig_corpus, key, value):
    header, config_line, rest = model_to_text(*build(fig_corpus)).split("\n", 2)
    field, _, payload = config_line.partition("\t")
    config = json.loads(payload)
    config[key] = value
    edited = f"{header}\n{field}\t{json.dumps(config)}\n{rest}"
    with pytest.raises(ValidationError, match=f"model field 'config': {key} must be"):
        model_from_text(edited)


def test_loaded_model_still_diffs_benign_lines(tmp_path, fig_corpus):
    # The loaded model must treat trained benign lines as known events
    # (not UNKNOWN) that score zero, and flag the real evidence.
    miner, table = build(fig_corpus)
    path = tmp_path / "model.ncc"
    save_model(path, miner, table)
    loaded_miner, loaded_table = load_model(path)
    prediction, events = predict_lines(
        loaded_miner, loaded_table, ["system-view", MULTI_LINE, SINGLE5_LINE], "new"
    )
    assert "<unknown>" not in events.events
    assert prediction.cause == 1


@pytest.mark.parametrize("event_id", ["e99999", "<unknown>"])
def test_table_row_without_registry_template_rejected(fig_corpus, event_id):
    # A row whose event the registry lacks could never score: no parse
    # yields that id.
    text = model_to_text(*build(fig_corpus))
    head, rows = text.split("\nrows\t", 1)
    count, first_row, rest = rows.split("\n", 2)
    cells = first_row.partition("\t")[2]
    edited = f"{head}\nrows\t{count}\n{event_id}\t{cells}\n{rest}"
    with pytest.raises(ValidationError, match=f"row for event '{re.escape(event_id)}'"):
        model_from_text(edited)


# -- the one-pass reader ---------------------------------------------------------

# Each mutant edits the fig corpus's model (8 templates, 3 rows, 28 lines)
# by replacing the first ``old`` with ``new``.  Registry and table line
# numbers count from their block's header, lines 4 and 14 of the file.
_MUTANTS = [
    ("header", "ncc-model v1\n", "ncc-model v2\n",
     "model header: expected 'ncc-model v1', found 'ncc-model v2'"),
    ("templates-field-renamed", "templates\t9", "template\t9",
     "model field 'templates': found 'template' instead"),
    ("templates-count-not-a-number", "templates\t9", "templates\tnine",
     "model field 'templates': bad line count 'nine'"),
    ("templates-count-negative", "templates\t9", "templates\t-1",
     "model field 'templates': bad line count '-1'"),
    ("table-count-negative", "table\t15", "table\t-1",
     "model field 'table': bad line count '-1'"),
    ("table-count-past-the-end", "table\t15", "table\t16",
     "model section 'table' is truncated"),
    ("table-count-short-of-the-end", "table\t15", "table\t14",
     "model line 28: unexpected line after the table block"),
    ("line-after-the-table", "\t2.2\t0.0\t0.0\tsingle\n",
     "\t2.2\t0.0\t0.0\tsingle\nextra\n",
     "model line 29: unexpected line after the table block"),
    ("registry-header", "ncc-templates v1", "ncc-templates v2",
     "template registry header: expected 'ncc-templates v1', found 'ncc-templates v2'"),
    ("registry-duplicate-id", "e2\t5\t", "e1\t5\t",
     "template registry line 3: duplicate event id 'e1'"),
    ("registry-two-fields", "e3\t4\tcmd.pathinfo=<*>", "e3\t4",
     "template registry line 4: expected 3 fields"),
    ("registry-count-not-an-integer", "e4\t4\t", "e4\tfour\t",
     "template registry line 5: match_count 'four' is not an integer"),
    ("registry-empty-template", "e5\t4\tdelete rollback checkpoint <*>", "e5\t4\t",
     "template registry line 6: empty template"),
    ("table-header", "ncc-table v1", "ncc-table v2",
     "table header: expected 'ncc-table v1', found 'ncc-table v2'"),
    ("k-not-an-integer", "k\t4", "k\tfour",
     "corrupt table file: invalid literal for int() with base 10: 'four'"),
    ("cause-out-of-order", "cause\t1\t", "cause\t2\t",
     "table line 4: cause ids must be ordered 0..3"),
    ("field-renamed", "n_total\t11", "total\t11",
     "table line 7: expected field 'n_total', found 'total'"),
    ("stage-not-final", "stage\tfinal", "stage\traw",
     "table field 'stage': expected 'final', got 'raw'"),
    ("class-count-negative", "n_per_cause\t2\t5\t1\t3", "n_per_cause\t-1\t8\t1\t3",
     "table field 'n_per_cause': counts must be >= 0 and not all zero"),
    ("n-total-not-the-sum", "n_total\t11", "n_total\t12",
     "table field 'n_total': 12 is not the sum of 'n_per_cause'"),
    ("icf-not-finite", "icf\t5.5\t", "icf\tnan\t",
     "table field 'icf': values must be finite"),
    ("icf-not-n-over-nj", "icf\t5.5\t", "icf\t5.6\t",
     "table field 'icf': values must be n_total / n_per_cause"),
    ("row-count-zero", "rows\t3", "rows\t0",
     "table line 13: more lines than the 0 rows of line 12"),
    ("row-count-short", "rows\t3", "rows\t2",
     "table line 15: more lines than the 2 rows of line 12"),
    ("row-count-negative", "rows\t3", "rows\t-1", "table line 12: bad row count -1"),
    ("row-count-past-the-block", "rows\t3", "rows\t4", "table file truncated"),
    ("row-fields", "e8\t0.0\t2.2\t0.0\t0.0\t", "e8\t0.0\t2.2\t0.0\t",
     "table line 15: expected 6 fields per row"),
    ("row-kind-unknown", "0.0\tsingle\ne8", "0.0\tdouble\ne8",
     "table line 14: row kind must be single or multi"),
    ("row-duplicate", "e8\t0.0\t2.2", "e7\t0.0\t2.2",
     "table line 15: duplicate row for event 'e7'"),
    ("cell-not-a-number", "e8\t0.0\t2.2", "e8\tzero\t2.2",
     "corrupt table file: could not convert string to float: 'zero'"),
    ("cell-not-finite", "e8\t0.0\t2.2", "e8\tinf\t2.2", "table line 15: cells must be finite"),
    ("cell-negative", "e8\t0.0\t2.2", "e8\t-1.0\t2.2", "table line 15: cells must be >= 0"),
    ("single-row-two-cells", "e8\t0.0\t2.2", "e8\t1.0\t2.2",
     "table line 15: a single row needs exactly one non-zero cell"),
    ("single-row-no-cell", "e8\t0.0\t2.2", "e8\t0.0\t0.0",
     "table line 15: a single row needs exactly one non-zero cell"),
    ("multi-row-one-cell", "e6\t1.1\t0.8800000000000001\t1.1\t1.0999999999999999",
     "e6\t1.1\t0.0\t0.0\t0.0", "table line 13: a multi row needs two or more non-zero cells"),
    # e8's cells repeat e7's, which were read and checked on line 14: the
    # kind is still checked on line 15.
    ("repeated-cells-wrong-kind", "e8\t0.0\t2.2\t0.0\t0.0\tsingle",
     "e8\t0.0\t5.686917501586544\t0.0\t0.0\tmulti",
     "table line 15: a multi row needs two or more non-zero cells"),
    ("row-without-template", "e8\t0.0\t2.2", "e99\t0.0\t2.2",
     "model table: row for event 'e99', which the template registry lacks"),
]


@pytest.mark.parametrize(
    "old, new, message", [m[1:] for m in _MUTANTS], ids=[m[0] for m in _MUTANTS]
)
def test_malformed_model_mutant_names_its_fault(fig_corpus, old, new, message):
    text = model_to_text(*build(fig_corpus))
    assert len(text.splitlines()) == 28 and old in text
    with pytest.raises(ValidationError) as raised:
        model_from_text(text.replace(old, new, 1))
    assert str(raised.value) == message


def test_trailing_blank_line_rejected(fig_corpus):
    text = model_to_text(*build(fig_corpus))
    with pytest.raises(ValidationError, match="^model line 29: unexpected line after"):
        model_from_text(text + "\n")


def test_event_id_with_a_non_decimal_digit_loads_and_predicts(fig_corpus):
    # "²" is a digit to str.isdigit, but int() rejects it.
    text = model_to_text(*build(fig_corpus)).replace("e8\t", "e²\t")
    miner, table = model_from_text(text)
    assert miner.templates["e²"].text == "Watchdog restarted process tree unexpectedly"
    prediction, _ = predict_lines(miner, table, [SINGLE5_LINE, SINGLE1_LINE], "new")
    assert prediction.cause == 1
    assert [c.event_id for c in prediction.contributors] == ["e7", "e²"]


_WORDS = ("a", "b", "c", "d", "a1", "b2", "1", "0x1f", "<*>")


def _lines(min_tokens, max_tokens):
    return st.lists(
        st.sampled_from(_WORDS), min_size=min_tokens, max_size=max_tokens
    ).map(" ".join)


@st.composite
def _trained_models(draw):
    """A random corpus, config and variant; failed logs also hold 7-token lines.

    Passed lines have 1-6 tokens, so the 7-token lines route apart from
    them and every variant keeps some event.
    """
    config = AbstractionConfig(
        tree_depth=draw(st.sampled_from([2, 3, 4])),
        similarity_threshold=draw(st.sampled_from([0.4, 0.6, 1.0])),
        max_children=draw(st.sampled_from([1, 2, 100])),
    )
    passed = draw(st.lists(st.lists(_lines(1, 6), max_size=8), max_size=4))
    failed = draw(
        st.lists(
            st.tuples(
                st.lists(st.one_of(_lines(1, 6), _lines(7, 7)), max_size=8),
                _lines(7, 7),
                st.integers(0, DEFAULT_TAXONOMY.k - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    corpus = Corpus(
        tuple(PassedLog(f"p{i:02d}", tuple(lines)) for i, lines in enumerate(passed)),
        tuple(
            LabeledFailedLog(f"f{i:02d}", (*lines, marker), cause)
            for i, (lines, marker, cause) in enumerate(failed)
        ),
        DEFAULT_TAXONOMY,
    )
    probes = draw(st.lists(_lines(1, 8), max_size=10))
    return corpus, config, draw(st.sampled_from(ABLATION_VARIANTS)), probes


def _tree_shape(node):
    return (
        tuple(node.template_ids),
        tuple((key, _tree_shape(child)) for key, child in node.children.items()),
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_trained_models())
def test_reloaded_model_is_the_trained_one(case):
    corpus, config, variant, probes = case
    miner, table = build(corpus, config, variant)
    text = model_to_text(miner, table)
    loaded_miner, loaded_table = model_from_text(text)

    assert model_to_text(loaded_miner, loaded_table) == text
    assert [(n, _tree_shape(node)) for n, node in loaded_miner._root.items()] == [
        (n, _tree_shape(node)) for n, node in miner._root.items()
    ]
    logs = [log.lines for log in corpus.passed + corpus.failed] + [tuple(probes)]
    for lines in logs:
        assert loaded_miner.parse_log(lines).events == miner.parse_log(lines).events
    # Rows with the same text are one tuple.
    shared = {}
    for row in loaded_table.rows.values():
        assert shared.setdefault("\t".join(map(repr, row)), row) is row
