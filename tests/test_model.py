import gc
import json
import re
import tempfile
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncchecker import ValidationError, build, flag_lines, load_model, predict_lines, save_model
from ncchecker.abstraction import AbstractionConfig, TemplateMiner
from ncchecker.corpus import DEFAULT_TAXONOMY, load_corpus
from ncchecker.model import _config_to_json, model_from_text, model_to_text
from ncchecker import table as table_module
from ncchecker.table import ABLATION_VARIANTS, ablation_tables

from conftest import MULTI_LINE, SINGLE5_LINE, log_text, write_corpus


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


def test_a_dropped_model_is_freed_without_the_cyclic_collector(tmp_path, fig_corpus):
    # A miner and its memos form no reference cycle, so reference counting
    # alone frees a dropped model: in the middle of training, built, or
    # loaded after predicting.
    path = tmp_path / "model.ncc"
    gc.disable()
    try:
        miner = TemplateMiner()
        sets = miner.event_sets(log.text for log in fig_corpus.passed + fig_corpus.failed)
        assert next(sets)
        assert miner._memo._keys  # a match recorded under its leaf
        training = weakref.ref(miner)
        del miner, sets
        assert training() is None
        miner, table = build(fig_corpus)
        save_model(path, miner, table)
        built = weakref.ref(miner)
        del miner, table
        assert built() is None
        miner, table = load_model(path)
        for log in fig_corpus.failed[:3]:
            prediction, events = predict_lines(miner, table, log.lines, log.log_id)
            flag_lines(prediction, events, miner)
        loaded = weakref.ref(miner)
        del miner, table, prediction, events
        assert loaded() is None
    finally:
        gc.enable()


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
    with pytest.raises(ValidationError, match=f"^model line 2: bad config: {key} must be"):
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
    head, rows = text.split("\nsteps\t", 1)
    steps, first_row, rest = rows.split("\n", 2)
    cells = first_row.partition("\t")[2]
    edited = f"{head}\nsteps\t{steps}\n{event_id}\t{cells}\n{rest}"
    with pytest.raises(ValidationError, match=f"row for event '{re.escape(event_id)}'"):
        model_from_text(edited)


# -- the one-pass reader ---------------------------------------------------------

# Each mutant edits the fig corpus's model (8 templates, 3 rows, 24 lines)
# by replacing the first ``old`` with ``new``.  Every message numbers file
# lines: the registry block starts on line 4 and the table block on line 14.
_CONFIG = _config_to_json(AbstractionConfig())
_IN_ORDER = '"max_children":100,"similarity_threshold":0.4'
_MAX_CHILDREN = '"max_children":100,'
_REORDERED = '"similarity_threshold":0.4,"max_children":100'
_BAD_ROW = "counts must be a tuple of 4 ints, each from 0 to its cause's n_per_cause, not all 0"
_MUTANTS = [
    ("header", "ncc-model v3\n", "ncc-model v4\n",
     "model line 1: expected header 'ncc-model v3', found 'ncc-model v4'"),
    ("header-v1", "ncc-model v3\n", "ncc-model v1\n",
     "model line 1: expected header 'ncc-model v3', found 'ncc-model v1'; "
     "retrain it with `ncchecker train`"),
    ("header-v2", "ncc-model v3\n", "ncc-model v2\n",
     "model line 1: expected header 'ncc-model v3', found 'ncc-model v2'; "
     "retrain it with `ncchecker train`"),
    ("config-extra-key", '"tree_depth":4}', '"tree_depth":4,"x":1}',
     "model line 2: bad config: "
     "AbstractionConfig.__init__() got an unexpected keyword argument 'x'"),
    ("config-mask-rules", '"tree_depth":4}', '"tree_depth":4,"mask_rules":[]}',
     "model line 2: bad config: "
     "AbstractionConfig.__init__() got an unexpected keyword argument 'mask_rules'"),
    ("config-reordered-keys", _IN_ORDER, _REORDERED,
     f"model line 2: expected config {_CONFIG!r}, "
     f"found {_CONFIG.replace(_IN_ORDER, _REORDERED)!r}"),
    ("config-missing-key", _MAX_CHILDREN, "",
     f"model line 2: expected config {_CONFIG!r}, found {_CONFIG.replace(_MAX_CHILDREN, '')!r}"),
    ("templates-field-renamed", "templates\t9", "template\t9",
     "model line 3: expected field 'templates', found 'template'"),
    ("templates-count-not-a-number", "templates\t9", "templates\tnine",
     "model line 3: bad line count 'nine'"),
    ("templates-count-negative", "templates\t9", "templates\t-1",
     "model line 3: bad line count '-1'"),
    ("templates-count-signed", "templates\t9", "templates\t+9",
     "model line 3: bad line count '+9'"),
    ("templates-count-zero-padded", "templates\t9", "templates\t09",
     "model line 3: bad line count '09'"),
    ("table-count-negative", "table\t11", "table\t-1",
     "model line 13: bad line count '-1'"),
    ("table-count-past-the-end", "table\t11", "table\t12",
     "model line 13: block 'table' is truncated"),
    ("table-count-short-of-the-end", "table\t11", "table\t10",
     "model line 24: unexpected line after the table block"),
    ("line-after-the-table", "e8\t0\t1\t0\t0\n", "e8\t0\t1\t0\t0\nextra\n",
     "model line 25: unexpected line after the table block"),
    ("registry-header", "ncc-templates v2", "ncc-templates v1",
     "template registry line 4: expected header 'ncc-templates v2', found 'ncc-templates v1'"),
    ("registry-two-fields", "4\tcmd.pathinfo=<*>", "4 cmd.pathinfo=<*>",
     "template registry line 7: expected 2 fields, found '4 cmd.pathinfo=<*>'"),
    ("registry-blank-line", "templates\t9\nncc-templates v2\n6\tsystem-view\n",
     "templates\t10\nncc-templates v2\n6\tsystem-view\n\n",
     "template registry line 6: expected 2 fields, found ''"),
    # A row as ncc-templates v1 wrote it, with its event id first.
    ("registry-old-row", "ncc-templates v2\n6\t", "ncc-templates v2\ne1\t6\t",
     "template registry line 5: match_count 'e1' is not a count"),
    ("registry-count-not-an-integer", "4\tTook", "four\tTook",
     "template registry line 8: match_count 'four' is not a count"),
    ("registry-count-signed", "4\tTook", "+4\tTook",
     "template registry line 8: match_count '+4' is not a count"),
    ("registry-count-zero-padded", "4\tTook", "04\tTook",
     "template registry line 8: match_count '04' is not a count"),
    ("registry-empty-template", "4\tdelete rollback checkpoint <*>", "4\t",
     "template registry line 9: template '' is not tokens joined by single spaces"),
    ("registry-empty-tokens", "6\tsystem-view", "6\t a  b ",
     "template registry line 5: template ' a  b ' is not tokens joined by single spaces"),
    ("table-header", "ncc-table v2", "ncc-table v1",
     "table line 14: expected header 'ncc-table v2', found 'ncc-table v1'"),
    ("k-not-an-integer", "k\t4", "k\tfour",
     "table line 15: invalid literal for int() with base 10: 'four'"),
    # With k off by one the reader takes a neighbouring line for n_per_cause.
    ("k-smaller", "k\t4", "k\t3",
     "table line 19: invalid literal for int() with base 10: 'third-party-library'"),
    ("k-larger", "k\t4", "k\t5",
     "table line 21: invalid literal for int() with base 10: 'reweight,icf'"),
    ("k-signed", "k\t4", "k\t+4", "table line 15: expected 'k\\t4', found 'k\\t+4'"),
    ("k-negative", "k\t4", "k\t-4", "table line 15: taxonomy needs at least 2 causes"),
    ("cause-out-of-order", "cause\t1\t", "cause\t2\t",
     "table line 17: expected 'cause\\t1\\tenvironmental', found 'cause\\t2\\tenvironmental'"),
    ("field-renamed", "n_per_cause\t2", "class_sizes\t2",
     "table line 20: expected 'n_per_cause\\t2\\t5\\t1\\t3', found 'class_sizes\\t2\\t5\\t1\\t3'"),
    ("class-count-negative", "n_per_cause\t2\t5\t1\t3", "n_per_cause\t-1\t8\t1\t3",
     "table line 20: n_per_cause must hold 4 int counts >= 0, not all zero"),
    ("class-count-missing", "n_per_cause\t2\t5\t1\t3", "n_per_cause\t2\t5\t1",
     "table line 20: n_per_cause must hold 4 int counts >= 0, not all zero"),
    ("class-count-zero-padded", "n_per_cause\t2\t5\t1\t3", "n_per_cause\t02\t5\t1\t3",
     "table line 20: expected 'n_per_cause\\t2\\t5\\t1\\t3', "
     "found 'n_per_cause\\t02\\t5\\t1\\t3'"),
    # Steps are read as the names they hold, so an unknown one reads as none.
    ("steps-unknown", "steps\treweight,icf", "steps\tfinal",
     "table line 21: expected 'steps\\tnone', found 'steps\\tfinal'"),
    ("steps-reordered", "steps\treweight,icf", "steps\ticf,reweight",
     "table line 21: expected 'steps\\treweight,icf', found 'steps\\ticf,reweight'"),
    ("steps-field-renamed", "steps\treweight,icf", "stage\treweight,icf",
     "table line 21: expected 'steps\\treweight,icf', found 'stage\\treweight,icf'"),
    ("row-fields", "e8\t0\t1\t0\t0", "e8\t0\t1\t0",
     f"table line 24: row for event 'e8': {_BAD_ROW}"),
    ("row-too-long", "e8\t0\t1\t0\t0", "e8\t0\t1\t0\t0\t0",
     f"table line 24: row for event 'e8': {_BAD_ROW}"),
    ("row-no-cells", "e8\t0\t1\t0\t0", "e8",
     "table line 24: invalid literal for int() with base 10: ''"),
    ("row-duplicate", "e8\t0\t1", "e7\t0\t1",
     "table line 24: duplicate row for event 'e7'"),
    ("cell-not-a-number", "e8\t0\t1", "e8\tzero\t1",
     "table line 24: invalid literal for int() with base 10: 'zero'"),
    ("cell-not-finite", "e8\t0\t1", "e8\tinf\t1",
     "table line 24: invalid literal for int() with base 10: 'inf'"),
    ("cell-float", "e8\t0\t1", "e8\t0.0\t1",
     "table line 24: invalid literal for int() with base 10: '0.0'"),
    ("cell-negative", "e8\t0\t1", "e8\t-01\t1",
     "table line 24: expected 'e8\\t-1\\t1\\t0\\t0', found 'e8\\t-01\\t1\\t0\\t0'"),
    # Written as the writer would write the counts: the constructor rejects
    # them, and the reader names their line.
    ("cell-negative-as-written", "e7\t0\t5", "e7\t-1\t5",
     f"table line 23: row for event 'e7': {_BAD_ROW}"),
    ("cell-above-class-size", "e7\t0\t5", "e7\t0\t6",
     f"table line 23: row for event 'e7': {_BAD_ROW}"),
    ("cell-not-repr", "e8\t0\t1\t", "e8\t0\t01\t",
     "table line 24: expected 'e8\\t0\\t1\\t0\\t0', found 'e8\\t0\\t01\\t0\\t0'"),
    ("cell-spaced", "e8\t0\t1\t", "e8\t0\t 1\t",
     "table line 24: expected 'e8\\t0\\t1\\t0\\t0', found 'e8\\t0\\t 1\\t0\\t0'"),
    ("cell-exponent", "e8\t0\t1", "e8\t0e0\t1",
     "table line 24: invalid literal for int() with base 10: '0e0'"),
    ("single-row-no-cell", "e8\t0\t1", "e8\t0\t0",
     f"table line 24: row for event 'e8': {_BAD_ROW}"),
    ("row-without-template", "e8\t0\t1", "e99\t0\t1",
     "table line 24: row for event 'e99', which the template registry lacks"),
]


@pytest.mark.parametrize(
    "old, new, message", [m[1:] for m in _MUTANTS], ids=[m[0] for m in _MUTANTS]
)
def test_malformed_model_mutant_names_its_fault(fig_corpus, old, new, message):
    text = model_to_text(*build(fig_corpus))
    assert len(text.splitlines()) == 24 and old in text
    with pytest.raises(ValidationError) as raised:
        model_from_text(text.replace(old, new, 1))
    assert str(raised.value) == message


def test_a_bad_cell_written_as_the_writer_writes_it_is_reported_after_other_faults(fig_corpus):
    # Line 23's counts are checked only once every row is read, by the
    # table's constructor, so the duplicate on line 24 is reported first.
    text = model_to_text(*build(fig_corpus))
    text = text.replace("e7\t0\t5", "e7\t-1\t5", 1)
    text = text.replace("e8\t0\t1", "e7\t0\t1", 1)
    with pytest.raises(ValidationError, match="^table line 24: duplicate row for event 'e7'$"):
        model_from_text(text)


def test_loading_checks_each_distinct_row_once(fig_corpus):
    # e8 gets e7's counts: three rows, two distinct texts.
    text = model_to_text(*build(fig_corpus)).replace("e8\t0\t1\t", "e8\t0\t5\t", 1)
    with mock.patch.object(table_module, "_counts_ok", wraps=table_module._counts_ok) as counts_ok:
        _, table = model_from_text(text)
    # The constructor checks each distinct row object once; the reader
    # calls the check only to name a faulty line.
    assert counts_ok.call_count == 2
    assert table.counts["e7"] is table.counts["e8"]
    assert table.rows["e7"] is table.rows["e8"]


def test_trailing_blank_line_rejected(fig_corpus):
    text = model_to_text(*build(fig_corpus))
    with pytest.raises(ValidationError, match="^model line 25: unexpected line after"):
        model_from_text(text + "\n")


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
    logs = (passed, [((*lines, marker), cause) for lines, marker, cause in failed])
    probes = draw(st.lists(_lines(1, 8), max_size=10))
    return logs, config, draw(st.sampled_from(ABLATION_VARIANTS)), probes


@contextmanager
def _written(logs):
    """The corpus of drawn ``(passed, failed)`` logs, written to a temporary
    directory that lasts as long as the ``with`` block, and loaded."""
    passed, failed = logs
    with tempfile.TemporaryDirectory() as root:
        write_corpus(
            root,
            {f"p{i:02d}": log_text(lines) for i, lines in enumerate(passed)},
            {f"f{i:02d}": log_text(lines) for i, (lines, _) in enumerate(failed)},
            [f"f{i:02d},{cause}" for i, (_, cause) in enumerate(failed)],
        )
        yield load_corpus(root)


def _tree_shape(node):
    return (
        tuple(node.template_ids),
        tuple((key, _tree_shape(child)) for key, child in node.children.items()),
    )


def _train(logs, config, variant):
    """The miner and the named variant's table, from one mining pass over
    the drawn logs, written to disk."""
    with _written(logs) as corpus:
        miner, tables = ablation_tables(corpus, config)
    return miner, tables[variant]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_trained_models())
def test_reloaded_model_is_the_trained_one(case):
    logs, config, variant, probes = case
    miner, table = _train(logs, config, variant)
    text = model_to_text(miner, table)
    loaded_miner, loaded_table = model_from_text(text)

    assert model_to_text(loaded_miner, loaded_table) == text
    assert [(n, _tree_shape(node)) for n, node in loaded_miner._root.items()] == [
        (n, _tree_shape(node)) for n, node in miner._root.items()
    ]
    passed, failed = logs
    for lines in [*passed, *(lines for lines, _ in failed), tuple(probes)]:
        assert loaded_miner.parse_log(lines).events == miner.parse_log(lines).events
    # The counts are the trained ones, and so are the scores derived from
    # them, to the last bit.
    assert loaded_table.counts == table.counts
    assert repr(loaded_table.rows) == repr(table.rows)
    # Events with the same counts share one count tuple and one score tuple.
    first = {}
    for eid, counts in loaded_table.counts.items():
        seen = first.setdefault(counts, eid)
        assert loaded_table.counts[seen] is counts
        assert loaded_table.rows[seen] is loaded_table.rows[eid]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_trained_models())
def test_the_one_pass_full_model_is_the_built_one(case):
    logs, config, _, _ = case
    with _written(logs) as corpus:
        built = model_to_text(*build(corpus, config))
    assert model_to_text(*_train(logs, config, "full")) == built


# What a one-line edit may insert: digits, signs, separators and letters of
# the saved fields and steps, but no line break.
_EDIT_CHARS = "0123456789.-+ \t_efinaslgmutorwhpc<*>\"[],:"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_trained_models(), st.data())
def test_a_one_line_edit_is_rejected_or_loads_as_written(case, data):
    logs, config, variant, _ = case
    lines = model_to_text(*_train(logs, config, variant)).splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    start = data.draw(st.integers(0, len(line)))
    inserted = data.draw(st.text(st.sampled_from(_EDIT_CHARS), max_size=3))
    # Without an insertion, delete at least one character.
    end = data.draw(st.integers(min(start + (not inserted), len(line)), min(start + 3, len(line))))
    lines[at] = line[:start] + inserted + line[end:]
    assume(lines[at] != line)
    try:
        loaded = model_from_text("\n".join(lines) + "\n")
    except ValidationError:
        return
    assert model_to_text(*loaded).splitlines() == lines



@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_trained_models())
def test_event_ids_are_the_registry_rows(case):
    # The n-th registry row is e<n>, trained and reloaded, and a miner
    # rebuilt from the registry registers next after its last row.
    logs, config, variant, _ = case
    miner, table = _train(logs, config, variant)
    loaded_miner, _ = model_from_text(model_to_text(miner, table))
    ids = [f"e{n}" for n in range(1, len(miner.templates) + 1)]
    for each in (miner, loaded_miner):
        assert list(each.templates) == ids
        assert [template.event_id for template in each.templates.values()] == ids
    rows = [f"{t.match_count}\t{t.text}" for t in miner.templates.values()]
    assert miner.registry_lines()[1:] == rows
    rebuilt = TemplateMiner.from_registry_text(miner.export_registry(), config)
    # Nine tokens: longer than any line of the corpus, so it registers.
    assert rebuilt.parse_line("z " * 9) == f"e{len(ids) + 1}"
