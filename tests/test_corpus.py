from pathlib import Path

import pytest
from bruteforce import text_layer_log_lines
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncchecker import ValidationError, load_corpus, split
from ncchecker.corpus import (
    DEFAULT_TAXONOMY,
    CauseTaxonomy,
    Corpus,
    LabeledFailedLog,
    PassedLog,
    log_files,
    read_log_lines,
)


def _write_corpus(root, passed, failed, labels_rows):
    (root / "passed").mkdir(parents=True)
    (root / "failed").mkdir(parents=True)
    for name, text in passed.items():
        (root / "passed" / f"{name}.log").write_text(text, encoding="utf-8")
    for name, text in failed.items():
        (root / "failed" / f"{name}.log").write_text(text, encoding="utf-8")
    (root / "labels.csv").write_text("\n".join(["log_id,cause_id"] + labels_rows) + "\n")


def test_load_counts(tmp_path):
    _write_corpus(
        tmp_path,
        {"p1": "ok line\n", "p2": "ok line\n"},
        {"f1": "bad\n", "f2": "bad\n", "f3": "bad\n"},
        ["f1,0", "f2,1", "f3,3"],
    )
    corpus = load_corpus(tmp_path)
    assert (len(corpus.passed), len(corpus.failed)) == (2, 3)
    assert corpus.cause_counts() == [1, 1, 0, 1]


def test_missing_label_names_the_log(tmp_path):
    _write_corpus(tmp_path, {}, {"f1": "x\n", "f2": "x\n"}, ["f1,0"])
    with pytest.raises(ValidationError, match="f2"):
        load_corpus(tmp_path)


def test_unknown_cause_id_rejected(tmp_path):
    _write_corpus(tmp_path, {}, {"logA": "x\n"}, ["logA,7"])
    with pytest.raises(ValidationError, match="unknown cause id 7"):
        load_corpus(tmp_path)


def test_label_for_absent_file_rejected(tmp_path):
    _write_corpus(tmp_path, {}, {"f1": "x\n"}, ["f1,0", "ghost,1"])
    with pytest.raises(ValidationError, match="ghost"):
        load_corpus(tmp_path)


def test_bad_header_rejected(tmp_path):
    _write_corpus(tmp_path, {}, {"f1": "x\n"}, [])
    (tmp_path / "labels.csv").write_text("id,cause\nf1,0\n")
    with pytest.raises(ValidationError, match="header"):
        load_corpus(tmp_path)


def test_load_keeps_logs_in_id_order_not_path_order(tmp_path):
    # As paths, "a-b.log" sorts before "a.log"; as ids, "a" comes first.
    _write_corpus(tmp_path, {}, {"a": "x\n", "a-b": "y\n"}, ["a,0", "a-b,1"])
    assert [log.log_id for log in load_corpus(tmp_path).failed] == ["a", "a-b"]


def test_corpus_sorts_each_group_by_log_id():
    passed = (PassedLog("p2", ("x",)), PassedLog("p1", ("y",)))
    failed = (LabeledFailedLog("f2", ("x",), 0), LabeledFailedLog("f1", ("y",), 1))
    corpus = Corpus(passed, failed, DEFAULT_TAXONOMY)
    assert [log.log_id for log in corpus.passed] == ["p1", "p2"]
    assert [log.log_id for log in corpus.failed] == ["f1", "f2"]


def test_undecodable_bytes_are_replaced(tmp_path):
    _write_corpus(tmp_path, {}, {"f1": ""}, ["f1,0"])
    (tmp_path / "failed" / "f1.log").write_bytes(b"ok \xff\xfe broken\n")
    corpus = load_corpus(tmp_path)
    assert "broken" in corpus.failed[0].lines[0]


# Byte runs a log can hold: line ends and separators that are not line
# ends (form feed, file separator, U+2028, NEL), a BOM, valid, invalid and
# truncated UTF-8, and plain text.
_LOG_BYTE_PIECES = (
    b"\n", b"\r", b"\r\n", b"\r\r\n",
    b"\x0c", b"\x1c", "\u2028".encode(), b"\xc2\x85",
    b"\xef\xbb\xbf", b"\xc3\xa9", b"\xff", b"\xe2\x82", b"\xf0\x9f", b"\x00", b"ok 12",
)

# The text layer decodes through an 8 KiB buffer; a padding of 8190 or
# 8191 bytes puts a leading "\r\r\n" or "\r\n" across its boundary.
_log_bytes = st.builds(
    lambda padding, pieces: b"a" * padding + b"".join(pieces),
    st.sampled_from((0, 0, 8190, 8191)),
    st.lists(st.sampled_from(_LOG_BYTE_PIECES) | st.binary(max_size=4), max_size=24),
)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("reader") / "x.log"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_log_bytes)
@example(b"")
@example(b"no end")
@example(b"one\ntwo\n")
@example(b"\xef\xbb\xbfbom\n")
@example(b"a\rb\r\nc\r\r\nd\r")
@example(b"a\x0cb\x1cc\xe2\x80\xa8d\xc2\x85e\n")
@example(b"ok \xff\xfe broken \xe2\x82")
@example(b"a" * 8191 + b"\r\nb")
def test_read_log_lines_equals_the_text_layer(log_path, data):
    log_path.write_bytes(data)
    assert read_log_lines(log_path) == text_layer_log_lines(log_path)


def test_read_log_lines_keeps_a_bom_and_ends_lines_only_at_newlines(tmp_path):
    path = tmp_path / "x.log"
    path.write_bytes(b"\xef\xbb\xbfa\x0cb\r\nc\rd\r\r\ne\xe2\x80\xa8f\n")
    assert read_log_lines(path) == ("\ufeffa\x0cb", "c", "d", "", "e\u2028f")


def test_log_files_lists_what_path_glob_lists(tmp_path):
    for name in ("b.log", "a.b.log", ".h.log", ".log", "a.LOG", "notes.txt", "\u65e5\u5fd7.log"):
        (tmp_path / name).write_text("x\n")
    (tmp_path / "dir.log").mkdir()
    (tmp_path / "gone.log").symlink_to(tmp_path / "missing")
    listed = log_files(tmp_path)
    ids = [log_id for log_id, _ in listed]
    assert ids == [".h", ".log", "a.b", "b", "dir", "gone", "\u65e5\u5fd7"]
    assert ids == sorted(path.stem for path in tmp_path.glob("*.log"))
    assert sorted(map(Path, (path for _, path in listed))) == sorted(tmp_path.glob("*.log"))
    assert all(Path(path).stem == log_id for log_id, path in listed)


def test_log_files_orders_one_id_by_name(tmp_path):
    for name in (".log.log", ".log"):
        (tmp_path / name).write_text("x\n")
    listed = [(log_id, Path(path).name) for log_id, path in log_files(tmp_path)]
    assert listed == [(".log", ".log"), (".log", ".log.log")]


def test_duplicate_failed_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        Corpus(
            (),
            (
                LabeledFailedLog("f1", ("x",), 0),
                LabeledFailedLog("f1", ("y",), 1),
            ),
            DEFAULT_TAXONOMY,
        )


def test_taxonomy_codes():
    taxonomy = CauseTaxonomy(("one", "two"))
    assert taxonomy.k == 2
    assert taxonomy.code(0) == "C1"
    assert taxonomy.display(1) == "C2 two"
    with pytest.raises(ValidationError):
        taxonomy.check_cause(2)
    with pytest.raises(ValidationError):
        CauseTaxonomy(("only",))


# -- split -------------------------------------------------------------------


def _synthetic_failed(counts) -> Corpus:
    failed = []
    for cause, count in enumerate(counts):
        failed.extend(
            LabeledFailedLog(f"c{cause}-{i:05d}", (f"line {i}",), cause)
            for i in range(count)
        )
    return Corpus((), tuple(failed), DEFAULT_TAXONOMY)


def test_split_ceiling_counts_match_reference_sizes():
    corpus = _synthetic_failed((2889, 984, 517, 73))
    train, test = split(corpus, 0.10, seed=13)
    assert test.cause_counts() == [289, 99, 52, 8]
    assert train.cause_counts() == [2600, 885, 465, 65]


def test_split_no_float_ceiling_artifacts():
    # ceil(0.1 * 2890) must be 289, not 290.
    corpus = _synthetic_failed((2890, 10, 10, 10))
    _, test = split(corpus, 0.1, seed=0)
    assert test.cause_counts()[0] == 289


def test_split_deterministic_under_seed():
    corpus = _synthetic_failed((10, 5, 3, 2))
    first = split(corpus, 0.5, seed=42)
    second = split(corpus, 0.5, seed=42)
    assert [f.log_id for f in first[1].failed] == [f.log_id for f in second[1].failed]
    third = split(corpus, 0.5, seed=43)
    assert [f.log_id for f in first[1].failed] != [f.log_id for f in third[1].failed]


def test_split_single_log_cause_stays_in_train():
    corpus = _synthetic_failed((5, 1, 2, 2))
    train, test = split(corpus, 0.5, seed=1)
    assert test.cause_counts()[1] == 0
    assert train.cause_counts()[1] == 1


def test_split_always_leaves_a_training_log():
    corpus = _synthetic_failed((2, 2, 2, 2))
    train, test = split(corpus, 0.9, seed=3)
    assert train.cause_counts() == [1, 1, 1, 1]
    assert test.cause_counts() == [1, 1, 1, 1]


def test_split_stratification_within_one_log():
    corpus = _synthetic_failed((37, 23, 11, 7))
    _, test = split(corpus, 0.25, seed=9)
    for cause, count in enumerate(test.cause_counts()):
        assert abs(count - 0.25 * corpus.cause_counts()[cause]) < 1.0


def test_split_fraction_bounds():
    corpus = _synthetic_failed((4, 4, 4, 4))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            split(corpus, bad, seed=0)


def test_split_passed_logs_stay_in_train(fig_corpus):
    train, test = split(fig_corpus, 0.4, seed=5)
    assert train.passed == fig_corpus.passed
    assert test.passed == ()
    train_ids = {f.log_id for f in train.failed}
    test_ids = {f.log_id for f in test.failed}
    assert train_ids | test_ids == {f.log_id for f in fig_corpus.failed}
    assert not train_ids & test_ids
