import os
import threading
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from bruteforce import text_layer_log_lines
from conftest import write_corpus
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
    read_log_text,
)


def test_load_counts(tmp_path):
    write_corpus(
        tmp_path,
        {"p1": "ok line\n", "p2": "ok line\n"},
        {"f1": "bad\n", "f2": "bad\n", "f3": "bad\n"},
        ["f1,0", "f2,1", "f3,3"],
    )
    corpus = load_corpus(tmp_path)
    assert (len(corpus.passed), len(corpus.failed)) == (2, 3)
    assert [log.cause for log in corpus.failed] == [0, 1, 3]


def test_missing_label_names_the_log(tmp_path):
    write_corpus(tmp_path, {}, {"f1": "x\n", "f2": "x\n"}, ["f1,0"])
    with pytest.raises(ValidationError, match="f2"):
        load_corpus(tmp_path)


def test_unknown_cause_id_rejected(tmp_path):
    write_corpus(tmp_path, {}, {"logA": "x\n"}, ["logA,7"])
    with pytest.raises(ValidationError, match="unknown cause id 7"):
        load_corpus(tmp_path)


def test_label_for_absent_file_rejected(tmp_path):
    write_corpus(tmp_path, {}, {"f1": "x\n"}, ["f1,0", "ghost,1"])
    with pytest.raises(ValidationError, match="ghost"):
        load_corpus(tmp_path)


def test_bad_header_rejected(tmp_path):
    write_corpus(tmp_path, {}, {"f1": "x\n"}, [])
    (tmp_path / "labels.csv").write_text("id,cause\nf1,0\n")
    with pytest.raises(ValidationError, match="header"):
        load_corpus(tmp_path)


def test_labels_may_start_with_a_byte_order_mark(tmp_path):
    # Spreadsheets export CSV as UTF-8 with a byte-order mark.
    write_corpus(tmp_path, {}, {"f1": "x\n", "f2": "x\n"}, [])
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"\xef\xbb\xbflog_id,cause_id\nf1,0\nf2,3\n")
    corpus = load_corpus(tmp_path)
    assert [(log.log_id, log.cause) for log in corpus.failed] == [("f1", 0), ("f2", 3)]
    # A mark before a wrong header does not show in the message.
    labels.write_bytes(b"\xef\xbb\xbfid,cause\nf1,0\n")
    with pytest.raises(ValidationError, match="expected header log_id,cause_id, found id,cause$"):
        load_corpus(tmp_path)


def test_load_keeps_logs_in_id_order_not_path_order(tmp_path):
    # As paths, "a-b.log" sorts before "a.log"; as ids, "a" comes first.
    write_corpus(tmp_path, {}, {"a": "x\n", "a-b": "y\n"}, ["a,0", "a-b,1"])
    assert [log.log_id for log in load_corpus(tmp_path).failed] == ["a", "a-b"]


def test_corpus_sorts_each_group_by_log_id():
    # No log is read, so their paths need not exist.
    passed = (PassedLog("p2", "p2.log"), PassedLog("p1", "p1.log"))
    failed = (LabeledFailedLog("f2", "f2.log", 0), LabeledFailedLog("f1", "f1.log", 1))
    corpus = Corpus(passed, failed, DEFAULT_TAXONOMY)
    assert [log.log_id for log in corpus.passed] == ["p1", "p2"]
    assert [log.log_id for log in corpus.failed] == ["f1", "f2"]


def test_a_loaded_log_reads_its_file_each_time_its_lines_are_asked_for(tmp_path):
    write_corpus(tmp_path, {"p1": "ok\n"}, {"f1": "bad\n"}, ["f1,2"])
    corpus = load_corpus(tmp_path)
    (tmp_path / "passed" / "p1.log").write_text("ok\nstill ok\n")
    (tmp_path / "failed" / "f1.log").unlink()
    assert corpus.passed[0].lines == ("ok", "still ok")
    with pytest.raises(FileNotFoundError):
        corpus.failed[0].lines


def test_a_listed_log_is_the_log_its_class_builds_from_its_fields(tmp_path):
    passed, failed = {"p1": "ok\n", "p2": "fine\n"}, {"f1": "bad\n", "f2": "x\n"}
    write_corpus(tmp_path, passed, failed, ["f1,2", "f2,0"])
    corpus = load_corpus(tmp_path)
    for log in (*corpus.passed, *corpus.failed):
        built = type(log)(**vars(log))
        assert list(vars(log)) == [f.name for f in fields(log)]
        assert log == built and repr(log) == repr(built)
        assert replace(log) == log
        assert replace(log, log_id="other").path == log.path
        with pytest.raises(FrozenInstanceError):
            log.log_id = "other"
        # Each text and lines reads the file again.
        first = log.text
        Path(log.path).write_text(first + "more\n")
        assert log.text == first + "more\n"
        assert log.lines == (*first.splitlines(), "more")
        Path(log.path).write_bytes(b"again\r\n")
        assert (log.text, log.lines) == ("again\n", ("again",))
    assert [log.cause for log in corpus.failed] == [2, 0]
    # Every field compares: a log of another file is another log.
    p1, p2 = corpus.passed
    assert replace(p1, path=p2.path) != p1


def test_undecodable_bytes_are_replaced(tmp_path):
    write_corpus(tmp_path, {}, {"f1": ""}, ["f1,0"])
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


def _sized(size: int) -> bytes:
    """``size`` bytes of short lines, with "\r\n", "\r" and a 2-byte character."""
    return (b"ab 12\r\n\xc3\xa9\r" * (size // 9 + 1))[:size]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_log_bytes)
@example(b"")
@example(b"x")
# Around the 64 KiB that each read after the first asks for.
@example(_sized(65_535))
@example(_sized(65_536))
@example(_sized(65_537))
@example(_sized(200_001))
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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_log_lines_reads_on_to_the_end_of_what_fstat_gives_no_size(tmp_path):
    # A pipe has size 0 to fstat; the writer sends more than two reads take.
    fifo = tmp_path / "x.log"
    os.mkfifo(fifo)
    data = b"line 1\n" * 30_000
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        assert read_log_lines(fifo) == ("line 1",) * 30_000
    finally:
        writer.join(timeout=10)


def _count_reads(monkeypatch) -> list[int]:
    """From now on, the size each ``os.read`` asks for."""
    asked, read = [], os.read

    def counting_read(fd, size):
        asked.append(size)
        return read(fd, size)

    monkeypatch.setattr(os, "read", counting_read)
    return asked


@pytest.mark.parametrize(
    "data", [b"", b"one line\n", _sized(65_536), _sized(200_001)], ids=len
)
def test_a_regular_log_is_read_with_one_call(tmp_path, monkeypatch, data):
    path = tmp_path / "x.log"
    path.write_bytes(data)
    asked = _count_reads(monkeypatch)
    assert read_log_lines(path) == text_layer_log_lines(path)
    assert asked == [len(data) + 1]


@pytest.mark.parametrize("error", [-1, -9, 1, 70_000], ids=str)
def test_a_log_whose_size_fstat_misreports_is_still_read_whole(tmp_path, monkeypatch, error):
    # Under-reported, the file grew after fstat; over-reported, it shrank.
    path = tmp_path / "x.log"
    data = _sized(200_001)
    path.write_bytes(data)
    fstat = os.fstat

    def misreporting_fstat(fd):
        status = list(fstat(fd))
        status[6] += error  # st_size
        return os.stat_result(status)

    monkeypatch.setattr(os, "fstat", misreporting_fstat)
    asked = _count_reads(monkeypatch)
    assert read_log_text(path) == data.decode().replace("\r\n", "\n").replace("\r", "\n")
    assert asked[0] == len(data) + error + 1
    assert len(asked) > 1


def test_a_read_error_names_the_log(tmp_path):
    # Opening a directory succeeds; the read that then fails names no file.
    (tmp_path / "x.log").mkdir()
    for path in (tmp_path / "x.log", str(tmp_path / "x.log")):
        with pytest.raises(OSError) as info:
            read_log_lines(path)
        assert info.value.filename == str(tmp_path / "x.log")
        assert str(tmp_path / "x.log") in str(info.value)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_read_log_lines_closes_what_it_opens(tmp_path):
    (tmp_path / "a.log").write_bytes(b"one\ntwo\n")
    (tmp_path / "x.log").mkdir()
    before = _open_fds()
    for _ in range(3):
        assert read_log_lines(tmp_path / "a.log") == ("one", "two")
        assert _open_fds() == before
        for missing in (tmp_path / "x.log", tmp_path / "gone.log"):
            with pytest.raises(OSError):
                read_log_lines(missing)
            assert _open_fds() == before


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
                LabeledFailedLog("f1", "x.log", 0),
                LabeledFailedLog("f1", "y.log", 1),
            ),
            DEFAULT_TAXONOMY,
        )


def test_a_corpus_names_its_first_bad_cause_in_log_id_order():
    failed = (LabeledFailedLog("f2", "f2.log", 5), LabeledFailedLog("f1", "f1.log", 9))
    with pytest.raises(ValidationError, match="unknown cause id 9 "):
        Corpus((), failed, DEFAULT_TAXONOMY)


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
    # Splitting reads no log, so the paths need not exist.
    failed = []
    for cause, count in enumerate(counts):
        failed.extend(
            LabeledFailedLog(f"c{cause}-{i:05d}", f"c{cause}-{i:05d}.log", cause)
            for i in range(count)
        )
    return Corpus((), tuple(failed), DEFAULT_TAXONOMY)


def _cause_counts(corpus) -> list[int]:
    counts = [0] * corpus.taxonomy.k
    for log in corpus.failed:
        counts[log.cause] += 1
    return counts


def test_split_ceiling_counts_match_reference_sizes():
    corpus = _synthetic_failed((2889, 984, 517, 73))
    train, test = split(corpus, 0.10, seed=13)
    assert _cause_counts(test) == [289, 99, 52, 8]
    assert _cause_counts(train) == [2600, 885, 465, 65]


def test_split_no_float_ceiling_artifacts():
    # ceil(0.1 * 2890) must be 289, not 290.
    corpus = _synthetic_failed((2890, 10, 10, 10))
    _, test = split(corpus, 0.1, seed=0)
    assert _cause_counts(test)[0] == 289


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
    assert _cause_counts(test)[1] == 0
    assert _cause_counts(train)[1] == 1


def test_split_always_leaves_a_training_log():
    corpus = _synthetic_failed((2, 2, 2, 2))
    train, test = split(corpus, 0.9, seed=3)
    assert _cause_counts(train) == [1, 1, 1, 1]
    assert _cause_counts(test) == [1, 1, 1, 1]


def test_split_stratification_within_one_log():
    corpus = _synthetic_failed((37, 23, 11, 7))
    _, test = split(corpus, 0.25, seed=9)
    for cause, count in enumerate(_cause_counts(test)):
        assert abs(count - 0.25 * _cause_counts(corpus)[cause]) < 1.0


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
