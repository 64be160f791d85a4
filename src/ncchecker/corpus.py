"""Labeled log corpora: loading, validation, and stratified splitting.

A corpus directory holds ``passed/*.log`` and ``failed/*.log`` plus a
``labels.csv`` mapping each failed log id (the file stem) to a cause id.
Passed logs carry no labels.  A ``Corpus`` keeps each group in log-id
order, which is the order every later stage reads it in.

``load_corpus`` lists the files and reads the labels, but reads no log.  A
log is its file: a ``PassedLog`` is its id and its path, a
``LabeledFailedLog`` those and its cause, and every field compares.  A
log's ``text`` and ``lines`` read its file each time they are asked for,
so a log is read when it is parsed and its text is not kept.  Training
and evaluation take each log as its ``text``, read once per pass over
it, and hold no whole corpus; a log that cannot be read fails the pass
that reads it.  ``split`` regroups the logs it is given as they are.

A log file is read as bytes and decoded as UTF-8, with undecodable bytes
replaced; ``"\\r\\n"`` and a lone ``"\\r"`` are read as ``"\\n"``, and only
``"\\n"`` ends a line.  That is the log's text (``read_log_text``), and its
lines are the text split at each ``"\\n"``, a final one ending the last
line rather than starting another (``read_log_lines``).  A regular file
is read with one ``os.read``, which asks for one byte more than ``fstat``
gave: if it returns the size ``fstat`` gave, that is the whole file.  Any
other file, and a regular one that returned another size, is read on
until a read returns no bytes.
"""

import csv
import math
import os
import random
import stat
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ValidationError

LABELS_HEADER = ("log_id", "cause_id")
# How ``read_log_text`` opens a log (O_BINARY, Windows only, keeps
# "\r\n" from being translated) and what it asks for in each read after
# its first.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_BYTES = 1 << 16


@dataclass(frozen=True)
class CauseTaxonomy:
    """Ordered failure causes; ids are 0..K-1, display codes C1..CK."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) < 2:
            raise ValidationError("taxonomy needs at least 2 causes")
        for name in self.names:
            if "".join(name.splitlines()) != name:
                raise ValidationError(f"cause name {name!r} holds a line break")

    @property
    def k(self) -> int:
        return len(self.names)

    def code(self, cause: int) -> str:
        return f"C{cause + 1}"

    def display(self, cause: int) -> str:
        return f"{self.code(cause)} {self.names[cause]}"

    def check_cause(self, cause: int) -> int:
        if not 0 <= cause < self.k:
            raise ValidationError(f"unknown cause id {cause} (taxonomy has {self.k} causes)")
        return cause


DEFAULT_TAXONOMY = CauseTaxonomy(
    ("bug-related", "environmental", "test-script", "third-party-library")
)


class _Log:
    """What a passed and a failed log share: the ``text`` and ``lines`` of their file."""

    __slots__ = ()

    @property
    def text(self) -> str:
        """The text of the log's ``path``, read now (``read_log_text``)."""
        return read_log_text(self.path)

    @property
    def lines(self) -> tuple[str, ...]:
        """The lines of the log's ``path``, read now (``read_log_lines``)."""
        return read_log_lines(self.path)


@dataclass(frozen=True)
class PassedLog(_Log):
    log_id: str
    path: str


@dataclass(frozen=True)
class LabeledFailedLog(_Log):
    log_id: str
    path: str
    cause: int


def _log_id(log) -> str:
    return log.log_id


@dataclass(frozen=True)
class Corpus:
    """Passed and labelled failed logs, each group sorted by log id.

    Training mines templates in this order and evaluation predicts in it,
    so a model and a report do not depend on how the logs were listed.
    """

    passed: tuple[PassedLog, ...]
    failed: tuple[LabeledFailedLog, ...]
    taxonomy: CauseTaxonomy

    def __post_init__(self):
        object.__setattr__(self, "passed", tuple(sorted(self.passed, key=_log_id)))
        object.__setattr__(self, "failed", tuple(sorted(self.failed, key=_log_id)))
        for group, kind in ((self.passed, "passed"), (self.failed, "failed")):
            ids = [log.log_id for log in group]
            if len(ids) != len(set(ids)):
                dupes = sorted({i for i in ids if ids.count(i) > 1})
                raise ValidationError(f"duplicate {kind} log ids: {', '.join(dupes)}")
        # Each distinct cause once, in log-id order, so the first bad cause is named.
        for cause in dict.fromkeys(log.cause for log in self.failed):
            self.taxonomy.check_cause(cause)


def read_log_text(path) -> str:
    """Read a log file as bytes and decode it into its text.

    The bytes are decoded as UTF-8 with undecodable bytes replaced, never
    fatal.  ``"\\r\\n"`` and a lone ``"\\r"`` are read as ``"\\n"``, the line
    end.
    """
    # Raw os calls, with no file object.  The first read asks for one byte
    # more than fstat saw; for a regular file, a read that returns exactly
    # the size fstat saw has read it whole.  Otherwise reads go on until
    # one returns no bytes: so a file that grew or shrank since fstat, a
    # read cut short (Linux returns at most 0x7ffff000 bytes a read), and
    # a file whose size fstat does not give, such as a pipe, are read
    # whole too.
    fd = os.open(path, _READ_FLAGS)
    try:
        status = os.fstat(fd)
        data = os.read(fd, status.st_size + 1)
        if data and (len(data) != status.st_size or not stat.S_ISREG(status.st_mode)):
            chunks = [data]
            while chunk := os.read(fd, _READ_BYTES):
                chunks.append(chunk)
            data = b"".join(chunks)
    except OSError as exc:
        exc.filename = os.fspath(path)  # os.read names no file, say for a directory
        raise
    finally:
        os.close(fd)
    text = data.decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_log_lines(path) -> tuple[str, ...]:
    """The lines of a log file's ``read_log_text``.

    Only ``"\\n"`` ends a line, and a final ``"\\n"`` ends the last line
    rather than starting another.
    """
    # splitlines() would also break at form feeds and other separators that
    # no line counter (editor, grep -n) treats as line ends.
    lines = read_log_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return tuple(lines)


def log_files(directory) -> list[tuple[str, str]]:
    """The ``*.log`` entries of a directory as ``(log_id, path)`` pairs.

    Lists what ``Path(directory).glob("*.log")`` lists, each id being that
    path's ``stem``, in log-id order; two names with one id (``.log`` and
    ``.log.log``) keep the order of their names.
    """
    with os.scandir(directory) as entries:
        named = sorted(
            (entry.name[:-4] or entry.name, entry.name, entry.path)
            for entry in entries
            if entry.name.endswith(".log")
        )
    return [(log_id, path) for log_id, _, path in named]


def load_labels(path, taxonomy: CauseTaxonomy) -> dict[str, int]:
    path = Path(path)
    try:
        return _read_labels(path, taxonomy)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"labels file {path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise ValidationError(f"labels file {path}: {exc}") from None


def _read_labels(path: Path, taxonomy: CauseTaxonomy) -> dict[str, int]:
    labels: dict[str, int] = {}
    problems: list[str] = []
    # utf-8-sig drops the byte-order mark that spreadsheet exports write.
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"labels file {path} is empty") from None
        if tuple(header) != LABELS_HEADER:
            raise ValidationError(
                f"labels file {path}: expected header log_id,cause_id, found {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                problems.append(f"line {lineno}: expected 2 fields")
                continue
            log_id, cause_text = row[0].strip(), row[1].strip()
            try:
                cause = int(cause_text)
            except ValueError:
                problems.append(f"line {lineno}: cause id {cause_text!r} is not an integer")
                continue
            if not 0 <= cause < taxonomy.k:
                problems.append(f"line {lineno}: unknown cause id {cause} for log {log_id}")
                continue
            if log_id in labels:
                problems.append(f"line {lineno}: duplicate label for log {log_id}")
                continue
            labels[log_id] = cause
    if problems:
        raise ValidationError(f"labels file {path}: " + "; ".join(problems))
    return labels


def load_corpus(root, labels_path=None, taxonomy: CauseTaxonomy = DEFAULT_TAXONOMY) -> Corpus:
    """Load ``passed/*.log`` and ``failed/*.log`` under root, with labels.

    Every failed file must have exactly one label row; labels pointing at
    absent files are rejected.  Missing passed/ or failed/ directories are
    treated as empty.  No log is read here: each keeps its path, and its
    ``text`` and ``lines`` read the file whenever they are asked for.
    """
    root = Path(root)
    passed_files = log_files(root / "passed") if (root / "passed").is_dir() else []
    failed_files = log_files(root / "failed") if (root / "failed").is_dir() else []

    labels: dict[str, int] = {}
    if failed_files or labels_path is not None:
        labels_file = Path(labels_path) if labels_path is not None else root / "labels.csv"
        if labels_file.exists() or failed_files:
            labels = load_labels(labels_file, taxonomy)

    failed_ids = [log_id for log_id, _ in failed_files]
    missing = sorted(set(failed_ids) - set(labels))
    orphaned = sorted(set(labels) - set(failed_ids))
    problems = []
    if missing:
        problems.append(f"failed logs without a label: {', '.join(missing)}")
    if orphaned:
        problems.append(f"labels without a log file: {', '.join(orphaned)}")
    if problems:
        raise ValidationError("; ".join(problems))

    passed = tuple(PassedLog(log_id, path) for log_id, path in passed_files)
    failed = tuple(LabeledFailedLog(log_id, path, labels[log_id]) for log_id, path in failed_files)
    return Corpus(passed, failed, taxonomy)


def split(corpus: Corpus, test_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Stratified per-cause split of the failed logs; passed logs stay in train.

    Per-cause test counts are the ceiling of test_fraction times the cause
    size (so every cause with at least 2 logs contributes at least one test
    log), clamped to leave at least one training log.  A cause with a
    single failed log stays entirely in train.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = random.Random(seed)
    # Fraction(str(...)) reads the fraction as written, avoiding float
    # artifacts like ceil(0.1 * 2890) == 290.
    exact_fraction = Fraction(str(test_fraction))

    train_failed: list[LabeledFailedLog] = []
    test_failed: list[LabeledFailedLog] = []
    for cause in range(corpus.taxonomy.k):
        group = [f for f in corpus.failed if f.cause == cause]
        n = len(group)
        if n < 2:
            train_failed.extend(group)
            continue
        n_test = min(math.ceil(exact_fraction * n), n - 1)
        rng.shuffle(group)
        test_failed.extend(group[:n_test])
        train_failed.extend(group[n_test:])

    train = Corpus(corpus.passed, tuple(train_failed), corpus.taxonomy)
    test = Corpus((), tuple(test_failed), corpus.taxonomy)
    return train, test
