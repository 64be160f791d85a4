"""Labeled log corpora: loading, validation, and stratified splitting.

A corpus directory holds ``passed/*.log`` and ``failed/*.log`` plus a
``labels.csv`` mapping each failed log id (the file stem) to a cause id.
Passed logs carry no labels.  A ``Corpus`` keeps each group in log-id
order, which is the order every later stage reads it in.
"""

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ValidationError

LABELS_HEADER = ("log_id", "cause_id")


@dataclass(frozen=True)
class CauseTaxonomy:
    """Ordered failure causes; ids are 0..K-1, display codes C1..CK."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) < 2:
            raise ValidationError("taxonomy needs at least 2 causes")

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


@dataclass(frozen=True)
class PassedLog:
    log_id: str
    lines: tuple[str, ...]


@dataclass(frozen=True)
class LabeledFailedLog:
    log_id: str
    lines: tuple[str, ...]
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
        for log in self.failed:
            self.taxonomy.check_cause(log.cause)

    def cause_counts(self) -> list[int]:
        counts = [0] * self.taxonomy.k
        for log in self.failed:
            counts[log.cause] += 1
        return counts


def read_log_lines(path) -> tuple[str, ...]:
    """Read a UTF-8 log file; undecodable bytes are replaced, never fatal."""
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    # read_text has already turned "\r\n" and "\r" into "\n"; splitlines()
    # would also break at form feeds and other separators that no line
    # counter (editor, grep -n) treats as line ends.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return tuple(lines)


def log_files(directory) -> list[Path]:
    """The ``*.log`` files of a directory in log-id (file stem) order."""
    return sorted(Path(directory).glob("*.log"), key=lambda path: path.stem)


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
    with path.open(newline="", encoding="utf-8") as handle:
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
    treated as empty.
    """
    root = Path(root)
    passed_files = log_files(root / "passed") if (root / "passed").is_dir() else []
    failed_files = log_files(root / "failed") if (root / "failed").is_dir() else []

    labels: dict[str, int] = {}
    if failed_files or labels_path is not None:
        labels_file = Path(labels_path) if labels_path is not None else root / "labels.csv"
        if labels_file.exists() or failed_files:
            labels = load_labels(labels_file, taxonomy)

    failed_ids = [f.stem for f in failed_files]
    missing = sorted(set(failed_ids) - set(labels))
    orphaned = sorted(set(labels) - set(failed_ids))
    problems = []
    if missing:
        problems.append(f"failed logs without a label: {', '.join(missing)}")
    if orphaned:
        problems.append(f"labels without a log file: {', '.join(orphaned)}")
    if problems:
        raise ValidationError("; ".join(problems))

    passed = tuple(PassedLog(f.stem, read_log_lines(f)) for f in passed_files)
    failed = tuple(
        LabeledFailedLog(f.stem, read_log_lines(f), labels[f.stem]) for f in failed_files
    )
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
