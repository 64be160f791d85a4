"""Event-by-cause lookup table construction.

Four steps, run in this order by ``build``: diff the failed event pool
against the passed pool, count per-cause presence of each surviving
event, reweight rows (multi-problem rows normalize to sum 1;
single-problem counts map through 0 / 1.0 / log2(1 + c)), then scale each
column by the inverse class frequency N / N_j.  The resulting table is the
whole trained model besides the frozen template registry.  A table holds
only what it cannot derive: its rows, taxonomy and class sizes; ``n_total``,
``icf`` and each row's kind (``row_kind``) follow from them.

It is stored only as the ``ncc-table v1`` block of an ``ncc-model v1``
file (see ``model``).  ``table_lines`` writes that block and owns its
layout; ``table_from_lines`` reads the values it cannot derive and checks
every line against the line ``table_lines`` writes for them.  What a
table may hold is the ``ScoreTable`` constructor's to decide, so every
table it accepts saves to a block that reads back equal.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .abstraction import (
    AbstractionConfig,
    EventSequence,
    TemplateMiner,
    event_sort_key,
)
from .corpus import CauseTaxonomy, Corpus
from .errors import ValidationError

TABLE_HEADER = "ncc-table v1"

SINGLE = "single"
MULTI = "multi"
NONE = "none"


def collect_pools(
    passed_seqs: Iterable[EventSequence], failed_seqs: Iterable[EventSequence]
) -> tuple[frozenset[str], frozenset[str]]:
    """The event ids seen in the passed logs and in the failed logs."""
    passed: set[str] = set()
    for seq in passed_seqs:
        passed.update(seq.distinct_events())
    failed: set[str] = set()
    for seq in failed_seqs:
        failed.update(seq.distinct_events())
    return frozenset(passed), frozenset(failed)


def diff_with_pass(failed: frozenset[str], passed: frozenset[str]) -> frozenset[str]:
    """Failed-only vocabulary; events shared with passed logs cannot indicate a fault."""
    remaining = failed - passed
    if not remaining:
        raise ValidationError(
            "no discriminative events: every failed-log event also occurs in passed logs"
        )
    return remaining


@dataclass(frozen=True)
class CountTable:
    """Per-event presence counts by cause, plus training-set sizes."""

    rows: Mapping[str, tuple[int, ...]]
    n_per_cause: tuple[int, ...]


def init_counts(
    vocabulary: frozenset[str],
    labeled_seqs: Sequence[tuple[EventSequence, int]],
    k: int,
) -> CountTable:
    """Count, for each event, in how many failed logs of each cause it occurs.

    Presence counting: an event contributes at most 1 per log no matter how
    many lines repeat it.
    """
    rows = {eid: [0] * k for eid in sorted(vocabulary, key=event_sort_key)}
    n_per_cause = [0] * k
    for seq, cause in labeled_seqs:
        n_per_cause[cause] += 1
        for eid in seq.distinct_events():
            row = rows.get(eid)
            if row is not None:
                row[cause] += 1
    frozen_rows = {eid: tuple(row) for eid, row in rows.items()}
    return CountTable(frozen_rows, tuple(n_per_cause))


def _single_problem_weight(count: int) -> float:
    if count == 0:
        return 0.0
    if count == 1:
        return 1.0
    return math.log2(1 + count)


def reweight(row: Sequence[int]) -> list[float]:
    """Reweight one count row.

    Multi-problem rows (two or more nonzero cells) normalize to fractions
    of the row total; single-problem rows go through the piecewise map,
    whose branches agree at count 1 since log2(1 + 1) == 1.0.
    """
    kind = row_kind(row)
    if kind == NONE:
        raise ValidationError("cannot reweight an all-zero count row")
    if kind == MULTI:
        total = sum(row)
        return [c / total for c in row]
    return [_single_problem_weight(c) for c in row]


def compute_icf(n_total: int, n_per_cause: Sequence[int]) -> tuple[float, ...]:
    """Inverse class frequency N / N_j; causes with no training logs get 0."""
    return tuple(n_total / n if n else 0.0 for n in n_per_cause)


def majority_from_counts(n_per_cause: Sequence[int]) -> int:
    """The cause with the most training logs, lowest id on ties."""
    if not any(n_per_cause):
        raise ValidationError("majority class needs at least one training label")
    return max(range(len(n_per_cause)), key=lambda j: (n_per_cause[j], -j))


def row_kind(row: Sequence[float]) -> str:
    """``single``, ``multi`` or ``none``: how many cells of a count or score row are non-zero."""
    nonzero = len(row) - row.count(0)
    return MULTI if nonzero > 1 else SINGLE if nonzero else NONE


def _class_sizes(n_per_cause: Sequence[int], k: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """``n_per_cause`` as a tuple, and its icf; it must hold ``k`` int counts >= 0, not all zero."""
    counts = tuple(n_per_cause)
    if len(counts) != k or not all(type(n) is int and n >= 0 for n in counts) or not any(counts):
        raise ValidationError(f"n_per_cause must hold {k} int counts >= 0, not all zero")
    try:
        return counts, compute_icf(sum(counts), counts)
    except OverflowError:
        raise ValidationError("n_per_cause counts are too large for a float icf") from None


def _cells_ok(cells: Iterable[float]) -> bool:
    """Whether every cell is a float, finite and >= 0; nan fails ``0.0 <= v``."""
    return all(type(v) is float and 0.0 <= v < math.inf for v in cells)


@dataclass(frozen=True)
class ScoreTable:
    """Event score rows by cause, with the training class sizes.

    The constructor owns what a table may hold, so that every table saves
    to a file that loads: each distinct row object holds ``k`` floats, each
    finite and >= 0; no event id holds a tab or a line break (as
    ``str.splitlines`` sees one); ``n_per_cause`` holds ``k`` int counts
    >= 0, not all zero.  ``n_total`` and ``icf`` are computed once, from it.
    """

    rows: dict[str, tuple[float, ...]]
    taxonomy: CauseTaxonomy
    n_per_cause: tuple[int, ...]
    n_total: int = field(init=False)
    icf: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        k = self.taxonomy.k
        counts, icf = _class_sizes(self.n_per_cause, k)
        object.__setattr__(self, "n_per_cause", counts)
        object.__setattr__(self, "n_total", sum(counts))
        object.__setattr__(self, "icf", icf)
        distinct = {id(row): row for row in self.rows.values()}.values()  # as the writer keys them
        if {*map(len, distinct)} - {k} or not _cells_ok(chain.from_iterable(distinct)):
            eid = next(e for e, row in self.rows.items() if len(row) != k or not _cells_ok(row))
            raise ValidationError(
                f"row for event {eid!r}: cells must be {k} floats, each finite and >= 0"
            )
        ids = "".join(self.rows)  # holds a break if and only if some id does
        if "\t" in ids or "".join(ids.splitlines()) != ids:
            eid = next(e for e in self.rows if "\t" in e or "".join(e.splitlines()) != e)
            raise ValidationError(f"event id {eid!r} holds a tab or a line break")

    @property
    def k(self) -> int:
        return self.taxonomy.k

    @property
    def kinds(self) -> dict[str, str]:
        """Each row's ``row_kind``."""
        return {eid: row_kind(row) for eid, row in self.rows.items()}


def scores_from_counts(
    counts: CountTable, taxonomy: CauseTaxonomy, *, skip_reweight: bool = False
) -> ScoreTable:
    """Reweight every count row; with skip_reweight the raw counts pass through.

    Rows with equal counts share one score tuple, reweighted once.
    """
    rows: dict[str, tuple[float, ...]] = {}
    scored: dict[tuple[int, ...], tuple[float, ...]] = {}
    for eid, count_row in counts.rows.items():
        row = scored.get(count_row)
        if row is None:
            if skip_reweight:
                row = tuple(float(c) for c in count_row)
            else:
                row = tuple(reweight(count_row))
            scored[count_row] = row
        rows[eid] = row
    return ScoreTable(rows, taxonomy, counts.n_per_cause)


def apply_icf(table: ScoreTable) -> ScoreTable:
    """Multiply every cell of a reweighted table by its column's icf.

    A row object shared by several events is scaled once and stays shared.
    Sharing follows the object, not tuple equality: ``0.0 == -0.0``.
    """
    icf = table.icf
    scaled: dict[int, tuple[float, ...]] = {}
    rows: dict[str, tuple[float, ...]] = {}
    for eid, row in table.rows.items():
        new = scaled.get(id(row))
        if new is None:
            new = scaled[id(row)] = tuple(value * icf[j] for j, value in enumerate(row))
        rows[eid] = new
    return replace(table, rows=rows)


ABLATION_VARIANTS = ("full", "drop1", "drop2", "drop3")


def build(
    train_corpus: Corpus, config: AbstractionConfig | None = None, variant: str = "full"
) -> tuple[TemplateMiner, ScoreTable]:
    """Run the whole construction pipeline over a training corpus.

    Mines templates over all passed then all failed logs, in the corpus's
    log-id order, freezes the miner, and builds the score table.
    ``variant`` names one of ``ABLATION_VARIANTS`` (case-insensitive):
    ``full`` runs every step, ``drop1`` keeps events shared with passed
    logs, ``drop2`` passes raw counts to the icf scaling, and ``drop3``
    leaves out the icf scaling; everything else stays identical.
    """
    name = variant.lower()
    if name not in ABLATION_VARIANTS:
        raise ValidationError(
            f"unknown ablation variant {variant!r}; choose from {', '.join(ABLATION_VARIANTS)}"
        )
    if not train_corpus.failed:
        raise ValidationError("training corpus has no failed logs; nothing to learn from")
    miner = TemplateMiner(config)
    passed_seqs = miner.parse_logs((log.lines, log.log_id) for log in train_corpus.passed)
    failed_seqs = miner.parse_logs((log.lines, log.log_id) for log in train_corpus.failed)
    labeled_seqs = [(seq, log.cause) for seq, log in zip(failed_seqs, train_corpus.failed)]
    miner.freeze()

    passed_pool, failed_pool = collect_pools(passed_seqs, (seq for seq, _ in labeled_seqs))
    if name == "drop1":
        vocabulary = failed_pool
        if not vocabulary:
            raise ValidationError("failed logs produced no events")
    else:
        vocabulary = diff_with_pass(failed_pool, passed_pool)

    counts = init_counts(vocabulary, labeled_seqs, train_corpus.taxonomy.k)
    reweighted = scores_from_counts(
        counts, train_corpus.taxonomy, skip_reweight=name == "drop2"
    )
    table = reweighted if name == "drop3" else apply_icf(reweighted)
    return miner, table


# -- persistence -------------------------------------------------------


def _head_lines(
    taxonomy: CauseTaxonomy, n_per_cause: tuple[int, ...], icf: tuple[float, ...], n_rows: int
) -> list[str]:
    """The block's lines from its header through ``rows``.

    The ``stage`` and ``registry`` lines are fixed: they keep the block's
    layout of ``ncc-table v1``.
    """
    lines = [TABLE_HEADER, f"k\t{taxonomy.k}"]
    lines.extend(f"cause\t{j}\t{name}" for j, name in enumerate(taxonomy.names))
    lines.append(f"n_total\t{sum(n_per_cause)}")
    lines.append("n_per_cause\t" + "\t".join(map(str, n_per_cause)))
    lines.append("icf\t" + "\t".join(map(repr, icf)))
    lines.extend(("stage\tfinal", "registry\t-", f"rows\t{n_rows}"))
    return lines


def _row_text(row: tuple[float, ...]) -> str:
    """A row line after its event id: the cells by ``repr``, then the kind."""
    return "\t".join(map(repr, row)) + "\t" + row_kind(row)


def table_lines(table: ScoreTable) -> list[str]:
    """The ``ncc-table v1`` block as lines; float cells use repr and round-trip exactly.

    Each distinct row object is formatted once; the key is the object,
    since equal rows can differ in ``repr`` (``0.0 == -0.0``).
    """
    lines = _head_lines(table.taxonomy, table.n_per_cause, table.icf, len(table.rows))
    formatted: dict[int, str] = {}
    for eid, row in table.rows.items():
        text = formatted.get(id(row))
        if text is None:
            text = formatted[id(row)] = _row_text(row)
        lines.append(f"{eid}\t{text}")
    return lines


def table_from_text(text: str) -> ScoreTable:
    """Read an ``ncc-table v1`` block (see ``table_from_lines``)."""
    return table_from_lines(text.splitlines())


_BAD_CELLS = "cells must be finite and >= 0"


def table_from_lines(lines: Sequence[str], first_line: int = 1) -> ScoreTable:
    """Read the lines of an ``ncc-table v1`` block whose header is file line ``first_line``.

    Only ``k``, the cause names, ``n_per_cause`` and the cells are read;
    every line must then be the one ``table_lines`` writes for them, with
    ``rows`` counting the lines after the head.  The head's values are
    checked by the rules ``ScoreTable`` runs, where their lines are read;
    the cells are checked once, by the ``ScoreTable`` built last, and a
    row it rejects is named by its first line.  So a message names a
    line, and a file with several faults reports its first fault other
    than a bad cell in a row written as the writer would write it.  Rows
    with the same text after the event id are parsed once and share one
    tuple.
    """
    rows: dict[str, tuple[float, ...]] = {}
    at = 0  # index of the line being read
    try:
        if lines[0] != TABLE_HEADER:
            raise ValidationError(f"expected header {TABLE_HEADER!r}, found {lines[0]!r}")
        at = 1
        k = max(0, int(lines[1].partition("\t")[2]))  # no negative index below
        taxonomy = CauseTaxonomy(tuple(line.split("\t", 2)[-1] for line in lines[2 : 2 + k]))
        at = 3 + k
        counts, icf = _class_sizes(tuple(map(int, lines[at].split("\t")[1:])), k)
        head = _head_lines(taxonomy, counts, icf, len(lines) - 8 - k)
        for at, want in enumerate(head):
            if lines[at] != want:
                raise ValidationError(f"expected {want!r}, found {lines[at]!r}")
        parsed: dict[str, tuple[float, ...]] = {}
        for at in range(len(head), len(lines)):
            eid, _, text = lines[at].partition("\t")
            row = parsed.get(text)
            if row is None:
                row = tuple(map(float, text.split("\t", k)[:k]))
                if _row_text(row) != text:
                    if not _cells_ok(row):
                        raise ValidationError(_BAD_CELLS)
                    want = f"{eid}\t{_row_text(row)}"
                    raise ValidationError(f"expected {want!r}, found {lines[at]!r}")
                parsed[text] = row
            if eid in rows:
                raise ValidationError(f"duplicate row for event {eid!r}")
            rows[eid] = row
    except IndexError:
        raise ValidationError(f"table line {first_line + at}: missing, block truncated") from None
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"table line {first_line + at}: {exc}") from None
    try:
        return ScoreTable(rows, taxonomy, counts)
    except ValidationError:
        # Each row read holds k cells and no id holds a tab or a line break,
        # so the constructor can only have rejected some row's cells.
        at = next(at for at, row in enumerate(rows.values(), len(head)) if not _cells_ok(row))
        raise ValidationError(f"table line {first_line + at}: {_BAD_CELLS}") from None
