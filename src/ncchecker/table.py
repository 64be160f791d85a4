"""Event-by-cause lookup table construction.

Four steps, run in this order by ``build``: diff the failed event pool
against the passed pool, count per-cause presence of each surviving
event, reweight rows (multi-problem rows normalize to sum 1;
single-problem counts map through 0 / 1.0 / log2(1 + c)), then scale each
column by the inverse class frequency N / N_j.  The resulting table is the
whole trained model besides the frozen template registry.  It is stored
only as the ``ncc-table v1`` block of an ``ncc-model v1`` file (see
``model``); ``table_lines`` and ``table_from_lines`` write and read that
block's lines, and ``table_to_text`` and ``table_from_text`` its text.
"""

import math
from dataclasses import dataclass, replace
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
# What a saved row of each kind must hold, as the loader says it.
_KIND_NEEDS = {SINGLE: "exactly one non-zero cell", MULTI: "two or more non-zero cells"}


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
    n_total: int
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
    return CountTable(frozen_rows, sum(n_per_cause), tuple(n_per_cause))


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
    nonzero = sum(1 for c in row if c)
    if nonzero == 0:
        raise ValidationError("cannot reweight an all-zero count row")
    if nonzero >= 2:
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


def row_kind(count_row: Sequence[int]) -> str:
    return SINGLE if sum(1 for c in count_row if c) == 1 else MULTI


@dataclass(frozen=True)
class ScoreTable:
    """Event score rows by cause, with the training class sizes and icf."""

    rows: dict[str, tuple[float, ...]]
    kinds: dict[str, str]
    icf: tuple[float, ...]
    taxonomy: CauseTaxonomy
    n_total: int
    n_per_cause: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.taxonomy.k

    def __contains__(self, event_id: str) -> bool:
        return event_id in self.rows


def scores_from_counts(
    counts: CountTable, taxonomy: CauseTaxonomy, *, skip_reweight: bool = False
) -> ScoreTable:
    """Reweight every count row; with skip_reweight the raw counts pass through.

    Rows with equal counts share one score tuple, reweighted once.
    """
    if len(counts.n_per_cause) != taxonomy.k:
        raise ValidationError("count table and taxonomy disagree on the number of causes")
    rows: dict[str, tuple[float, ...]] = {}
    kinds: dict[str, str] = {}
    scored: dict[tuple[int, ...], tuple[tuple[float, ...], str]] = {}
    for eid, count_row in counts.rows.items():
        entry = scored.get(count_row)
        if entry is None:
            if skip_reweight:
                row = tuple(float(c) for c in count_row)
            else:
                row = tuple(reweight(count_row))
            entry = scored[count_row] = (row, row_kind(count_row))
        rows[eid], kinds[eid] = entry
    return ScoreTable(
        rows=rows,
        kinds=kinds,
        icf=compute_icf(counts.n_total, counts.n_per_cause),
        taxonomy=taxonomy,
        n_total=counts.n_total,
        n_per_cause=counts.n_per_cause,
    )


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
    passed_seqs = [miner.parse_log(log.lines, log.log_id) for log in train_corpus.passed]
    labeled_seqs = [
        (miner.parse_log(log.lines, log.log_id), log.cause) for log in train_corpus.failed
    ]
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


def table_lines(table: ScoreTable) -> list[str]:
    """The ``ncc-table v1`` block as lines; float cells use repr and round-trip exactly.

    The ``stage`` and ``registry`` lines are fixed: they keep the block's
    layout of ``ncc-table v1``.  Each distinct row object is formatted
    once; the key is the object, since equal rows can differ in ``repr``
    (``0.0 == -0.0``).
    """
    lines = [TABLE_HEADER, f"k\t{table.k}"]
    lines.extend(f"cause\t{j}\t{table.taxonomy.names[j]}" for j in range(table.k))
    lines.append(f"n_total\t{table.n_total}")
    lines.append("n_per_cause\t" + "\t".join(str(n) for n in table.n_per_cause))
    lines.append("icf\t" + "\t".join(repr(v) for v in table.icf))
    lines.append("stage\tfinal")
    lines.append("registry\t-")
    lines.append(f"rows\t{len(table.rows)}")
    kinds = table.kinds
    formatted: dict[int, str] = {}
    for eid, row in table.rows.items():
        cells = formatted.get(id(row))
        if cells is None:
            cells = formatted[id(row)] = "\t".join(map(repr, row))
        lines.append(f"{eid}\t{cells}\t{kinds[eid]}")
    return lines


def table_to_text(table: ScoreTable) -> str:
    """Serialize a table as its ``ncc-table v1`` block (see ``table_lines``)."""
    return "\n".join(table_lines(table)) + "\n"


def _expect_field(parts: list[str], name: str, lineno: int) -> list[str]:
    if not parts or parts[0] != name:
        found = parts[0] if parts else "<empty>"
        raise ValidationError(f"table line {lineno}: expected field {name!r}, found {found!r}")
    return parts[1:]


def _read_cells(cells_text: str, lineno: int) -> tuple[tuple[float, ...], str | None]:
    """One row's validated cells, and the kind their non-zero cells make (None for none)."""
    row = tuple(map(float, cells_text.split("\t")))
    if not all(map(math.isfinite, row)):
        raise ValidationError(f"table line {lineno}: cells must be finite")
    if any(v < 0 for v in row):
        raise ValidationError(f"table line {lineno}: cells must be >= 0")
    nonzero = sum(1 for v in row if v)
    if nonzero == 0:
        return row, None
    return row, SINGLE if nonzero == 1 else MULTI


def table_from_text(text: str) -> ScoreTable:
    """Read an ``ncc-table v1`` block (see ``table_from_lines``)."""
    return table_from_lines(text.splitlines())


def table_from_lines(lines: Sequence[str]) -> ScoreTable:
    """Read the lines of an ``ncc-table v1`` block; messages number them from 1.

    Besides the layout, the block must be what ``build`` writes:
    ``n_total`` is the sum of ``n_per_cause``, ``icf`` equals
    ``compute_icf`` of the two exactly, no value is negative or
    non-finite, a ``single`` row has one non-zero cell and a ``multi`` row
    at least two, and exactly ``rows`` row lines end the block.  Rows with
    the same cells text are parsed and checked once and share one tuple.
    """
    if not lines or lines[0] != TABLE_HEADER:
        found = lines[0] if lines else "<empty>"
        raise ValidationError(f"table header: expected {TABLE_HEADER!r}, found {found!r}")
    try:
        cursor = 1

        def next_parts():
            nonlocal cursor
            if cursor >= len(lines):
                raise ValidationError("table file truncated")
            parts = lines[cursor].split("\t")
            cursor += 1
            return parts, cursor

        parts, at = next_parts()
        k = int(_expect_field(parts, "k", at)[0])
        names = []
        for j in range(k):
            parts, at = next_parts()
            values = _expect_field(parts, "cause", at)
            if int(values[0]) != j:
                raise ValidationError(f"table line {at}: cause ids must be ordered 0..{k - 1}")
            names.append(values[1])
        parts, at = next_parts()
        n_total = int(_expect_field(parts, "n_total", at)[0])
        parts, at = next_parts()
        n_per_cause = tuple(int(v) for v in _expect_field(parts, "n_per_cause", at))
        parts, at = next_parts()
        icf = tuple(float(v) for v in _expect_field(parts, "icf", at))
        parts, at = next_parts()
        stage = _expect_field(parts, "stage", at)[0]
        if stage != "final":
            raise ValidationError(f"table field 'stage': expected 'final', got {stage!r}")
        parts, at = next_parts()
        _expect_field(parts, "registry", at)
        parts, at = next_parts()
        n_rows = int(_expect_field(parts, "rows", at)[0])
        if n_rows < 0:
            raise ValidationError(f"table line {at}: bad row count {n_rows}")

        if len(n_per_cause) != k or len(icf) != k:
            raise ValidationError("table fields 'n_per_cause'/'icf' must have k entries")
        if not all(map(math.isfinite, icf)):
            raise ValidationError("table field 'icf': values must be finite")
        if any(n < 0 for n in n_per_cause) or not any(n_per_cause):
            raise ValidationError(
                "table field 'n_per_cause': counts must be >= 0 and not all zero"
            )
        if n_total != sum(n_per_cause):
            raise ValidationError(
                f"table field 'n_total': {n_total} is not the sum of 'n_per_cause'"
            )
        if icf != compute_icf(n_total, n_per_cause):
            raise ValidationError("table field 'icf': values must be n_total / n_per_cause")

        rows: dict[str, tuple[float, ...]] = {}
        kinds: dict[str, str] = {}
        # Cells text (between the event id and the kind) -> its row and kind.
        parsed: dict[str, tuple[tuple[float, ...], str | None]] = {}
        for at, line in enumerate(lines[cursor : cursor + n_rows], start=cursor + 1):
            if line.count("\t") != k + 1:
                raise ValidationError(f"table line {at}: expected {k + 2} fields per row")
            eid, _, rest = line.partition("\t")
            cells_text, _, kind = rest.rpartition("\t")
            if kind not in _KIND_NEEDS:
                raise ValidationError(f"table line {at}: row kind must be single or multi")
            if eid in rows:
                raise ValidationError(f"table line {at}: duplicate row for event {eid!r}")
            entry = parsed.get(cells_text)
            if entry is None:
                entry = parsed[cells_text] = _read_cells(cells_text, at)
            row, made = entry
            if kind != made:
                raise ValidationError(f"table line {at}: a {kind} row needs {_KIND_NEEDS[kind]}")
            rows[eid] = row
            kinds[eid] = made
        end = cursor + n_rows
        if end > len(lines):
            raise ValidationError("table file truncated")
        if end < len(lines):
            raise ValidationError(
                f"table line {end + 1}: more lines than the {n_rows} rows of line {cursor}"
            )
    except (ValueError, IndexError, OverflowError) as exc:  # overflow: n_total / n_j
        raise ValidationError(f"corrupt table file: {exc}") from None

    return ScoreTable(
        rows=rows,
        kinds=kinds,
        icf=icf,
        taxonomy=CauseTaxonomy(tuple(names)),
        n_total=n_total,
        n_per_cause=n_per_cause,
    )
