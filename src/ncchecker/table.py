"""Event-by-cause lookup table construction.

Four steps, run in this order by ``build``: diff the failed event pool
against the passed pool, count per-cause presence of each surviving
event, reweight rows (multi-problem rows normalize to sum 1;
single-problem counts map through 0 / 1.0 / log2(1 + c)), then scale each
column by the inverse class frequency N / N_j.  The resulting table is the
whole trained model besides the frozen template registry.  It is stored
only as the ``ncc-table v1`` block of an ``ncc-model v1`` file (see
``model``); ``table_to_text`` and ``table_from_text`` write and read that
block.
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
    """Reweight every count row; with skip_reweight the raw counts pass through."""
    if len(counts.n_per_cause) != taxonomy.k:
        raise ValidationError("count table and taxonomy disagree on the number of causes")
    rows: dict[str, tuple[float, ...]] = {}
    kinds: dict[str, str] = {}
    for eid, count_row in counts.rows.items():
        kinds[eid] = row_kind(count_row)
        if skip_reweight:
            rows[eid] = tuple(float(c) for c in count_row)
        else:
            rows[eid] = tuple(reweight(count_row))
    return ScoreTable(
        rows=rows,
        kinds=kinds,
        icf=compute_icf(counts.n_total, counts.n_per_cause),
        taxonomy=taxonomy,
        n_total=counts.n_total,
        n_per_cause=counts.n_per_cause,
    )


def apply_icf(table: ScoreTable) -> ScoreTable:
    """Multiply every cell of a reweighted table by its column's icf."""
    rows = {
        eid: tuple(value * table.icf[j] for j, value in enumerate(row))
        for eid, row in table.rows.items()
    }
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


def table_to_text(table: ScoreTable) -> str:
    """Serialize a table; float cells use repr and round-trip exactly.

    The ``stage`` and ``registry`` lines are fixed: they keep the block's
    layout of ``ncc-table v1``.
    """
    lines = [TABLE_HEADER, f"k\t{table.k}"]
    lines.extend(f"cause\t{j}\t{table.taxonomy.names[j]}" for j in range(table.k))
    lines.append(f"n_total\t{table.n_total}")
    lines.append("n_per_cause\t" + "\t".join(str(n) for n in table.n_per_cause))
    lines.append("icf\t" + "\t".join(repr(v) for v in table.icf))
    lines.append("stage\tfinal")
    lines.append("registry\t-")
    lines.append(f"rows\t{len(table.rows)}")
    for eid, row in table.rows.items():
        cells = "\t".join(repr(v) for v in row)
        lines.append(f"{eid}\t{cells}\t{table.kinds[eid]}")
    return "\n".join(lines) + "\n"


def _expect_field(parts: list[str], name: str, lineno: int) -> list[str]:
    if not parts or parts[0] != name:
        found = parts[0] if parts else "<empty>"
        raise ValidationError(f"table line {lineno}: expected field {name!r}, found {found!r}")
    return parts[1:]


def table_from_text(text: str) -> ScoreTable:
    lines = text.splitlines()
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

        if len(n_per_cause) != k or len(icf) != k:
            raise ValidationError("table fields 'n_per_cause'/'icf' must have k entries")
        if not all(map(math.isfinite, icf)):
            raise ValidationError("table field 'icf': values must be finite")
        if any(n < 0 for n in n_per_cause) or not any(n_per_cause):
            raise ValidationError(
                "table field 'n_per_cause': counts must be >= 0 and not all zero"
            )

        rows: dict[str, tuple[float, ...]] = {}
        kinds: dict[str, str] = {}
        for _ in range(n_rows):
            parts, at = next_parts()
            if len(parts) != k + 2:
                raise ValidationError(f"table line {at}: expected {k + 2} fields per row")
            eid, cells, kind = parts[0], parts[1:-1], parts[-1]
            if kind not in (SINGLE, MULTI):
                raise ValidationError(f"table line {at}: row kind must be single or multi")
            if eid in rows:
                raise ValidationError(f"table line {at}: duplicate row for event {eid!r}")
            row = tuple(map(float, cells))
            if not all(map(math.isfinite, row)):
                raise ValidationError(f"table line {at}: cells must be finite")
            rows[eid] = row
            kinds[eid] = kind
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"corrupt table file: {exc}") from None

    return ScoreTable(
        rows=rows,
        kinds=kinds,
        icf=icf,
        taxonomy=CauseTaxonomy(tuple(names)),
        n_total=n_total,
        n_per_cause=n_per_cause,
    )
