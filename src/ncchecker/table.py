"""Event-by-cause lookup table construction.

Training reduces each log to the set of its distinct events: the table
counts presence, so a log adds at most 1 to an event however many of its
lines the event matches.  ``build`` counts as the logs are parsed, then
selects, reweights and applies the icf: each passed log's set joins the
passed pool and each failed log's set is added to its cause's counts as
the miner yields it, so the per-cause counts are training's one result
and no set is held; select keeps the rows of the events no passed log
holds; reweight maps each row (multi-problem rows normalize to sum 1;
single-problem counts map through 0 / 1.0 / log2(1 + c)); icf scales
each column by the inverse class frequency N / N_j.  ``ablation_tables``
mines and counts the corpus once and builds ``build``'s table and the
three tables that each leave out one step (the paper's ablations drop1,
drop2 and drop3), all over the same miner.  The counts are the whole
trained table: a ``ScoreTable`` is built from them, the class sizes and
which of the last two steps apply, and derives ``icf`` and its score rows
once, at construction, through the same ``reweight`` and icf product for
every table, built or loaded.

It is stored only as the ``ncc-table v2`` block of an ``ncc-model v3``
file (see ``model``).  ``table_lines`` writes that block and owns its
layout; ``table_from_lines`` reads the values it cannot derive and checks
every line against the line ``table_lines`` writes for them.  What a
table may hold is the ``ScoreTable`` constructor's to decide, so every
table it accepts saves to a block that reads back equal.
"""

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import AbstractSet, Iterable, Mapping, Sequence

from .abstraction import (
    AbstractionConfig,
    EventSequence,
    TemplateMiner,
    event_sort_key,
)
from .corpus import CauseTaxonomy, Corpus
from .errors import ValidationError

TABLE_HEADER = "ncc-table v2"

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


def diff_with_pass(failed: frozenset[str], passed: AbstractSet[str]) -> frozenset[str]:
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


def _tally(
    labeled_events: Iterable[tuple[AbstractSet[str], int]], k: int
) -> tuple[list[Counter[str]], tuple[int, ...]]:
    """The one counting loop: add each set to its cause's presence counts as it comes.

    Each failed log comes as the set of its event ids and its cause, and is
    counted before the next is pulled, so no set is held.  Returns a
    ``Counter`` of event ids per cause and the logs counted per cause.
    """
    per_cause: list[Counter[str]] = [Counter() for _ in range(k)]
    n_per_cause = [0] * k
    for events, cause in labeled_events:
        n_per_cause[cause] += 1
        per_cause[cause].update(events)
    return per_cause, tuple(n_per_cause)


def _count_table(per_cause: Sequence[Counter[str]], n_per_cause: tuple[int, ...]) -> CountTable:
    """The ``CountTable`` of a ``_tally``: a row per counted event, in ``event_sort_key`` order.

    Events with equal counts share one row tuple, so a ``ScoreTable``
    checks and scores it once.
    """
    gets = [counter.get for counter in per_cause]
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    rows = {}
    for eid in sorted(frozenset().union(*per_cause), key=event_sort_key):
        counts = tuple([get(eid, 0) for get in gets])
        rows[eid] = shared.setdefault(counts, counts)
    return CountTable(rows, n_per_cause)


def init_counts(
    vocabulary: frozenset[str],
    labeled_events: Iterable[tuple[Iterable[str], int]],
    k: int,
) -> CountTable:
    """Count, for each event, in how many failed logs of each cause it occurs.

    Each failed log comes as its event ids and its cause: a set of ids, or
    any iterable of them, such as an ``EventSequence``.  Presence counting:
    an event contributes at most 1 per log no matter how many times the
    log holds it, and ids outside ``vocabulary`` are not counted.  Each
    log's ids in ``vocabulary`` are counted through ``_tally``, so an id
    of ``vocabulary`` that no log holds gets no row: its row would be all
    zero, which no ``ScoreTable`` accepts.
    """
    in_vocabulary = ((vocabulary.intersection(events), cause) for events, cause in labeled_events)
    return _count_table(*_tally(in_vocabulary, k))


def reweight(row: Sequence[int]) -> list[float]:
    """Reweight one count row.

    Multi-problem rows (two or more nonzero cells) normalize to fractions
    of the row total; single-problem rows map a count through 0 / 1.0 /
    log2(1 + c), whose last two branches agree at count 1 since
    log2(1 + 1) == 1.0.
    """
    kind = row_kind(row)
    if kind == NONE:
        raise ValidationError("cannot reweight an all-zero count row")
    if kind == MULTI:
        total = sum(row)
        return [c / total for c in row]
    return [math.log2(1 + c) if c > 1 else float(c) for c in row]


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
        float(sum(counts))  # so is every count cell, which is at most its class size
        return counts, compute_icf(sum(counts), counts)
    except OverflowError:
        raise ValidationError("n_per_cause counts are too large for a float icf") from None


def _counts_ok(row: tuple[int, ...], n_per_cause: tuple[int, ...]) -> bool:
    """Whether ``row`` is a tuple of an int count per cause, each at most its class, not all 0."""
    return (
        type(row) is tuple
        and len(row) == len(n_per_cause)
        and all(type(c) is int and 0 <= c <= n for c, n in zip(row, n_per_cause))
        and any(row)
    )


@dataclass(frozen=True)
class ScoreTable:
    """Event count rows by cause, the training class sizes, and the scores they give.

    It is given only what it cannot derive: ``counts``, in how many failed
    logs of each cause an event occurs; the taxonomy; ``n_per_cause``; and
    which of ``build``'s two scoring steps to skip.  ``icf`` and the score
    ``rows`` are computed once, here.  Each distinct count row is scored
    once: ``reweight``, or with ``skip_reweight`` its counts as floats,
    then each cell times its column's icf unless ``skip_icf``.  Events
    with equal counts share that score tuple.

    The constructor owns what a table may hold, so that every table saves
    to a file that loads: ``n_per_cause`` holds ``k`` int counts >= 0, not
    all zero; each count row is a tuple of ``k`` ints, the ``j``-th from 0
    to ``n_per_cause[j]``, not all 0; no event id holds a tab or a line
    break (as ``str.splitlines`` sees one).
    """

    counts: dict[str, tuple[int, ...]]
    taxonomy: CauseTaxonomy
    n_per_cause: tuple[int, ...]
    skip_reweight: bool = False
    skip_icf: bool = False
    icf: tuple[float, ...] = field(init=False)
    rows: dict[str, tuple[float, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        k = self.taxonomy.k
        n_per_cause, icf = _class_sizes(self.n_per_cause, k)
        object.__setattr__(self, "n_per_cause", n_per_cause)
        object.__setattr__(self, "icf", icf)
        # Every row object is checked, once: by object and not by value, since
        # (True,) == (1,) but only one of them is counts.  Then each distinct
        # value is scored once.
        values = self.counts.values()
        objects = dict(zip(map(id, values), values)).values()
        for counts in objects:
            if not _counts_ok(counts, n_per_cause):
                eid = next(e for e, row in self.counts.items() if row is counts)
                raise ValidationError(
                    f"row for event {eid!r}: counts must be a tuple of {k} ints, "
                    "each from 0 to its cause's n_per_cause, not all 0"
                )
        scored: dict[tuple[int, ...], tuple[float, ...]] = dict.fromkeys(objects)
        for counts in scored:
            row = [float(c) for c in counts] if self.skip_reweight else reweight(counts)
            if not self.skip_icf:
                row = [v * w for v, w in zip(row, icf)]
            scored[counts] = tuple(row)
        rows = dict(zip(self.counts, map(scored.__getitem__, values)))
        object.__setattr__(self, "rows", rows)
        ids = "".join(rows)  # holds a break if and only if some id does
        if "\t" in ids or "".join(ids.splitlines()) != ids:
            eid = next(e for e in rows if "\t" in e or "".join(e.splitlines()) != e)
            raise ValidationError(f"event id {eid!r} holds a tab or a line break")

    @property
    def k(self) -> int:
        return self.taxonomy.k

    @property
    def kinds(self) -> dict[str, str]:
        """Each row's ``row_kind``."""
        return {eid: row_kind(counts) for eid, counts in self.counts.items()}


def scores_from_counts(
    counts: CountTable, taxonomy: CauseTaxonomy, *, skip_reweight: bool = False
) -> ScoreTable:
    """The table of ``counts`` before the icf step; with skip_reweight, also before the reweight."""
    return ScoreTable(
        counts.rows, taxonomy, counts.n_per_cause, skip_reweight=skip_reweight, skip_icf=True
    )


def apply_icf(table: ScoreTable) -> ScoreTable:
    """``table`` with the icf step: each score cell times its column's icf."""
    return replace(table, skip_icf=False)


ABLATION_VARIANTS = ("full", "drop1", "drop2", "drop3")


def _mine(
    train_corpus: Corpus, config: AbstractionConfig | None
) -> tuple[TemplateMiner, ScoreTable, CountTable]:
    """Mine templates over the corpus, freeze the miner and count the failed logs' events.

    The miner parses all passed then all failed logs, in the corpus's
    log-id order, each from its text to the set of its distinct events
    (``event_sets``);
    no per-line event is kept, and each set is used before the next log is
    pulled: a passed log's set joins the passed pool, and a failed log's
    whole set is counted by its cause (``_tally``).  The miner is frozen,
    which drops its training memo, before the count rows are built.
    Returns the frozen miner, ``build``'s table and the counts of every
    failed-log event; the table holds the rows of the events no passed log
    holds.
    """
    passed, failed, taxonomy = train_corpus.passed, train_corpus.failed, train_corpus.taxonomy
    if not failed:
        raise ValidationError("training corpus has no failed logs; nothing to learn from")
    miner = TemplateMiner(config)
    event_sets = miner.event_sets(log.text for log in chain(passed, failed))
    passed_pool: set[str] = set()
    for events in islice(event_sets, len(passed)):
        passed_pool |= events
    tally = _tally(zip(event_sets, (log.cause for log in failed)), taxonomy.k)
    miner.freeze()
    counts = _count_table(*tally)

    vocabulary = diff_with_pass(frozenset(counts.rows), passed_pool)
    rows = {eid: row for eid, row in counts.rows.items() if eid in vocabulary}
    return miner, ScoreTable(rows, taxonomy, counts.n_per_cause), counts


def build(
    train_corpus: Corpus, config: AbstractionConfig | None = None
) -> tuple[TemplateMiner, ScoreTable]:
    """Run the whole construction pipeline over a training corpus.

    Mines templates over all passed then all failed logs, in the corpus's
    log-id order, counting each failed log's set of events as it is
    parsed, freezes the miner, and builds the score table from the rows of
    the events no passed log holds.  No log's set is held past its count.
    """
    return _mine(train_corpus, config)[:2]


def ablation_tables(
    train_corpus: Corpus, config: AbstractionConfig | None = None
) -> tuple[TemplateMiner, dict[str, ScoreTable]]:
    """The frozen miner and a table per name in ``ABLATION_VARIANTS``, from one count.

    The ablations change only the table's steps, never the abstraction,
    so the corpus is mined and counted once, as ``build`` mines and counts
    it.  ``full`` is ``build``'s table; ``drop1`` keeps every counted row,
    the events shared with passed logs too; ``drop2`` passes raw counts to
    the icf scaling; ``drop3`` leaves out the icf scaling.
    """
    miner, full, counts = _mine(train_corpus, config)
    return miner, {
        "full": full,
        "drop1": ScoreTable(counts.rows, full.taxonomy, counts.n_per_cause),
        "drop2": replace(full, skip_reweight=True),
        "drop3": replace(full, skip_icf=True),
    }


# -- persistence -------------------------------------------------------


def _head_lines(
    taxonomy: CauseTaxonomy, n_per_cause: tuple[int, ...], skip_reweight: bool, skip_icf: bool
) -> list[str]:
    """The block's lines from its header through ``steps``.

    ``steps`` names the scoring steps that apply, ``reweight,icf``, ``icf``
    or ``reweight``, or is ``none``.
    """
    lines = [TABLE_HEADER, f"k\t{taxonomy.k}"]
    lines.extend(f"cause\t{j}\t{name}" for j, name in enumerate(taxonomy.names))
    lines.append("n_per_cause\t" + "\t".join(map(str, n_per_cause)))
    steps = [step for step, skip in (("reweight", skip_reweight), ("icf", skip_icf)) if not skip]
    lines.append("steps\t" + (",".join(steps) or "none"))
    return lines


def table_lines(table: ScoreTable) -> list[str]:
    """The ``ncc-table v2`` block as lines: the head, then each event's counts.

    A count row is ``id<TAB>c1<TAB>...<TAB>ck``, each count as ``str``
    writes it; equal rows are formatted once.
    """
    lines = _head_lines(table.taxonomy, table.n_per_cause, table.skip_reweight, table.skip_icf)
    formatted: dict[tuple[int, ...], str] = {}
    for eid, counts in table.counts.items():
        text = formatted.get(counts)
        if text is None:
            text = formatted[counts] = "\t".join(map(str, counts))
        lines.append(f"{eid}\t{text}")
    return lines


def table_from_text(text: str) -> ScoreTable:
    """Read an ``ncc-table v2`` block (see ``table_from_lines``)."""
    return table_from_lines(text.splitlines())


def table_from_lines(lines: Sequence[str], first_line: int = 1) -> ScoreTable:
    """Read the lines of an ``ncc-table v2`` block whose header is file line ``first_line``.

    Only ``k``, the cause names, ``n_per_cause``, the steps and the counts
    are read; every line must then be the one ``table_lines`` writes for
    them, and each line after the head is a count row.  ``n_per_cause`` is
    checked by the rules ``ScoreTable`` runs where its line is read; the
    counts are checked by the ``ScoreTable`` built last, and a row it
    rejects is named by its first line.  So a message names a line, and a
    file with several faults reports its first fault other than a count
    out of range in a row written as the writer would write it.  Rows with
    the same text after the event id are parsed once and share one tuple.
    """
    counts: dict[str, tuple[int, ...]] = {}
    at = 0  # index of the line being read
    try:
        if lines[0] != TABLE_HEADER:
            raise ValidationError(f"expected header {TABLE_HEADER!r}, found {lines[0]!r}")
        at = 1
        k = max(0, int(lines[1].partition("\t")[2]))  # no negative index below
        taxonomy = CauseTaxonomy(tuple(line.split("\t", 2)[-1] for line in lines[2 : 2 + k]))
        at = 2 + k
        n_per_cause, _ = _class_sizes(tuple(map(int, lines[at].split("\t")[1:])), k)
        at = 3 + k
        steps = lines[at].partition("\t")[2].split(",")
        skips = ("reweight" not in steps, "icf" not in steps)
        head = _head_lines(taxonomy, n_per_cause, *skips)
        for at, want in enumerate(head):
            if lines[at] != want:
                raise ValidationError(f"expected {want!r}, found {lines[at]!r}")
        parsed: dict[str, tuple[int, ...]] = {}
        for at in range(len(head), len(lines)):
            eid, _, text = lines[at].partition("\t")
            row = parsed.get(text)
            if row is None:
                row = tuple(map(int, text.split("\t")))
                if "\t".join(map(str, row)) != text:
                    want = f"{eid}\t" + "\t".join(map(str, row))
                    raise ValidationError(f"expected {want!r}, found {lines[at]!r}")
                parsed[text] = row
            if eid in counts:
                raise ValidationError(f"duplicate row for event {eid!r}")
            counts[eid] = row
    except IndexError:
        raise ValidationError(f"table line {first_line + at}: missing, block truncated") from None
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"table line {first_line + at}: {exc}") from None
    try:
        return ScoreTable(counts, taxonomy, n_per_cause, *skips)
    except ValidationError as exc:
        # Each row read is a tuple of ints and no id holds a tab or a line
        # break, so the constructor can only have rejected some row's counts.
        rows = enumerate(counts.values(), first_line + len(head))
        at = next(at for at, row in rows if not _counts_ok(row, n_per_cause))
        raise ValidationError(f"table line {at}: {exc}") from None
