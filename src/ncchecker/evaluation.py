"""Per-class and macro precision/recall/F1, confusion matrices, ablations.

Zero-denominator cases yield 0 (a class never predicted has precision 0,
one with no true logs has recall 0), which keeps macro averages defined
on degenerate classifiers like the majority-class baseline.  Macro F1 is
the unweighted mean of the per-class F1 values, not the harmonic mean of
macro precision and recall.  Every float sum behind a report goes
through ``left_sum``, which adds left to right as ``sum()`` did up to
Python 3.11, so a report prints the same bytes on every Python version.

``score_tables`` parses a corpus's failed logs once, in the corpus's
log-id order, and scores each table it is given on them:
``table.ablation_tables``'s four for ``ablate``.  ``eval`` parses its
test logs itself, since ``lff`` reads the same sets, and scores the
trained model's table on them through ``score_event_sets``.
"""

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .abstraction import TemplateMiner
from .corpus import CauseTaxonomy, Corpus
from .errors import ValidationError
from .predictor import predict
from .table import ScoreTable


def left_sum(values: Iterable[float]) -> float:
    """The floats added left to right from 0.0, as ``sum()`` adds them up
    to Python 3.11; from 3.12 ``sum()`` compensates, and its last digit
    can differ."""
    total = 0.0
    for value in values:
        total += value
    return total


def confusion(
    truth: Sequence[int], predicted: Sequence[int], k: int
) -> tuple[tuple[int, ...], ...]:
    """The confusion matrix as ``k`` row tuples: ``counts[true][predicted]``."""
    if len(truth) != len(predicted):
        raise ValidationError(
            f"truth and prediction lengths differ: {len(truth)} vs {len(predicted)}"
        )
    counts = [[0] * k for _ in range(k)]
    for t, p in zip(truth, predicted):
        if not (0 <= t < k and 0 <= p < k):
            raise ValidationError(f"cause id out of range: true {t}, predicted {p}")
        counts[t][p] += 1
    return tuple(map(tuple, counts))


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


def per_class_metrics(counts: Sequence[Sequence[int]]) -> list[ClassMetrics]:
    """Each class's metrics from the confusion matrix ``counts[true][predicted]``."""
    metrics = []
    for j, row in enumerate(counts):
        tp = row[j]
        fp = sum(other[j] for other in counts) - tp
        fn = sum(row) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        metrics.append(ClassMetrics(precision, recall, f1))
    return metrics


@dataclass(frozen=True)
class MacroReport:
    class_names: tuple[str, ...]
    per_class: tuple[ClassMetrics, ...]
    precision: float
    recall: float
    f1: float
    support: tuple[int, ...]
    total: int


def macro(
    per_class: Sequence[ClassMetrics], class_names: Sequence[str], support: Sequence[int]
) -> MacroReport:
    """Unweighted means over all K classes, zero-support classes included."""
    k = len(per_class)
    if k < 2:
        raise ValidationError("macro averaging needs at least 2 classes")
    supports = tuple(support)
    return MacroReport(
        class_names=tuple(class_names),
        per_class=tuple(per_class),
        precision=left_sum(m.precision for m in per_class) / k,
        recall=left_sum(m.recall for m in per_class) / k,
        f1=left_sum(m.f1 for m in per_class) / k,
        support=supports,
        total=sum(supports),
    )


def evaluate(
    truth: Sequence[int], predicted: Sequence[int], taxonomy: CauseTaxonomy
) -> MacroReport:
    counts = confusion(truth, predicted, taxonomy.k)
    return macro(per_class_metrics(counts), taxonomy.names, tuple(map(sum, counts)))


def score_tables(
    miner: TemplateMiner, tables: Mapping[str, ScoreTable], corpus: Corpus
) -> dict[str, MacroReport]:
    """Predict the corpus's failed logs with each table, and score each table's predictions.

    The logs are parsed once, in the corpus's log-id order, through the
    frozen miner's ``event_sets``, and each log's set is predicted with
    every table (``predict``).  The reports keep the order of ``tables``.
    """
    if not miner.frozen:
        raise ValidationError("prediction requires a frozen miner")
    return score_event_sets(tables, miner.event_sets(log.text for log in corpus.failed), corpus)


def score_event_sets(
    tables: Mapping[str, ScoreTable], event_sets: Iterable[frozenset[str]], corpus: Corpus
) -> dict[str, MacroReport]:
    """``score_tables`` from the frozen miner's event sets of the corpus's failed logs.

    The sets come in the corpus's log-id order, one per failed log.
    """
    predicted: dict[str, list[int]] = {name: [] for name in tables}
    for events in event_sets:
        for name, table in tables.items():
            predicted[name].append(predict(table, events).cause)
    truth = [log.cause for log in corpus.failed]
    return {name: evaluate(truth, causes, corpus.taxonomy) for name, causes in predicted.items()}


# -- ablation variants ---------------------------------------------------


def ablation_identities(
    full: ScoreTable, drop1: ScoreTable, drop3: ScoreTable
) -> list[str]:
    """Check the structural identities between ablation tables, exactly.

    The drop1 table must cover a superset of the full table's events, and
    the full table must equal the drop3 table with each column multiplied
    by its icf, cell for cell.  Returns human-readable confirmations.
    """
    if not set(drop1.rows) >= set(full.rows):
        missing = sorted(set(full.rows) - set(drop1.rows))[:5]
        raise ValidationError(f"drop1 event set is not a superset of full: missing {missing}")
    if set(drop3.rows) != set(full.rows):
        raise ValidationError("drop3 and full tables cover different event sets")
    if drop3.icf != full.icf:
        raise ValidationError("drop3 and full tables disagree on icf")
    for eid, full_row in full.rows.items():
        drop3_row = drop3.rows[eid]
        for j, cell in enumerate(full_row):
            if cell != drop3_row[j] * full.icf[j]:
                raise ValidationError(
                    f"column scaling identity broken at event {eid}, cause {j}"
                )
    return [
        f"drop1 table covers {len(drop1.rows)} events, a superset of full's {len(full.rows)}",
        f"full table equals drop3 table scaled by icf per column over {len(full.rows)} rows",
    ]


# -- rendering -----------------------------------------------------------


def _pct(value: float) -> str:
    return f"{100.0 * value:6.1f}%"


def render_report(report: MacroReport) -> str:
    """Aligned text table: one row per class plus the macro row."""
    width = max(len("macro"), *(len(n) for n in report.class_names))
    lines = [f"{'class'.ljust(width)}  precision   recall       f1  support"]
    for j, m in enumerate(report.per_class):
        lines.append(
            f"{report.class_names[j].ljust(width)}  {_pct(m.precision)}  {_pct(m.recall)}"
            f"  {_pct(m.f1)}  {report.support[j]:7d}"
        )
    lines.append(
        f"{'macro'.ljust(width)}  {_pct(report.precision)}  {_pct(report.recall)}"
        f"  {_pct(report.f1)}  {report.total:7d}"
    )
    return "\n".join(lines)


def report_records(report: MacroReport, approach: str) -> list[dict]:
    """Machine-readable rows: one per class plus a macro row."""
    records = []
    for j, m in enumerate(report.per_class):
        records.append(
            {
                "approach": approach,
                "class": report.class_names[j],
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": report.support[j],
            }
        )
    records.append(
        {
            "approach": approach,
            "class": "macro",
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "support": report.total,
        }
    )
    return records


def render_comparison(reports: dict[str, MacroReport]) -> str:
    """Macro scores of several approaches side by side."""
    width = max(len("approach"), *(len(name) for name in reports))
    lines = [f"{'approach'.ljust(width)}  precision   recall       f1"]
    for name, report in reports.items():
        lines.append(
            f"{name.ljust(width)}  {_pct(report.precision)}  {_pct(report.recall)}  {_pct(report.f1)}"
        )
    return "\n".join(lines)
