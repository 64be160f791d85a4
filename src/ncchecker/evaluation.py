"""Per-class and macro precision/recall/F1, confusion matrices, ablations.

Zero-denominator cases yield 0 (a class never predicted has precision 0,
one with no true logs has recall 0), which keeps macro averages defined
on degenerate classifiers like the majority-class baseline.  Macro F1 is
the unweighted mean of the per-class F1 values, not the harmonic mean of
macro precision and recall.

``predict_corpus`` predicts a corpus's failed logs in the corpus's log-id
order; ``run_ablation`` trains a variant that ``table.build`` names and
scores it the same way.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .abstraction import AbstractionConfig, TemplateMiner
from .corpus import CauseTaxonomy, Corpus
from .errors import ValidationError
from .predictor import predict_lines
from .table import ScoreTable, build


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[true][predicted]; total equals the number of evaluated logs."""

    counts: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_sum(self, j: int) -> int:
        return sum(self.counts[j])

    def col_sum(self, j: int) -> int:
        return sum(row[j] for row in self.counts)


def confusion(truth: Sequence[int], predicted: Sequence[int], k: int) -> ConfusionMatrix:
    if len(truth) != len(predicted):
        raise ValidationError(
            f"truth and prediction lengths differ: {len(truth)} vs {len(predicted)}"
        )
    counts = [[0] * k for _ in range(k)]
    for t, p in zip(truth, predicted):
        if not (0 <= t < k and 0 <= p < k):
            raise ValidationError(f"cause id out of range: true {t}, predicted {p}")
        counts[t][p] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in counts))


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


def per_class_metrics(cm: ConfusionMatrix) -> list[ClassMetrics]:
    metrics = []
    for j in range(cm.k):
        tp = cm.counts[j][j]
        fp = cm.col_sum(j) - tp
        fn = cm.row_sum(j) - tp
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
    cm: ConfusionMatrix | None = None


def macro(
    per_class: Sequence[ClassMetrics],
    class_names: Sequence[str] | None = None,
    support: Sequence[int] | None = None,
    cm: ConfusionMatrix | None = None,
) -> MacroReport:
    """Unweighted means over all K classes, zero-support classes included."""
    k = len(per_class)
    if k < 2:
        raise ValidationError("macro averaging needs at least 2 classes")
    names = tuple(class_names) if class_names else tuple(f"C{j + 1}" for j in range(k))
    supports = tuple(support) if support is not None else tuple([0] * k)
    return MacroReport(
        class_names=names,
        per_class=tuple(per_class),
        precision=sum(m.precision for m in per_class) / k,
        recall=sum(m.recall for m in per_class) / k,
        f1=sum(m.f1 for m in per_class) / k,
        support=supports,
        total=sum(supports),
        cm=cm,
    )


def evaluate(
    truth: Sequence[int], predicted: Sequence[int], taxonomy: CauseTaxonomy
) -> MacroReport:
    cm = confusion(truth, predicted, taxonomy.k)
    return macro(
        per_class_metrics(cm),
        class_names=taxonomy.names,
        support=tuple(cm.row_sum(j) for j in range(taxonomy.k)),
        cm=cm,
    )


def predict_corpus(miner: TemplateMiner, table: ScoreTable, corpus: Corpus) -> MacroReport:
    """Predict the corpus's failed logs, in its log-id order, and score them."""
    truth = []
    predicted = []
    for log in corpus.failed:
        prediction, _ = predict_lines(miner, table, log.lines, log.log_id)
        truth.append(log.cause)
        predicted.append(prediction.cause)
    return evaluate(truth, predicted, corpus.taxonomy)


# -- ablation variants ---------------------------------------------------


def run_ablation(
    train_corpus: Corpus,
    test_corpus: Corpus,
    variant: str,
    config: AbstractionConfig | None = None,
) -> tuple[ScoreTable, MacroReport]:
    """Train one pipeline variant and evaluate it on the test corpus."""
    miner, table = build(train_corpus, config, variant)
    return table, predict_corpus(miner, table, test_corpus)


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


def report_records(report: MacroReport, approach: str = "") -> list[dict]:
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
