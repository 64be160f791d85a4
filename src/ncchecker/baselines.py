"""Reference classifiers: random guess and one KNN retrieval baseline.
The majority class baseline is ``table.majority_from_counts``.

The two retrieval baselines are one KNN, two document kinds.  Each
follows the mechanism its cited tool is known for, deliberately without
the extra machinery: a log's document maps a term to its count, the
index weighs it by IDF and votes among the cosine-nearest training logs.
``cam`` counts the whitespace terms of the raw lines; ``lff`` takes the
log's distinct events in the failed-only vocabulary, each counted once.
Indices are rebuilt per run; there is no persisted format.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import CauseTaxonomy
from .errors import ValidationError
from .evaluation import MacroReport, evaluate
from .table import majority_from_counts


def rg_trials(
    weights: Sequence[int], test_size: int, trials: int, seed: int
) -> list[list[int]]:
    """Random Guess: per trial, sample causes proportionally to the
    training distribution."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not any(weights):
        raise ValidationError("random guess needs a nonempty training distribution")
    rng = random.Random(seed)
    population = range(len(weights))
    return [rng.choices(population, weights=weights, k=test_size) for _ in range(trials)]


@dataclass(frozen=True)
class RandomGuessResult:
    trial_predictions: tuple[tuple[int, ...], ...]
    median_trial: int
    median_report: MacroReport


def rg_predict_from_counts(
    n_per_cause: Sequence[int],
    test_truth: Sequence[int],
    trials: int,
    seed: int,
    taxonomy: CauseTaxonomy,
) -> RandomGuessResult:
    """Run the trials and report the median-macro-F1 one.

    The reported trial is the lower median (index (trials - 1) // 2 of the
    F1-sorted order), so an even trial count still names one real trial.
    """
    predictions = rg_trials(n_per_cause, len(test_truth), trials, seed)
    reports = [evaluate(test_truth, p, taxonomy) for p in predictions]
    order = sorted(range(trials), key=lambda i: (reports[i].f1, i))
    median_trial = order[(trials - 1) // 2]
    return RandomGuessResult(
        tuple(tuple(p) for p in predictions), median_trial, reports[median_trial]
    )


# -- KNN retrieval: one index, two document kinds --------------------------


@dataclass(frozen=True)
class RetrievalIndex:
    """Length-normalized training vectors with a fixed vocabulary."""

    log_ids: tuple[str, ...]
    labels: tuple[int, ...]
    vectors: tuple[dict, ...]
    idf: dict
    k_neighbors: int
    fallback: int  # majority class, used when similarity gives no signal

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValidationError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


def _majority_label(labels: Sequence[int]) -> int:
    counts = Counter(labels)
    return majority_from_counts([counts[j] for j in range(max(counts) + 1)])


def _idf(docs: Sequence[Mapping[str, int]]) -> dict:
    df = Counter()
    for doc in docs:
        df.update(doc.keys())
    # A term occurring in every document carries no information: weight 0.
    return {term: math.log(len(docs) / count) for term, count in df.items()}


def _normalize(vector: dict) -> dict:
    norm = math.sqrt(sum(vector[t] * vector[t] for t in sorted(vector)))
    if norm == 0.0:
        return {}
    return {t: v / norm for t, v in vector.items()}


def _cosine(a: dict, b: dict) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(a[t] * b[t] for t in sorted(a) if t in b)


def _knn_vote(index: RetrievalIndex, query: dict) -> int:
    if not query:
        return index.fallback
    sims = [_cosine(query, v) for v in index.vectors]
    if not sims or max(sims) <= 0.0:
        return index.fallback
    # Ties in similarity break by log id so training order never matters.
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], index.log_ids[i]))
    top = order[: index.k_neighbors]
    votes = Counter(index.labels[i] for i in top)
    winners = [c for c, n in votes.items() if n == max(votes.values())]
    if len(winners) == 1:
        return winners[0]
    return index.labels[top[0]]  # vote tie: the nearest neighbor decides


def _weights(doc: Mapping[str, int], idf: dict) -> dict:
    return _normalize({t: n * idf[t] for t, n in doc.items() if idf.get(t, 0.0) > 0.0})


def knn_train(
    docs: Sequence[Mapping[str, int]],
    labels: Sequence[int],
    log_ids: Sequence[str],
    k_neighbors: int = 5,
) -> RetrievalIndex:
    """Index one document per failed training log: a map from a term to its
    count in that log."""
    if not docs:
        raise ValidationError("knn_train needs at least one failed training log")
    if not (len(docs) == len(labels) == len(log_ids)):
        raise ValidationError("docs, labels, and log_ids must have equal length")
    idf = _idf(docs)
    return RetrievalIndex(
        log_ids=tuple(log_ids),
        labels=tuple(labels),
        vectors=tuple(_weights(doc, idf) for doc in docs),
        idf=idf,
        k_neighbors=k_neighbors,
        fallback=_majority_label(labels),
    )


def knn_predict(index: RetrievalIndex, doc: Mapping[str, int]) -> int:
    """The cause the nearest training logs vote for; a term that no
    training document holds weighs 0."""
    return _knn_vote(index, _weights(doc, index.idf))
