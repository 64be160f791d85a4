"""Reference classifiers: random guess, majority class, and two
simplified retrieval baselines.

The retrieval pair follows the mechanisms the cited tools are known for,
deliberately without their extra machinery: a TF-IDF vectorizer over raw
log terms with cosine KNN, and an event-level IDF vectorizer over the
failed-only vocabulary with the same KNN.  Indices are rebuilt per run;
there is no persisted format.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .abstraction import EventSequence
from .corpus import CauseTaxonomy, LabeledFailedLog
from .errors import ValidationError
from .evaluation import MacroReport, evaluate


def majority_class(train_labels: Sequence[int]) -> int:
    if not train_labels:
        raise ValidationError("majority class needs at least one training label")
    counts = Counter(train_labels)
    return max(counts, key=lambda c: (counts[c], -c))


def majority_from_counts(n_per_cause: Sequence[int]) -> int:
    if not any(n_per_cause):
        raise ValidationError("majority class needs at least one training label")
    return max(range(len(n_per_cause)), key=lambda j: (n_per_cause[j], -j))


def mcc_predict(train_labels: Sequence[int], test_size: int) -> list[int]:
    """Majority Class Classifier: the most frequent label, lowest id on ties."""
    return [majority_class(train_labels)] * test_size


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

    @property
    def median_predictions(self) -> tuple[int, ...]:
        return self.trial_predictions[self.median_trial]


def rg_predict(
    train_labels: Sequence[int],
    test_truth: Sequence[int],
    trials: int,
    seed: int,
    taxonomy: CauseTaxonomy,
) -> RandomGuessResult:
    """Run the trials and report the median-macro-F1 one.

    The reported trial is the lower median (index (trials - 1) // 2 of the
    F1-sorted order), so an even trial count still names one real trial.
    """
    weights = [0] * taxonomy.k
    for label in train_labels:
        weights[taxonomy.check_cause(label)] += 1
    return rg_predict_from_counts(weights, test_truth, trials, seed, taxonomy)


def rg_predict_from_counts(
    n_per_cause: Sequence[int],
    test_truth: Sequence[int],
    trials: int,
    seed: int,
    taxonomy: CauseTaxonomy,
) -> RandomGuessResult:
    predictions = rg_trials(n_per_cause, len(test_truth), trials, seed)
    reports = [evaluate(test_truth, p, taxonomy) for p in predictions]
    order = sorted(range(trials), key=lambda i: (reports[i].f1, i))
    median_trial = order[(trials - 1) // 2]
    return RandomGuessResult(
        tuple(tuple(p) for p in predictions), median_trial, reports[median_trial]
    )


# -- shared KNN machinery --------------------------------------------------


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


def _idf(doc_term_sets: Sequence[frozenset], n_docs: int) -> dict:
    df = Counter()
    for terms in doc_term_sets:
        df.update(terms)
    # A term occurring in every document carries no information: weight 0.
    return {term: math.log(n_docs / count) for term, count in df.items()}


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


# -- CAM-style: TF-IDF over raw log terms ----------------------------------


def _terms(lines: Iterable[str]) -> list[str]:
    terms: list[str] = []
    for line in lines:
        terms.extend(line.split())
    return terms


def cam_train(failed_logs: Sequence[LabeledFailedLog], k_neighbors: int = 5) -> RetrievalIndex:
    if not failed_logs:
        raise ValidationError("cam_train needs at least one failed training log")
    docs = [_terms(log.lines) for log in failed_logs]
    idf = _idf([frozenset(d) for d in docs], len(docs))
    vectors = []
    for doc in docs:
        tf = Counter(doc)
        vectors.append(
            _normalize({t: n * idf[t] for t, n in tf.items() if idf[t] > 0.0})
        )
    return RetrievalIndex(
        log_ids=tuple(log.log_id for log in failed_logs),
        labels=tuple(log.cause for log in failed_logs),
        vectors=tuple(vectors),
        idf=idf,
        k_neighbors=k_neighbors,
        fallback=majority_class([log.cause for log in failed_logs]),
    )


def cam_predict(index: RetrievalIndex, lines: Iterable[str]) -> int:
    tf = Counter(_terms(lines))
    query = _normalize(
        {t: n * index.idf[t] for t, n in tf.items() if index.idf.get(t, 0.0) > 0.0}
    )
    return _knn_vote(index, query)


# -- LFF-style: event IDF over the failed-only vocabulary ------------------


def lff_train(
    sequences: Sequence[EventSequence],
    labels: Sequence[int],
    log_ids: Sequence[str],
    vocabulary: frozenset,
    k_neighbors: int = 5,
) -> RetrievalIndex:
    if not sequences:
        raise ValidationError("lff_train needs at least one failed training log")
    if not (len(sequences) == len(labels) == len(log_ids)):
        raise ValidationError("sequences, labels, and log_ids must have equal length")
    doc_sets = [seq.distinct_events() & vocabulary for seq in sequences]
    idf = _idf(doc_sets, len(doc_sets))
    vectors = [
        _normalize({e: idf[e] for e in doc if idf[e] > 0.0}) for doc in doc_sets
    ]
    return RetrievalIndex(
        log_ids=tuple(log_ids),
        labels=tuple(labels),
        vectors=tuple(vectors),
        idf=idf,
        k_neighbors=k_neighbors,
        fallback=majority_class(list(labels)),
    )


def lff_predict(index: RetrievalIndex, events: EventSequence) -> int:
    present = events.distinct_events()
    query = _normalize(
        {e: index.idf[e] for e in present if index.idf.get(e, 0.0) > 0.0}
    )
    return _knn_vote(index, query)
