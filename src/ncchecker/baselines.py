"""Reference classifiers: random guess and one KNN retrieval baseline.
The majority class baseline is ``table.majority_from_counts``.

The two retrieval baselines are one KNN, two document kinds.  Each
follows the mechanism its cited tool is known for, deliberately without
the extra machinery: a log's document maps a term to its count, the
index weighs it by IDF and votes among the cosine-nearest training logs.
``cam`` counts the whitespace terms of the raw lines; ``lff`` takes the
log's distinct events in the failed-only vocabulary, each counted once.
Indices are rebuilt per run; there is no persisted format.

The index keeps postings, ``term -> [(training log, weight)]``, of each
training log's unit vector, not the vectors.  A query adds
``query[term] * weight`` to each posted log's similarity, term by term in
sorted order, so each similarity is the cosine summed left to right over
the sorted shared terms; a log that shares no term scores 0.  Norms sum
left to right too (``evaluation.left_sum``), so a similarity has the
same bits on every Python version.  The k training logs first in the
order ``(-similarity, log id)`` then vote; ``heapq.nsmallest`` picks them
without sorting the rest, and is documented to equal ``sorted(...)[:k]``.
A vote tie goes to the tied class whose member ranks nearest, not to the
nearest neighbor's class, which may have lost the vote.
"""

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import CauseTaxonomy
from .errors import ValidationError
from .evaluation import MacroReport, evaluate, left_sum
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


def rg_predict_from_counts(
    n_per_cause: Sequence[int],
    test_truth: Sequence[int],
    trials: int,
    seed: int,
    taxonomy: CauseTaxonomy,
) -> MacroReport:
    """Run the trials and return the report of the median-macro-F1 one.

    The reported trial is the lower median (index (trials - 1) // 2 of the
    F1-sorted order, equal F1s in trial order), so an even trial count
    still names one real trial.
    """
    predictions = rg_trials(n_per_cause, len(test_truth), trials, seed)
    reports = [evaluate(test_truth, p, taxonomy) for p in predictions]
    return sorted(reports, key=lambda r: r.f1)[(trials - 1) // 2]


# -- KNN retrieval: one index, two document kinds --------------------------


@dataclass(frozen=True)
class RetrievalIndex:
    """Postings of the training logs' length-normalized vectors."""

    log_ids: tuple[str, ...]
    labels: tuple[int, ...]
    postings: dict  # term -> [(training log, its weight in that log's vector)]
    idf: dict
    k_neighbors: int
    fallback: int  # majority class, used when similarity gives no signal

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValidationError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


def _idf(docs: Sequence[Mapping[str, int]]) -> dict:
    df = Counter()
    for doc in docs:
        df.update(doc.keys())
    # A term occurring in every document carries no information: weight 0.
    return {term: math.log(len(docs) / count) for term, count in df.items()}


def _weights(doc: Mapping[str, int], idf: dict) -> dict:
    """The document's counts times idf, scaled to unit length; empty if all weigh 0."""
    vector = {t: n * idf[t] for t, n in doc.items() if idf.get(t, 0.0) > 0.0}
    norm = math.sqrt(left_sum(vector[t] * vector[t] for t in sorted(vector)))
    return {t: v / norm for t, v in vector.items()} if norm else {}


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
    postings = {}
    for i, doc in enumerate(docs):
        for term, weight in _weights(doc, idf).items():
            postings.setdefault(term, []).append((i, weight))
    return RetrievalIndex(
        log_ids=tuple(log_ids),
        labels=tuple(labels),
        postings=postings,
        idf=idf,
        k_neighbors=k_neighbors,
        fallback=majority_from_counts([labels.count(j) for j in range(max(labels) + 1)]),
    )


def knn_predict(index: RetrievalIndex, doc: Mapping[str, int]) -> int:
    """The cause the nearest training logs vote for; a term that no
    training document holds weighs 0."""
    query = _weights(doc, index.idf)
    sims = [0.0] * len(index.log_ids)
    for term, weight in sorted(query.items()):
        for i, w in index.postings[term]:
            sims[i] += weight * w
    if max(sims) <= 0.0:
        return index.fallback
    # Ties in similarity break by log id so training order never matters.
    nearest = heapq.nsmallest(
        index.k_neighbors, range(len(sims)), key=lambda i: (-sims[i], index.log_ids[i])
    )
    # A Counter lists the classes in the order they first occur, and
    # most_common keeps that order among equal counts: a vote tie goes to
    # the tied class whose member ranks nearest.
    votes = Counter(index.labels[i] for i in nearest)
    return votes.most_common(1)[0][0]
