import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import scan_knn_predict
from ncchecker import ValidationError
from ncchecker.baselines import knn_predict, knn_train, rg_predict_from_counts, rg_trials
from ncchecker.corpus import DEFAULT_TAXONOMY
from ncchecker.evaluation import evaluate
from ncchecker.table import majority_from_counts


# -- random guess -------------------------------------------------------------


def test_rg_degenerate_distribution_predicts_the_only_cause():
    trials = rg_trials([0, 7, 0, 0], test_size=20, trials=3, seed=1)
    for trial in trials:
        assert trial == [1] * 20


def test_rg_deterministic_under_seed():
    a = rg_trials([5, 3, 2, 1], 50, trials=4, seed=9)
    b = rg_trials([5, 3, 2, 1], 50, trials=4, seed=9)
    assert a == b
    c = rg_trials([5, 3, 2, 1], 50, trials=4, seed=10)
    assert a != c


def test_rg_follows_the_training_distribution():
    # Law of large numbers: uniform 4-cause sampling over 10,000 draws
    # lands within 2 points of 25% per cause.
    (trial,) = rg_trials([1, 1, 1, 1], 10_000, trials=1, seed=7)
    freq = Counter(trial)
    for cause in range(4):
        assert abs(freq[cause] / 10_000 - 0.25) < 0.02


def test_rg_median_report_is_reproducible():
    truth = [0] * 12 + [1] * 6 + [2] * 3 + [3] * 2
    first = rg_predict_from_counts([12, 6, 3, 2], truth, 9, 5, DEFAULT_TAXONOMY)
    second = rg_predict_from_counts([12, 6, 3, 2], truth, 9, 5, DEFAULT_TAXONOMY)
    assert first == second
    # The median trial sits in the middle of the per-trial F1 ordering.
    reports = [
        evaluate(truth, p, DEFAULT_TAXONOMY) for p in rg_trials([12, 6, 3, 2], len(truth), 9, 5)
    ]
    assert first in reports
    assert first.f1 == sorted(r.f1 for r in reports)[4]


def test_rg_even_trial_count_reports_the_lower_median_trial():
    truth = [0] * 12 + [1] * 6 + [2] * 3 + [3] * 2
    reports = [
        evaluate(truth, p, DEFAULT_TAXONOMY) for p in rg_trials([12, 6, 3, 2], len(truth), 8, 5)
    ]
    median = rg_predict_from_counts([12, 6, 3, 2], truth, 8, 5, DEFAULT_TAXONOMY)
    # Equal F1s keep trial order, so the report is the lower median trial's.
    order = sorted(range(8), key=lambda i: (reports[i].f1, i))
    assert median == reports[order[3]]


def test_rg_rejects_zero_trials():
    with pytest.raises(ValidationError):
        rg_trials([1, 1], 5, trials=0, seed=0)


# -- majority class -----------------------------------------------------------


def test_mcc_constant_majority():
    assert [majority_from_counts([3, 1, 1, 0])] * 4 == [0, 0, 0, 0]


def test_mcc_tie_takes_lower_id():
    assert majority_from_counts([0, 2, 0, 2]) == 1


def test_mcc_needs_labels():
    with pytest.raises(ValidationError):
        majority_from_counts([0, 0, 0, 0])


# -- KNN retrieval: cam documents count raw terms --------------------------------


def _terms(*lines):
    """A cam document: the counts of the whitespace terms of the lines."""
    return Counter(term for line in lines for term in line.split())


def _events(*events):
    """An lff document: distinct in-vocabulary events, each counted once."""
    return dict.fromkeys(events, 1)


def _vectors(index):
    """Each training log's normalized vector, rebuilt from the postings."""
    vectors = [{} for _ in index.log_ids]
    for term, postings in index.postings.items():
        for i, weight in postings:
            vectors[i][term] = weight
    return vectors


def _left_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _cosine(a, b):
    """The sum over the sorted shared terms, left to right."""
    return _left_sum(a[term] * b[term] for term in sorted(a.keys() & b.keys()))


def _cam_toy_index(k_neighbors=1):
    docs = [_terms("alpha beta beta"), _terms("alpha gamma"), _terms("delta delta gamma")]
    return knn_train(docs, [0, 1, 1], ["d0", "d1", "d2"], k_neighbors)


def test_cam_hand_computed_tfidf_cosines():
    # idf (ln): alpha ln(3/2), beta ln 3, gamma ln(3/2), delta ln 3.
    # Query "alpha beta": normalized weights against d0..d2 give cosines
    # computed here from first principles.
    index = _cam_toy_index()
    idf_a, idf_b = math.log(3 / 2), math.log(3)
    q = {"alpha": idf_a, "beta": idf_b}
    q_norm = math.sqrt(q["alpha"] ** 2 + q["beta"] ** 2)
    d0 = {"alpha": idf_a, "beta": 2 * idf_b}
    d0_norm = math.sqrt(d0["alpha"] ** 2 + d0["beta"] ** 2)
    expected_d0 = (q["alpha"] * d0["alpha"] + q["beta"] * d0["beta"]) / (q_norm * d0_norm)
    d1_norm = math.sqrt(2) * idf_a
    expected_d1 = (q["alpha"] * idf_a) / (q_norm * d1_norm)

    query_vec = {"alpha": q["alpha"] / q_norm, "beta": q["beta"] / q_norm}
    sims = [_cosine(query_vec, v) for v in _vectors(index)]
    assert sims[0] == pytest.approx(expected_d0, abs=1e-12)
    assert sims[1] == pytest.approx(expected_d1, abs=1e-12)
    assert sims[2] == 0.0
    assert sims[0] > sims[1] > sims[2]


def test_cam_identical_log_is_rank_one_neighbor():
    index = _cam_toy_index(k_neighbors=1)
    assert knn_predict(index, _terms("alpha beta beta")) == 0


def test_cam_k1_returns_nearest_label():
    index = _cam_toy_index(k_neighbors=1)
    assert knn_predict(index, _terms("alpha beta")) == 0
    assert knn_predict(index, _terms("delta gamma")) == 1


def test_cam_k3_majority_vote():
    index = _cam_toy_index(k_neighbors=3)
    # Neighbors are all three docs; labels (0, 1, 1) -> majority 1.
    assert knn_predict(index, _terms("alpha beta gamma delta")) == 1


def test_cam_empty_test_log_falls_back_to_majority():
    index = _cam_toy_index()
    assert knn_predict(index, _terms()) == 1  # majority label of (0, 1, 1)


def test_cam_no_shared_terms_falls_back_to_majority():
    index = _cam_toy_index()
    assert knn_predict(index, _terms("zeta eta theta")) == 1


def test_a_vote_tie_goes_to_the_tied_class_that_ranks_nearest():
    # Five logs at similarity 1.0 rank by log id: their labels vote
    # [0, 1, 1, 2, 2], so classes 1 and 2 tie and class 0 lost the vote.
    docs = [_events("x")] * 5 + [_events("y")]
    ids = ["L0", "L1", "L2", "L3", "L4", "L5"]
    index = knn_train(docs, [0, 1, 1, 2, 2, 3], ids, 5)
    assert knn_predict(index, _events("x")) == 1
    index = knn_train(docs, [0, 2, 1, 1, 2, 3], ids, 5)
    assert knn_predict(index, _events("x")) == 2


def test_cam_training_order_permutation_invariant():
    docs = [
        _terms("alpha beta beta"),
        _terms("alpha gamma"),
        _terms("delta delta gamma"),
        _terms("alpha beta gamma"),
    ]
    labels = [0, 1, 1, 2]
    ids = ["d0", "d1", "d2", "d3"]
    queries = [_terms("alpha beta"), _terms("gamma delta"), _terms("alpha gamma beta")]
    forward = knn_train(docs, labels, ids, 2)
    backward = knn_train(docs[::-1], labels[::-1], ids[::-1], 2)
    for query in queries:
        assert knn_predict(forward, query) == knn_predict(backward, query)


# -- KNN retrieval: lff documents hold events once -------------------------------


def _lff_toy_index(k_neighbors=1):
    docs = [_events("x"), _events("x", "y"), _events("y", "z"), _events("z")]
    return knn_train(docs, [0, 0, 1, 1], ["L0", "L1", "L2", "L3"], k_neighbors)


def test_lff_hand_computed_neighbor_ranking():
    # Each event has df 2 of 4 docs, idf ln 2; the query {y, z} has
    # cosines (0, 0.5, 1.0, 1/sqrt(2)) against L0..L3.
    index = _lff_toy_index()
    query = {"y": 1 / math.sqrt(2), "z": 1 / math.sqrt(2)}
    sims = [_cosine(query, v) for v in _vectors(index)]
    assert sims == pytest.approx([0.0, 0.5, 1.0, 1 / math.sqrt(2)], abs=1e-12)


def test_lff_full_overlap_wins():
    index = _lff_toy_index(k_neighbors=1)
    assert knn_predict(index, _events("y", "z")) == 1


def test_lff_ubiquitous_event_has_no_influence():
    docs = [_events("w", "x"), _events("w", "x", "y"), _events("w", "y", "z"), _events("w", "z")]
    index = knn_train(docs, [0, 0, 1, 1], ["L0", "L1", "L2", "L3"], 1)
    # w occurs in every failed log: idf 0, dropped from all vectors.
    assert index.idf["w"] == 0.0
    assert "w" not in index.postings
    assert knn_predict(index, _events("w", "y", "z")) == 1


def test_lff_events_outside_vocabulary_are_ignored():
    # An event outside the training documents has no idf, so it weighs 0.
    index = _lff_toy_index()
    assert "benign-event" not in index.idf
    assert knn_predict(index, _events("x", "benign-event")) == 0
    assert knn_predict(index, _events("x", "benign-event")) == knn_predict(index, _events("x"))


def test_lff_no_signal_falls_back_to_majority():
    index = _lff_toy_index()
    assert knn_predict(index, _events("benign-event")) == index.fallback


def test_lff_training_order_permutation_invariant():
    docs = [_events("x"), _events("x", "y"), _events("y", "z"), _events("z")]
    labels = [0, 0, 1, 1]
    ids = ["L0", "L1", "L2", "L3"]
    forward = knn_train(docs, labels, ids, 2)
    backward = knn_train(docs[::-1], labels[::-1], ids[::-1], 2)
    for events in (["x"], ["y"], ["z"], ["x", "z"]):
        assert knn_predict(forward, _events(*events)) == knn_predict(backward, _events(*events))


def _unit(weights):
    """``weights`` scaled by the norm of its squares summed left to right in term order."""
    norm = math.sqrt(_left_sum(weights[t] * weights[t] for t in sorted(weights)))
    return {t: w / norm for t, w in weights.items()}


def _assert_vectors_are_normalized_idf(docs):
    docs = [_events(*events) for events in docs]
    index = knn_train(docs, list(range(len(docs))), [f"L{i}" for i in range(len(docs))])
    df = Counter(e for doc in docs for e in doc)
    assert index.idf == {e: math.log(len(docs) / n) for e, n in df.items()}
    for doc, vector in zip(docs, _vectors(index)):
        expected = _unit({e: index.idf[e] for e in doc})
        assert {e: v.hex() for e, v in vector.items()} == {
            e: v.hex() for e, v in expected.items()
        }


def test_a_document_of_ones_weighs_each_term_by_its_idf_alone():
    # All counts 1: each vector is, bit for bit, its terms' idf values
    # normalized, since 1 * idf == idf exactly.  Skewed document
    # frequencies give idf values that are no round numbers.
    _assert_vectors_are_normalized_idf([("x", "y"), ("y", "z"), ("z",), ("x", "y", "z")])


def test_a_norm_sums_its_squares_left_to_right():
    # The squares of ("x", "y", "z") sum to 0.7654385283991451 left to
    # right and 0.7654385283991452 compensated (math.fsum, and sum() from
    # Python 3.12), and their square roots differ too.
    docs = [("w", "x", "y", "z"), ("w", "z"), ("x", "y", "z"), ("w", "x", "y", "z")]
    _assert_vectors_are_normalized_idf(docs + [("y", "z"), ("y",), ("y", "z")])


def test_a_similarity_sums_the_query_terms_in_sorted_order():
    # L0 and L1 hold mirrored terms, so in sorted term order their cosines
    # add the same three products in the same order and tie exactly: L0
    # wins by log id.  In the query's own order (a, b, c, f, e, d), L1's
    # products come reversed and its sum differs in the last bit.
    docs = [_events("a", "b", "c"), _events("d", "e", "f")]
    docs += [_events("a", "d"), _events("b", "e"), _events("g"), _events("g")]
    labels, ids = [0, 1, 2, 2, 3, 3], ["L0", "L1", "L2", "L3", "L4", "L5"]
    query = {"a": 1, "b": 1, "c": 3, "f": 3, "e": 1, "d": 1}
    index = knn_train(docs, labels, ids, 1)
    q = _unit({t: n * index.idf[t] for t, n in query.items()})
    l0, l1 = _vectors(index)[:2]
    assert _left_sum(q[t] * l1[t] for t in "fed") != _left_sum(q[t] * l1[t] for t in "def")
    assert _left_sum(q[t] * l0[t] for t in "abc") == _left_sum(q[t] * l1[t] for t in "def")
    assert _knn_agrees_with_the_scan(docs, labels, ids, 1, query) == 0


def test_knn_train_rejects_no_documents_and_unequal_lengths():
    with pytest.raises(ValidationError):
        knn_train([], [], [])
    with pytest.raises(ValidationError):
        knn_train([_events("x")], [0, 1], ["L0"])
    with pytest.raises(ValidationError):
        knn_train([_events("x")], [0], ["L0"], k_neighbors=0)


# -- KNN retrieval: the postings index equals the scan --------------------------


def _knn_agrees_with_the_scan(docs, labels, log_ids, k_neighbors, query):
    index = knn_train(docs, labels, log_ids, k_neighbors)
    expected = scan_knn_predict(docs, labels, log_ids, k_neighbors, query)
    assert knn_predict(index, query) == expected
    return expected


_KNN_TERMS = ("a", "b", "c", "d", "e", "f")


@st.composite
def _knn_cases(draw):
    """Small vocabularies, so logs share terms and similarities tie often."""
    n = draw(st.integers(1, 10))
    vocabulary = _KNN_TERMS[: draw(st.integers(2, len(_KNN_TERMS)))]
    doc = st.dictionaries(st.sampled_from(vocabulary), st.integers(1, 3), max_size=4)
    docs = [draw(doc) for _ in range(n)]
    labels = [draw(st.integers(0, 3)) for _ in range(n)]
    log_ids = draw(st.permutations([f"L{i}" for i in range(n)]))
    k_neighbors = draw(st.integers(1, n + 2))  # above the log count too
    query_terms = st.sampled_from(vocabulary + ("out-of-vocabulary",))
    empty = draw(st.integers(0, 7)) == 0  # else half the queries come out empty
    query = draw(st.dictionaries(query_terms, st.integers(1, 3), min_size=not empty, max_size=5))
    return docs, labels, log_ids, k_neighbors, query


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_knn_cases())
def test_knn_predict_equals_the_scan(case):
    _knn_agrees_with_the_scan(*case)


def test_knn_predict_equals_the_scan_on_each_edge_case():
    docs = [_events("x", "y"), _events("x", "y"), _events("z"), _events("w"), _events("v")]
    labels, ids = [1, 0, 2, 3, 3], ["L1", "L0", "L2", "L3", "L4"]
    # Equal similarity: L0 and L1 tie, and L0 ranks first by log id.
    assert _knn_agrees_with_the_scan(docs, labels, ids, 1, _events("x")) == 0
    # No shared term and an empty query: the majority label.
    assert _knn_agrees_with_the_scan(docs, labels, ids, 1, _events("u")) == 3
    assert _knn_agrees_with_the_scan(docs, labels, ids, 1, {}) == 3
    # Fewer than k logs score above 0, and k above the log count: logs
    # that share no term fill the top k in log-id order.
    assert _knn_agrees_with_the_scan(docs, labels, ids, 4, _events("z")) == 2
    assert _knn_agrees_with_the_scan(docs, labels, ids, 9, _events("z", "x")) == 3
