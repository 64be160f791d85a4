import math
from collections import Counter

import pytest

from ncchecker import ValidationError
from ncchecker.baselines import (
    _cosine,
    knn_predict,
    knn_train,
    rg_predict_from_counts,
    rg_trials,
)
from ncchecker.corpus import DEFAULT_TAXONOMY
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
    assert first.median_trial == second.median_trial
    assert first.median_report.f1 == second.median_report.f1
    # The median trial sits in the middle of the per-trial F1 ordering.
    import ncchecker.evaluation as ev

    f1s = sorted(
        ev.evaluate(truth, list(p), DEFAULT_TAXONOMY).f1 for p in first.trial_predictions
    )
    assert first.median_report.f1 == f1s[4]


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
    sims = [_cosine(query_vec, v) for v in index.vectors]
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
    sims = [_cosine(query, v) for v in index.vectors]
    assert sims == pytest.approx([0.0, 0.5, 1.0, 1 / math.sqrt(2)], abs=1e-12)


def test_lff_full_overlap_wins():
    index = _lff_toy_index(k_neighbors=1)
    assert knn_predict(index, _events("y", "z")) == 1


def test_lff_ubiquitous_event_has_no_influence():
    docs = [_events("w", "x"), _events("w", "x", "y"), _events("w", "y", "z"), _events("w", "z")]
    index = knn_train(docs, [0, 0, 1, 1], ["L0", "L1", "L2", "L3"], 1)
    # w occurs in every failed log: idf 0, dropped from all vectors.
    assert index.idf["w"] == 0.0
    assert all("w" not in vec for vec in index.vectors)
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


def test_a_document_of_ones_weighs_each_term_by_its_idf_alone():
    # All counts 1: each vector is, bit for bit, its terms' idf values
    # normalized, since 1 * idf == idf exactly.  Skewed document
    # frequencies give idf values that are no round numbers.
    docs = [_events("x", "y"), _events("y", "z"), _events("z"), _events("x", "y", "z")]
    index = knn_train(docs, [0, 1, 1, 0], ["L0", "L1", "L2", "L3"])
    assert index.idf == {"x": math.log(4 / 2), "y": math.log(4 / 3), "z": math.log(4 / 3)}
    for doc, vector in zip(docs, index.vectors):
        weights = {e: index.idf[e] for e in doc}
        norm = math.sqrt(sum(weights[e] * weights[e] for e in sorted(weights)))
        expected = {e: w / norm for e, w in weights.items()}
        assert {e: v.hex() for e, v in vector.items()} == {
            e: v.hex() for e, v in expected.items()
        }


def test_knn_train_rejects_no_documents_and_unequal_lengths():
    with pytest.raises(ValidationError):
        knn_train([], [], [])
    with pytest.raises(ValidationError):
        knn_train([_events("x")], [0, 1], ["L0"])
    with pytest.raises(ValidationError):
        knn_train([_events("x")], [0], ["L0"], k_neighbors=0)
