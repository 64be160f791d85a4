import math
from collections import Counter

import pytest

from ncchecker import ValidationError
from ncchecker.abstraction import EventSequence
from ncchecker.baselines import (
    _cosine,
    cam_predict,
    cam_train,
    lff_predict,
    lff_train,
    rg_predict_from_counts,
    rg_trials,
)
from ncchecker.corpus import DEFAULT_TAXONOMY, LabeledFailedLog
from ncchecker.table import majority_from_counts


def _seq(events, source="f"):
    return EventSequence(source, tuple(events), tuple(range(1, len(events) + 1)))


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


# -- CAM-style TF-IDF KNN -------------------------------------------------------


def _cam_toy_index(k_neighbors=1):
    logs = (
        LabeledFailedLog("d0", ("alpha beta beta",), 0),
        LabeledFailedLog("d1", ("alpha gamma",), 1),
        LabeledFailedLog("d2", ("delta delta gamma",), 1),
    )
    return cam_train(logs, k_neighbors=k_neighbors)


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
    assert cam_predict(index, ("alpha beta beta",)) == 0


def test_cam_k1_returns_nearest_label():
    index = _cam_toy_index(k_neighbors=1)
    assert cam_predict(index, ("alpha beta",)) == 0
    assert cam_predict(index, ("delta gamma",)) == 1


def test_cam_k3_majority_vote():
    index = _cam_toy_index(k_neighbors=3)
    # Neighbors are all three docs; labels (0, 1, 1) -> majority 1.
    assert cam_predict(index, ("alpha beta gamma delta",)) == 1


def test_cam_empty_test_log_falls_back_to_majority():
    index = _cam_toy_index()
    assert cam_predict(index, ()) == 1  # majority label of (0, 1, 1)


def test_cam_no_shared_terms_falls_back_to_majority():
    index = _cam_toy_index()
    assert cam_predict(index, ("zeta eta theta",)) == 1


def test_cam_training_order_permutation_invariant():
    logs = [
        LabeledFailedLog("d0", ("alpha beta beta",), 0),
        LabeledFailedLog("d1", ("alpha gamma",), 1),
        LabeledFailedLog("d2", ("delta delta gamma",), 1),
        LabeledFailedLog("d3", ("alpha beta gamma",), 2),
    ]
    queries = [("alpha beta",), ("gamma delta",), ("alpha gamma beta",)]
    forward = cam_train(logs, k_neighbors=2)
    backward = cam_train(list(reversed(logs)), k_neighbors=2)
    for query in queries:
        assert cam_predict(forward, query) == cam_predict(backward, query)


# -- LFF-style event IDF KNN ------------------------------------------------------


def _lff_toy_index(k_neighbors=1):
    sequences = [
        _seq(["x"], "L0"),
        _seq(["x", "y"], "L1"),
        _seq(["y", "z"], "L2"),
        _seq(["z"], "L3"),
    ]
    labels = [0, 0, 1, 1]
    return lff_train(sequences, labels, ["L0", "L1", "L2", "L3"], frozenset({"x", "y", "z"}), k_neighbors)


def test_lff_hand_computed_neighbor_ranking():
    # Each event has df 2 of 4 docs, idf ln 2; the query {y, z} has
    # cosines (0, 0.5, 1.0, 1/sqrt(2)) against L0..L3.
    index = _lff_toy_index()
    query = {"y": 1 / math.sqrt(2), "z": 1 / math.sqrt(2)}
    sims = [_cosine(query, v) for v in index.vectors]
    assert sims == pytest.approx([0.0, 0.5, 1.0, 1 / math.sqrt(2)], abs=1e-12)


def test_lff_full_overlap_wins():
    index = _lff_toy_index(k_neighbors=1)
    assert lff_predict(index, _seq(["y", "z"])) == 1


def test_lff_ubiquitous_event_has_no_influence():
    sequences = [
        _seq(["w", "x"], "L0"),
        _seq(["w", "x", "y"], "L1"),
        _seq(["w", "y", "z"], "L2"),
        _seq(["w", "z"], "L3"),
    ]
    index = lff_train(
        sequences, [0, 0, 1, 1], ["L0", "L1", "L2", "L3"], frozenset({"w", "x", "y", "z"}), 1
    )
    # w occurs in every failed log: idf 0, dropped from all vectors.
    assert all("w" not in vec for vec in index.vectors)
    assert lff_predict(index, _seq(["w", "y", "z"])) == 1


def test_lff_events_outside_vocabulary_are_ignored():
    index = _lff_toy_index()
    assert lff_predict(index, _seq(["x", "benign-event"])) == 0


def test_lff_no_signal_falls_back_to_majority():
    index = _lff_toy_index()
    assert lff_predict(index, _seq(["benign-event"])) == index.fallback


def test_lff_training_order_permutation_invariant():
    sequences = [_seq(["x"], "L0"), _seq(["x", "y"], "L1"), _seq(["y", "z"], "L2"), _seq(["z"], "L3")]
    labels = [0, 0, 1, 1]
    ids = ["L0", "L1", "L2", "L3"]
    vocab = frozenset({"x", "y", "z"})
    forward = lff_train(sequences, labels, ids, vocab, 2)
    backward = lff_train(
        list(reversed(sequences)), list(reversed(labels)), list(reversed(ids)), vocab, 2
    )
    for events in (["x"], ["y"], ["z"], ["x", "z"]):
        assert lff_predict(forward, _seq(events)) == lff_predict(backward, _seq(events))
