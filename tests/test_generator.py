import pytest

from ncchecker import ValidationError, load_corpus
from ncchecker.generator import (
    SyntheticSpec,
    corpus_digest,
    default_spec,
    generate_synthetic,
    parse_manifest,
)


def test_counts_and_labels(tmp_path):
    spec = default_spec(cause_counts=(60, 25, 10, 5), passed_count=12, seed=1)
    generate_synthetic(spec, tmp_path)
    assert len(list((tmp_path / "failed").glob("*.log"))) == 100
    labels = (tmp_path / "labels.csv").read_text().splitlines()
    assert labels[0] == "log_id,cause_id"
    assert len(labels) == 101


def test_round_trip_counts_match_spec(tmp_path):
    spec = default_spec(cause_counts=(7, 5, 3, 2), passed_count=6, seed=2)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    assert len(corpus.passed) == 6
    assert corpus.cause_counts() == [7, 5, 3, 2]


def test_every_failed_log_carries_its_cause_marker(tmp_path):
    spec = default_spec(cause_counts=(8, 6, 4, 3), passed_count=5, seed=3, noise_rate=0.2)
    manifest_path = generate_synthetic(spec, tmp_path)
    manifest = parse_manifest(manifest_path)
    signatures = manifest.marker_signatures()
    corpus = load_corpus(tmp_path)
    for log in corpus.failed:
        heads = {line.split()[0] for line in log.lines if line}
        marked = {signatures[h] for h in heads if h in signatures}
        assert log.cause in marked


def test_marker_soundness_no_marker_in_passed_logs(tmp_path):
    spec = default_spec(cause_counts=(8, 6, 4, 3), passed_count=10, seed=4)
    manifest = parse_manifest(generate_synthetic(spec, tmp_path))
    signatures = manifest.marker_signatures()
    corpus = load_corpus(tmp_path)
    for log in corpus.passed:
        for line in log.lines:
            assert line.split()[0] not in signatures


def test_equal_seeds_byte_identical(tmp_path):
    spec = default_spec(cause_counts=(9, 4, 3, 2), passed_count=5, seed=11, noise_rate=0.15)
    generate_synthetic(spec, tmp_path / "a")
    generate_synthetic(spec, tmp_path / "b")
    assert corpus_digest(tmp_path / "a") == corpus_digest(tmp_path / "b")


def test_different_seeds_differ(tmp_path):
    base = default_spec(cause_counts=(9, 4, 3, 2), passed_count=5, seed=11)
    other = default_spec(cause_counts=(9, 4, 3, 2), passed_count=5, seed=12)
    generate_synthetic(base, tmp_path / "a")
    generate_synthetic(other, tmp_path / "b")
    assert corpus_digest(tmp_path / "a") != corpus_digest(tmp_path / "b")


def test_manifest_round_trip(tmp_path):
    spec = default_spec(cause_counts=(4, 3, 2, 2), passed_count=3, seed=5)
    manifest = parse_manifest(generate_synthetic(spec, tmp_path))
    assert manifest.seed == 5
    assert manifest.cause_counts == (4, 3, 2, 2)
    assert manifest.passed_count == 3
    assert len(manifest.markers_of(0)) == 4
    assert manifest.benign == spec.benign


def test_overlapping_marker_sets_rejected():
    spec = SyntheticSpec(
        cause_counts=(2, 2),
        passed_count=1,
        seed=0,
        markers=(("SAME marker line",), ("SAME marker line",)),
    )
    with pytest.raises(ValidationError, match="also appears"):
        spec.validate()


def test_marker_colliding_with_benign_rejected():
    spec = SyntheticSpec(
        cause_counts=(2, 2),
        passed_count=1,
        seed=0,
        markers=(("Took {int} seconds to build instances",), ("OTHER marker",)),
    )
    with pytest.raises(ValidationError, match="benign"):
        spec.validate()


def test_last_cause_contamination_plants_majority_markers(tmp_path):
    spec = default_spec(
        cause_counts=(6, 3, 2, 4),
        passed_count=4,
        seed=6,
        last_cause_contamination=2,
    )
    manifest = parse_manifest(generate_synthetic(spec, tmp_path))
    majority_heads = {t.split()[0] for t in manifest.markers_of(0)}
    corpus = load_corpus(tmp_path)
    for log in corpus.failed:
        if log.cause != 3:
            continue
        heads = {line.split()[0] for line in log.lines}
        assert len(heads & majority_heads) >= 2
