from dataclasses import replace

import pytest
from test_golden import NOISY_SPEC

from ncchecker import ValidationError, load_corpus
from ncchecker.cli import main
from ncchecker.generator import (
    SyntheticSpec,
    corpus_digest,
    default_spec,
    generate_synthetic,
    manifest_text,
    parse_manifest,
    spec_from_dict,
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
    assert len(manifest.markers[0]) == 4
    assert manifest.benign == spec.benign


def test_overlapping_marker_sets_rejected():
    with pytest.raises(ValidationError, match="also appears"):
        SyntheticSpec(
            cause_counts=(2, 2),
            passed_count=1,
            seed=0,
            markers=(("SAME marker line",), ("SAME marker line",)),
        )


def test_marker_colliding_with_benign_rejected():
    with pytest.raises(ValidationError, match="benign"):
        SyntheticSpec(
            cause_counts=(2, 2),
            passed_count=1,
            seed=0,
            markers=(("Took {int} seconds to build instances",), ("OTHER marker",)),
        )


def test_last_cause_contamination_plants_majority_markers(tmp_path):
    spec = default_spec(
        cause_counts=(6, 3, 2, 4),
        passed_count=4,
        seed=6,
        last_cause_contamination=2,
    )
    manifest = parse_manifest(generate_synthetic(spec, tmp_path))
    majority_heads = {t.split()[0] for t in manifest.markers[0]}
    corpus = load_corpus(tmp_path)
    for log in corpus.failed:
        if log.cause != 3:
            continue
        heads = {line.split()[0] for line in log.lines}
        assert len(heads & majority_heads) >= 2


@pytest.mark.parametrize(
    "spec",
    [
        default_spec(cause_counts=(4, 3, 2, 2), passed_count=3, seed=5),
        default_spec(cause_counts=(6, 3, 2, 4), passed_count=4, seed=6, last_cause_contamination=2),
        SyntheticSpec(
            cause_counts=(2, 1),
            passed_count=2,
            seed=8,
            markers=(("TABBED\tmarker {int}", "OTHER {word}"), ("LAST marker\t",)),
            benign=("step\t{int} ok",),
            noise_rate=0.5,
            lines_range=(1, 3),
        ),
    ],
    ids=["default", "contaminated", "tabbed"],
)
def test_manifest_reads_back_into_its_spec(spec, tmp_path):
    assert parse_manifest(generate_synthetic(spec, tmp_path)) == spec


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text + "dropout\t0.1\n", "unknown or repeated field"),
        (lambda text: text + "seed\t9\n", "unknown or repeated field"),
        (lambda text: text.replace("last_cause_contamination\t0\n", ""), "is missing"),
        (lambda text: text.replace("marker\t1\t", "marker\t4\t"), "not 0..k-1"),
        (lambda text: text.replace("seed\t5", "seed\tfive"), "parse error"),
    ],
    ids=["unknown", "repeated", "missing", "marker-cause-gap", "not-a-number"],
)
def test_malformed_manifest_rejected(edit, message, tmp_path):
    text = manifest_text(default_spec(cause_counts=(4, 3, 2, 2), passed_count=3, seed=5))
    path = tmp_path / "manifest.txt"
    path.write_text(edit(text), encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        parse_manifest(path)


def test_corpus_digests_pinned(tmp_path):
    # Generated corpora are byte-identical across refactors of the spec.
    assert main(["gen", "--out", str(tmp_path / "seed7"), "--seed", "7"]) == 0
    assert corpus_digest(tmp_path / "seed7") == (
        "406d551b9e4c42bda448ed13769a2f96b812a8385af16bf737e54d5911260e61"
    )
    generate_synthetic(spec_from_dict(NOISY_SPEC), tmp_path / "noisy")
    assert corpus_digest(tmp_path / "noisy") == (
        "ac3eb3ee92eb366ccafefabf28a3946cdbfe6d8bbade6b5d7af8030212baea20"
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("cause_counts", (3, 2.0)),
        ("cause_counts", 5),
        ("lines_range", (6, 8, 10)),
        ("noise_rate", "0.1"),
        ("noise_rate", float("nan")),
        ("benign", ("   ",)),
        ("benign", "Heartbeat ok"),
        ("markers", (("A one",), ("B two\x1cthree",))),
        ("markers", (("A one",), ("B \ud800",))),
    ],
)
def test_spec_field_of_wrong_type_or_shape_rejected(field, value):
    spec = default_spec(cause_counts=(3, 2), passed_count=1, seed=0)
    with pytest.raises(ValidationError):
        replace(spec, **{field: value})


def test_spec_keeps_lists_as_tuples_and_noise_rate_as_float():
    spec = SyntheticSpec(
        cause_counts=[3, 2], passed_count=1, seed=0, markers=[["A one"], ["B two"]],
        noise_rate=0, lines_range=[2, 4],
    )
    assert spec.cause_counts == (3, 2) and spec.lines_range == (2, 4)
    assert spec.markers == (("A one",), ("B two",))
    assert spec.noise_rate == 0.0 and isinstance(spec.noise_rate, float)
    assert spec.marker_signatures() == {"A": 0, "B": 1}
