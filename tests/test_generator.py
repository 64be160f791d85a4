import json
from dataclasses import fields, replace

import pytest
from golden_cases import NOISY_SPEC, corpus_digest

from ncchecker import ValidationError, load_corpus
from ncchecker.cli import main
from ncchecker.generator import (
    SyntheticSpec,
    default_spec,
    generate_synthetic,
    spec_from_dict,
)


def _read_back(manifest_path) -> SyntheticSpec:
    return spec_from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))


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
    manifest = _read_back(generate_synthetic(spec, tmp_path))
    signatures = manifest.marker_signatures()
    corpus = load_corpus(tmp_path)
    for log in corpus.failed:
        heads = {line.split()[0] for line in log.lines if line}
        marked = {signatures[h] for h in heads if h in signatures}
        assert log.cause in marked


def test_marker_soundness_no_marker_in_passed_logs(tmp_path):
    spec = default_spec(cause_counts=(8, 6, 4, 3), passed_count=10, seed=4)
    manifest = _read_back(generate_synthetic(spec, tmp_path))
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
    manifest_path = generate_synthetic(spec, tmp_path)
    assert manifest_path == tmp_path / "manifest.json"
    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert list(payload) == [f.name for f in fields(SyntheticSpec)]
    manifest = _read_back(manifest_path)
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
    manifest = _read_back(generate_synthetic(spec, tmp_path))
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
    manifest_path = generate_synthetic(spec, tmp_path / "corpus")
    assert _read_back(manifest_path) == spec
    assert main(["gen", str(manifest_path), "--out", str(tmp_path / "copy")]) == 0
    assert corpus_digest(tmp_path / "copy") == corpus_digest(tmp_path / "corpus")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("{", '{"dropout": 0.1, ', 1), "unknown spec fields: dropout"),
        (lambda text: text.replace("{", '{"seed": 9, ', 1), "duplicate key 'seed'"),
        (lambda text: text.replace('  "seed": 5,\n', ""), "'seed' is required"),
        (lambda text: text.replace('"seed": 5', '"seed": "five"'), "must be an integer"),
        (
            lambda text: text.replace("{", '{"markers_per_cause": 4, ', 1),
            "both 'markers' and 'markers_per_cause'",
        ),
    ],
    ids=["unknown", "repeated", "missing", "not-a-number", "markers-per-cause"],
)
def test_malformed_manifest_rejected(edit, message, tmp_path, capsys):
    spec = default_spec(cause_counts=(4, 3, 2, 2), passed_count=3, seed=5)
    manifest_path = generate_synthetic(spec, tmp_path / "corpus")
    manifest_path.write_text(edit(manifest_path.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["gen", str(manifest_path), "--out", str(tmp_path / "copy")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "copy").exists()


def test_corpus_digests_pinned(tmp_path):
    # Logs and labels are byte-identical across refactors of the spec; the
    # whole-corpus digest pins the manifest's bytes too.
    assert main(["gen", "--out", str(tmp_path / "seed7"), "--seed", "7"]) == 0
    generate_synthetic(spec_from_dict(NOISY_SPEC), tmp_path / "noisy")
    pinned = {
        "seed7": (
            "99a67116d0cf876301abc5810bca781f7701b8238f6850de7378481a80c2b478",
            "da79cc432a720828f960f1f693bdbe5f227bc85ad23d0da663de88bb13163d80",
        ),
        "noisy": (
            "ceccf3a0c739970003427a2c3082f3fcbe4e1b69cb05de1fe94d4d0a07ada0ea",
            "5bf4ecbf7c88f1b19f32112c5e2b9f1e698cdd135d137aa7ac9ba8041d935c4f",
        ),
    }
    for name, (whole, logs_and_labels) in pinned.items():
        assert corpus_digest(tmp_path / name) == whole
        (tmp_path / name / "manifest.json").unlink()
        assert corpus_digest(tmp_path / name) == logs_and_labels


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
