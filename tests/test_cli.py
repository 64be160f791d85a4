import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncchecker
from ncchecker.cli import main
from ncchecker.generator import default_spec, generate_synthetic, parse_manifest


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli-corpus")
    spec = default_spec(cause_counts=(30, 14, 8, 6), passed_count=10, seed=51, noise_rate=0.1)
    generate_synthetic(spec, root)
    return root


@pytest.fixture(scope="module")
def model_path(corpus_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli-model") / "model.ncc"
    assert main(["train", str(corpus_dir), "--out", str(out)]) == 0
    return out


def test_gen_writes_corpus_and_manifest(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--out", str(out), "--seed", "3"]) == 0
    stdout = capsys.readouterr().out
    assert "manifest" in stdout
    assert (out / "labels.csv").exists()
    assert parse_manifest(out / "manifest.txt").seed == 3


def test_gen_same_seed_identical_manifests(tmp_path):
    main(["gen", "--out", str(tmp_path / "a"), "--seed", "9"])
    main(["gen", "--out", str(tmp_path / "b"), "--seed", "9"])
    digest = lambda p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
    assert digest(tmp_path / "a" / "manifest.txt") == digest(tmp_path / "b" / "manifest.txt")


def test_gen_spec_file_and_validation_error(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "cause_counts": [4, 3],
                "passed_count": 2,
                "seed": 1,
                "markers": [["SAME line"], ["SAME line"]],
            }
        )
    )
    assert main(["gen", str(spec_path), "--out", str(tmp_path / "c")]) == 1


def test_gen_missing_spec_file_is_io_error(tmp_path, capsys):
    assert main(["gen", str(tmp_path / "nope.json"), "--out", str(tmp_path / "c")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_train_prints_dimensions(corpus_dir, tmp_path, capsys):
    out = tmp_path / "m.ncc"
    assert main(["train", str(corpus_dir), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "table:" in stdout and "causes" in stdout
    assert "C1 bug-related: 30 train logs" in stdout


def test_train_twice_byte_identical(corpus_dir, tmp_path):
    first = tmp_path / "a.ncc"
    second = tmp_path / "b.ncc"
    main(["train", str(corpus_dir), "--out", str(first)])
    main(["train", str(corpus_dir), "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_train_empty_corpus_fails_validation(tmp_path, capsys):
    (tmp_path / "failed").mkdir()
    (tmp_path / "labels.csv").write_text("log_id,cause_id\n")
    assert main(["train", str(tmp_path), "--out", str(tmp_path / "m.ncc")]) == 1
    assert "error" in capsys.readouterr().err


def test_predict_single_log_flags_marker(corpus_dir, model_path, capsys):
    manifest = parse_manifest(corpus_dir / "manifest.txt")
    # Last failed log belongs to the last cause (cause-major file order).
    target = sorted((corpus_dir / "failed").glob("*.log"))[-1]
    assert main(["predict", str(model_path), str(target)]) == 0
    stdout = capsys.readouterr().out
    assert "ncc-report v1" in stdout
    assert "C4 third-party-library" in stdout
    flag_lines = [l for l in stdout.splitlines() if l.startswith("flag\t")]
    assert flag_lines
    heads = {t.split()[0] for t in manifest.markers_of(3)}
    assert flag_lines[0].split("\t")[4].split()[0] in heads


def test_predict_benign_only_log_reports_fallback(model_path, tmp_path, capsys):
    log = tmp_path / "benign.log"
    log.write_text("Took 4 seconds to build instances\nHeartbeat ok from node9\n")
    assert main(["predict", str(model_path), str(log)]) == 0
    stdout = capsys.readouterr().out
    assert "fallback\ttrue" in stdout
    assert "flag\t" not in stdout


def test_predict_line_numbers_count_only_newlines(corpus_dir, model_path, tmp_path, capsys):
    # Form feed, file separator and U+2028 end no line for grep -n or an
    # editor, so they must not shift the flagged line numbers.
    source = sorted((corpus_dir / "failed").glob("*.log"))[-1]
    edited = tmp_path / source.name
    edited.write_text("INFO form\x0cfeed\x1crecord\u2028line\n" + source.read_text())
    flagged = []
    for path in (source, edited):
        assert main(["predict", str(model_path), str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        flagged.append([f["line"] for f in record["flagged_lines"]])
    assert flagged[0]
    assert flagged[1] == [n + 1 for n in flagged[0]]


def test_predict_directory_json_sorted(corpus_dir, model_path, capsys):
    failed_dir = str(corpus_dir / "failed")
    assert main(["predict", str(model_path), failed_dir, "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 58
    assert [r["log_id"] for r in records] == sorted(r["log_id"] for r in records)


def test_predict_jobs_flag_removed(corpus_dir, model_path):
    failed_dir = str(corpus_dir / "failed")
    assert main(["predict", str(model_path), failed_dir, "--jobs", "2"]) == 1


def test_predict_missing_path_is_io_error(model_path, tmp_path):
    assert main(["predict", str(model_path), str(tmp_path / "missing.log")]) == 2


def _run_cli(*args) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter so an escaped traceback shows on stderr."""
    src = str(Path(ncchecker.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "ncchecker.cli", *map(str, args)]
    return subprocess.run(command, env=env, capture_output=True, text=True)


def test_train_on_a_directory_named_like_a_log_is_io_error(tmp_path):
    for group in ("passed", "failed"):
        (tmp_path / group).mkdir()
    (tmp_path / "failed" / "f1.log").write_text("boom\n")
    (tmp_path / "labels.csv").write_text("log_id,cause_id\nf1,0\n")
    (tmp_path / "passed" / "x.log").mkdir()
    result = _run_cli("train", tmp_path, "--out", tmp_path / "m.ncc")
    assert result.returncode == 2
    assert result.stderr.startswith("i/o error:")
    assert "Traceback" not in result.stderr


def test_predict_on_a_directory_named_like_a_log_is_io_error(model_path, tmp_path):
    (tmp_path / "a.log").write_text("boom\n")
    (tmp_path / "x.log").mkdir()
    result = _run_cli("predict", model_path, tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("i/o error:")
    assert "Traceback" not in result.stderr


def test_predict_non_utf8_model_is_validation_error(corpus_dir, model_path, tmp_path):
    bad = tmp_path / "latin1.ncc"
    bad.write_bytes(model_path.read_bytes().replace(b"templates\t", b"templates\xff\t", 1))
    result = _run_cli("predict", bad, corpus_dir / "failed")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_predict_invalid_mask_regex_is_validation_error(corpus_dir, model_path, tmp_path):
    header, config_line, rest = model_path.read_text().split("\n", 2)
    key, _, payload = config_line.partition("\t")
    config = json.loads(payload)
    config["mask_rules"][0][0] = "(unclosed"
    bad = tmp_path / "regex.ncc"
    bad.write_text(f"{header}\n{key}\t{json.dumps(config)}\n{rest}")
    result = _run_cli("predict", bad, corpus_dir / "failed")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command, content",
    [
        ("gen", '{"cause_counts": [4, 3],'),
        ("gen", json.dumps({"cause_counts": ["x", 1], "passed_count": 2, "seed": 1})),
        ("gen", json.dumps({"cause_counts": [2, 2], "passed_count": 1, "seed": 1, "markers": 5})),
        ("train", json.dumps({"tree_depth": "abc"})),
        ("eval", json.dumps({"seed": "abc"})),
        ("eval", json.dumps({"k_neighbors": 0})),
        ("ablate", json.dumps({"seed": "abc"})),
    ],
    ids=[
        "gen-invalid-json",
        "gen-cause-count-x",
        "gen-markers-not-list",
        "train-tree-depth",
        "eval-seed",
        "eval-k-neighbors-zero",
        "ablate-seed",
    ],
)
def test_malformed_spec_or_config_value_is_validation_error(
    command, content, corpus_dir, model_path, tmp_path
):
    path = tmp_path / "input.json"
    path.write_text(content)
    args = {
        "gen": (path, "--out", tmp_path / "out"),
        "train": (corpus_dir, "--out", tmp_path / "m.ncc", "--config", path),
        "eval": (model_path, corpus_dir, "--config", path)
        + ("--baselines", "cam,lff", "--train-dir", corpus_dir),
        "ablate": (corpus_dir, "--config", path),
    }[command]
    result = _run_cli(command, *args)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def _edited_model(model_path, tmp_path, edit_config=None, old="", new=""):
    """A copy of the model with its config JSON edited and ``old`` replaced."""
    header, config_line, rest = model_path.read_text().split("\n", 2)
    key, _, payload = config_line.partition("\t")
    config = json.loads(payload)
    if edit_config is not None:
        edit_config(config)
    assert old in rest
    bad = tmp_path / "edited.ncc"
    bad.write_text(f"{header}\n{key}\t{json.dumps(config)}\n{rest.replace(old, new, 1)}")
    return bad


def _malformed_input_args(case, corpus_dir, model_path, tmp_path):
    if case == "model-mask-rule-not-a-pair":
        model = _edited_model(
            model_path, tmp_path, lambda c: c["mask_rules"].__setitem__(0, ["a"])
        )
        return "predict", model, corpus_dir / "failed"
    if case == "model-config-mask-rule-not-text":
        model = _edited_model(
            model_path, tmp_path, lambda c: c["mask_rules"].__setitem__(0, [1, 2])
        )
        return "predict", model, corpus_dir / "failed"
    if case == "model-config-missing-max-children":
        model = _edited_model(model_path, tmp_path, lambda c: c.pop("max_children"))
        return "predict", model, corpus_dir / "failed"
    if case == "model-tree-depth-not-an-integer":
        model = _edited_model(model_path, tmp_path, lambda c: c.__setitem__("tree_depth", 4.0))
        return "predict", model, corpus_dir / "failed"
    if case == "model-negative-class-count":
        model = _edited_model(
            model_path, tmp_path, old="n_per_cause\t30\t14\t8\t6", new="n_per_cause\t-5\t25\t10\t5"
        )
        return "eval", model, corpus_dir, "--baselines", "rg"
    if case == "model-non-finite-cell":
        model = _edited_model(model_path, tmp_path, old="\t0.0\t", new="\tnan\t")
        return "predict", model, corpus_dir / "failed"
    if case == "spec-no-benign-template":
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"cause_counts": [2, 2], "passed_count": 1, "seed": 1, "benign": []})
        )
        return "gen", spec, "--out", tmp_path / "out"
    labels = tmp_path / "labels.csv"
    rows = (corpus_dir / "labels.csv").read_bytes()
    if case == "labels-not-utf8":
        labels.write_bytes(rows + b"caf\xe9,0\n")
    else:  # labels-field-over-csv-limit
        labels.write_bytes(rows + b"x" * 200_000 + b",0\n")
    return "train", corpus_dir, "--labels", labels, "--out", tmp_path / "m.ncc"


@pytest.mark.parametrize(
    "case",
    [
        "model-mask-rule-not-a-pair",
        "model-config-mask-rule-not-text",
        "model-config-missing-max-children",
        "model-tree-depth-not-an-integer",
        "model-negative-class-count",
        "model-non-finite-cell",
        "labels-not-utf8",
        "labels-field-over-csv-limit",
        "spec-no-benign-template",
    ],
)
def test_malformed_model_labels_or_spec_is_validation_error(
    case, corpus_dir, model_path, tmp_path
):
    result = _run_cli(*_malformed_input_args(case, corpus_dir, model_path, tmp_path))
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_eval_with_rg_and_mcc(corpus_dir, model_path, capsys):
    assert (
        main(
            [
                "eval",
                str(model_path),
                str(corpus_dir),
                "--baselines",
                "rg,mcc",
                "--seed",
                "5",
                "--rg-trials",
                "20",
            ]
        )
        == 0
    )
    stdout = capsys.readouterr().out
    assert "ncchecker" in stdout and "rg" in stdout and "mcc" in stdout
    assert "== mcc ==" in stdout


def test_eval_cam_lff_require_train_dir(corpus_dir, model_path, capsys):
    assert main(["eval", str(model_path), str(corpus_dir), "--baselines", "cam"]) == 1
    assert "--train-dir" in capsys.readouterr().err


def test_eval_all_baselines_json(corpus_dir, model_path, capsys):
    args = [
        "eval",
        str(model_path),
        str(corpus_dir),
        "--baselines",
        "rg,mcc,cam,lff",
        "--train-dir",
        str(corpus_dir),
        "--seed",
        "2",
        "--rg-trials",
        "10",
        "--json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    records = [json.loads(line) for line in first.splitlines()]
    approaches = {r["approach"] for r in records}
    assert approaches == {"ncchecker", "rg", "mcc", "cam", "lff"}
    macro = {r["approach"]: r for r in records if r["class"] == "macro"}
    # Training corpus used as test set: the model must dominate MCC.
    assert macro["ncchecker"]["f1"] > macro["mcc"]["f1"]
    # Fixed seed: the whole evaluation, random-guess median included,
    # reproduces byte for byte.
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_eval_unknown_baseline_rejected(corpus_dir, model_path):
    assert main(["eval", str(model_path), str(corpus_dir), "--baselines", "zz"]) == 1


def test_ablate_prints_checks_and_four_variants(corpus_dir, capsys):
    assert main(["ablate", str(corpus_dir), "--test-fraction", "0.2", "--seed", "4"]) == 0
    stdout = capsys.readouterr().out
    assert "check:" in stdout
    for variant in ("full", "drop1", "drop2", "drop3"):
        assert f"== {variant} ==" in stdout


def test_ablate_deterministic(corpus_dir, capsys):
    args = ["ablate", str(corpus_dir), "--test-fraction", "0.2", "--seed", "4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_usage_error_exits_one(capsys):
    assert main(["train"]) == 1
    assert "error" in capsys.readouterr().err


def test_config_file_supplies_defaults(corpus_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"similarity_threshold": 0.5, "tree_depth": 5}))
    out_a = tmp_path / "a.ncc"
    out_b = tmp_path / "b.ncc"
    assert main(["train", str(corpus_dir), "--out", str(out_a), "--config", str(config)]) == 0
    # A flag overrides the file; 0.4 matches the built-in default tree too.
    assert (
        main(
            [
                "train",
                str(corpus_dir),
                "--out",
                str(out_b),
                "--config",
                str(config),
                "--sim-threshold",
                "0.4",
            ]
        )
        == 0
    )
    assert '"similarity_threshold":0.5' in out_a.read_text().splitlines()[1]
    assert '"similarity_threshold":0.4' in out_b.read_text().splitlines()[1]


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "tree_depth", 3.9),
        ("train", "max_children", True),
        ("train", "tree_depth", "4"),
        ("train", "similarity_threshold", True),
        ("train", "similarity_threshold", "0.5"),
        ("ablate", "seed", 2.7),
        ("ablate", "test_fraction", False),
    ],
)
def test_config_file_value_of_wrong_type_rejected(command, key, value, corpus_dir, tmp_path, capsys):
    # A float or a bool for an int key is rejected, not truncated.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = ["--out", str(tmp_path / "m.ncc")] if command == "train" else []
    assert main([command, str(corpus_dir), *out, "--config", str(config)]) == 1
    assert f"config key {key!r}: expected" in capsys.readouterr().err
    assert not (tmp_path / "m.ncc").exists()


def test_config_file_integer_for_float_key_accepted(corpus_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"similarity_threshold": 1}))
    out = tmp_path / "m.ncc"
    assert main(["train", str(corpus_dir), "--out", str(out), "--config", str(config)]) == 0
    assert '"similarity_threshold":1.0' in out.read_text().splitlines()[1]


def test_config_file_unknown_key_rejected(corpus_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"similarity": 0.5}))
    assert (
        main(["train", str(corpus_dir), "--out", str(tmp_path / "m.ncc"), "--config", str(config)])
        == 1
    )
