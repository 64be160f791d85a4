import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from golden_cases import corpus_digest

import ncchecker
from ncchecker import baselines as bl
from ncchecker.abstraction import DEFAULT_MASK_RULES, AbstractionConfig, EventSequence, TemplateMiner
from ncchecker.cli import _knn_docs, main
from ncchecker.corpus import PassedLog, load_corpus, read_log_lines, split
from ncchecker.generator import default_spec, generate_synthetic, spec_from_dict
from ncchecker.model import _config_to_json, load_model


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
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3


def test_gen_same_seed_identical_manifests(tmp_path):
    main(["gen", "--out", str(tmp_path / "a"), "--seed", "9"])
    main(["gen", "--out", str(tmp_path / "b"), "--seed", "9"])
    digest = lambda p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
    assert digest(tmp_path / "a" / "manifest.json") == digest(tmp_path / "b" / "manifest.json")


def test_gen_over_an_existing_corpus_is_validation_error(tmp_path, capsys):
    out = tmp_path / "g1"
    assert main(["gen", "--out", str(out), "--seed", "7"]) == 0
    before = corpus_digest(out)
    spec_path = tmp_path / "small.json"
    spec_path.write_text(json.dumps({"cause_counts": [3, 2], "passed_count": 2, "seed": 1}))
    capsys.readouterr()
    assert main(["gen", str(spec_path), "--out", str(out)]) == 1
    entries = "passed, failed, labels.csv, manifest.json"
    assert capsys.readouterr().err == f"error: {out} already holds a corpus: {entries}\n"
    assert corpus_digest(out) == before
    # Any one entry of a corpus is enough; an empty directory is not.
    for name in ("passed", "failed", "labels.csv", "manifest.json"):
        other = tmp_path / name.replace(".", "-")
        other.mkdir()
        (other / name).touch()
        assert main(["gen", str(spec_path), "--out", str(other)]) == 1
        assert [path.name for path in other.iterdir()] == [name]
    (tmp_path / "empty").mkdir()
    assert main(["gen", str(spec_path), "--out", str(tmp_path / "empty")]) == 0


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
    manifest = spec_from_dict(json.loads((corpus_dir / "manifest.json").read_text()))
    # Last failed log belongs to the last cause (cause-major file order).
    target = sorted((corpus_dir / "failed").glob("*.log"))[-1]
    assert main(["predict", str(model_path), str(target)]) == 0
    stdout = capsys.readouterr().out
    assert "ncc-report v1" in stdout
    assert "C4 third-party-library" in stdout
    flag_lines = [l for l in stdout.splitlines() if l.startswith("flag\t")]
    assert flag_lines
    heads = {t.split()[0] for t in manifest.markers[3]}
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
    command = [sys.executable, "-m", "ncchecker", *map(str, args)]
    return subprocess.run(command, env=env, capture_output=True, text=True)


def _run_cli_into_closed_pipe(*args, unbuffered=False) -> subprocess.CompletedProcess:
    """``_run_cli`` with stdout a pipe whose read end closed before the CLI started.

    Buffered, a short report first meets the closed pipe in the final
    flush; unbuffered, in its first write.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ncchecker.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        command = [sys.executable, "-m", "ncchecker", *map(str, args)]
        return subprocess.run(
            command,
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_ends_the_command_quietly(corpus_dir, model_path, tmp_path, unbuffered):
    failed = corpus_dir / "failed"
    for args in (
        ("predict", model_path, failed),
        ("predict", model_path, failed, "--json"),
        ("predict", model_path, sorted(failed.glob("*.log"))[0]),
        ("eval", model_path, corpus_dir),
        ("train", corpus_dir, "--out", tmp_path / "m.ncc"),
    ):
        result = _run_cli_into_closed_pipe(*args, unbuffered=unbuffered)
        assert (result.returncode, result.stderr) == (0, ""), args
    assert (tmp_path / "m.ncc").read_bytes() == model_path.read_bytes()


def test_a_failed_write_to_another_file_is_io_error_with_stdout_closed(corpus_dir, tmp_path):
    result = _run_cli_into_closed_pipe("train", corpus_dir, "--out", tmp_path / "no" / "m.ncc")
    assert result.returncode == 2
    assert result.stderr.startswith("i/o error:")
    assert "Traceback" not in result.stderr


def test_a_broken_pipe_on_another_file_is_io_error(corpus_dir, tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("ncchecker.cli.save_model", broken)
    assert main(["train", str(corpus_dir), "--out", str(tmp_path / "m.ncc")]) == 2
    assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"


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
    assert not (tmp_path / "m.ncc").exists()


def _corpus_with_an_unreadable_failed_log(root):
    """Failed logs f1-f3 of cause 0, and ``failed/x.log``, a directory, labelled 1."""
    (root / "failed").mkdir(parents=True)
    for name in ("f1", "f2", "f3"):
        (root / "failed" / f"{name}.log").write_text(f"step {name} failed\n")
    (root / "failed" / "x.log").mkdir()
    (root / "labels.csv").write_text("log_id,cause_id\nf1,0\nf2,0\nf3,0\nx,1\n")
    return root


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_a_failed_log_that_is_a_directory_is_io_error(model_path, tmp_path, command):
    # The log is listed when the corpus loads and read when it is parsed.
    corpus = _corpus_with_an_unreadable_failed_log(tmp_path / "corpus")
    args = {
        "train": ("train", corpus, "--out", tmp_path / "m.ncc"),
        "eval": ("eval", model_path, corpus),
        "ablate": ("ablate", corpus, "--test-fraction", "0.5"),
    }[command]
    result = _run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.startswith("i/o error:")
    assert result.stderr.rstrip().endswith(repr(str(corpus / "failed" / "x.log")))
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "m.ncc").exists()


def test_train_on_a_log_that_cannot_be_opened_is_io_error(tmp_path):
    for group in ("passed", "failed"):
        (tmp_path / group).mkdir()
    (tmp_path / "failed" / "f1.log").write_text("boom\n")
    (tmp_path / "labels.csv").write_text("log_id,cause_id\nf1,0\n")
    (tmp_path / "passed" / "gone.log").symlink_to(tmp_path / "missing")
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


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_predict_prints_the_reports_before_an_unreadable_log_then_exits_2(
    corpus_dir, model_path, tmp_path, flags
):
    logs = tmp_path / "logs"
    logs.mkdir()
    for log in sorted((corpus_dir / "failed").glob("*.log"))[:3]:
        (logs / log.name).write_bytes(log.read_bytes())
    readable = _run_cli("predict", model_path, logs, *flags)
    assert (readable.returncode, readable.stderr) == (0, "")
    (logs / "zzz.log").mkdir()
    result = _run_cli("predict", model_path, logs, *flags)
    assert result.returncode == 2
    assert result.stdout == readable.stdout
    assert result.stderr.startswith("i/o error:")
    assert result.stderr.rstrip().endswith(repr(str(logs / "zzz.log")))


def test_predict_non_utf8_model_is_validation_error(corpus_dir, model_path, tmp_path):
    bad = tmp_path / "latin1.ncc"
    bad.write_bytes(model_path.read_bytes().replace(b"templates\t", b"templates\xff\t", 1))
    result = _run_cli("predict", bad, corpus_dir / "failed")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_predict_on_a_model_with_other_mask_rules_is_bad_config(corpus_dir, model_path, tmp_path):
    # A config names no mask rules: every miner masks with the defaults.
    rules = [list(rule) for rule in reversed(DEFAULT_MASK_RULES)]
    model = _edited_model(model_path, tmp_path, lambda c: c.__setitem__("mask_rules", rules))
    result = _run_cli("predict", model, corpus_dir / "failed")
    assert result.returncode == 1
    assert result.stderr == (
        "error: model line 2: bad config: "
        "AbstractionConfig.__init__() got an unexpected keyword argument 'mask_rules'\n"
    )


def _assert_predict_says_to_retrain(version, corpus_dir, model_path, tmp_path):
    model = tmp_path / f"{version}.ncc"
    model.write_text(model_path.read_text().replace("ncc-model v3\n", f"ncc-model {version}\n", 1))
    result = _run_cli("predict", model, corpus_dir / "failed")
    assert result.returncode == 1
    assert result.stderr == (
        f"error: model line 1: expected header 'ncc-model v3', found 'ncc-model {version}'; "
        "retrain it with `ncchecker train`\n"
    )
    assert result.stdout == ""


def test_predict_on_a_v1_model_says_to_retrain(corpus_dir, model_path, tmp_path):
    # v1 stored scores, not the counts they are derived from: no reader for it.
    _assert_predict_says_to_retrain("v1", corpus_dir, model_path, tmp_path)


def test_predict_on_a_v2_model_says_to_retrain(corpus_dir, model_path, tmp_path):
    # v2 stored an id on each registry row; v3 names a template by its row.
    _assert_predict_says_to_retrain("v2", corpus_dir, model_path, tmp_path)


@pytest.mark.parametrize("command", ["train", "predict", "eval", "ablate"])
def test_no_command_takes_a_config_file(command, corpus_dir, model_path, tmp_path):
    # Each setting has one source, its flag.
    config = tmp_path / "config.json"
    config.write_text("{}")
    out = tmp_path / "out"
    args = {
        "train": (corpus_dir, "--out", out),
        "predict": (model_path, corpus_dir / "failed"),
        "eval": (model_path, corpus_dir),
        "ablate": (corpus_dir,),
    }[command]
    result = _run_cli(command, *args, "--config", config)
    assert result.returncode == 1
    assert result.stderr.startswith("error: unrecognized arguments: --config ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


def test_predict_on_a_model_naming_a_template_unknown_is_validation_error(
    corpus_dir, model_path, tmp_path
):
    # A frozen parse returns "<unknown>" for a line no template matches, and
    # templates are named e<n> by their registry row, so a table row under
    # that id could never score.
    text = model_path.read_text()
    event_id = text.split("\nsteps\t", 1)[1].split("\n", 2)[1].partition("\t")[0]
    model = tmp_path / "unknown.ncc"
    model.write_text(text.replace(f"\n{event_id}\t", "\n<unknown>\t"))
    result = _run_cli("predict", model, corpus_dir / "failed")
    assert result.returncode == 1
    assert re.fullmatch(
        r"error: table line \d+: row for event '<unknown>', which the template registry lacks\n",
        result.stderr,
    )
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_predict_invalid_mask_regex_is_validation_error(corpus_dir, model_path, tmp_path):
    header, config_line, rest = model_path.read_text().split("\n", 2)
    key, _, payload = config_line.partition("\t")
    config = json.loads(payload)
    config["mask_rules"] = [["(unclosed", "<*>"]]
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
        (
            "gen",
            json.dumps(
                {
                    "cause_counts": [2, 2],
                    "passed_count": 1,
                    "seed": 1,
                    "markers": [["A x"], ["B y"]],
                    "markers_per_cause": "junk",
                }
            ),
        ),
        ("train", ("--tree-depth", "abc")),
        ("eval", ("--seed", "abc")),
        ("eval", ("--k-neighbors", "0", "--baselines", "cam,lff", "--train-dir", "missing-train")),
        ("eval", ("--k-neighbors", "0", "--baselines", "rg")),
        ("eval", ("--rg-trials", "0", "--baselines", "mcc")),
        ("eval", ("--rg-trials", "-3", "--baselines", "rg")),
        ("eval", ("--baselines", "zz")),
        ("eval", ("--baselines", "cam")),
        ("eval", ("--baselines", "rg", "--train-dir", "missing-train")),
        ("eval", ("--baselines", "rg,mcc", "--train-labels", "missing.csv")),
        ("eval", ("--train-dir", "missing-train", "--train-labels", "missing.csv")),
        ("ablate", ("--seed", "abc")),
    ],
    ids=[
        "gen-invalid-json",
        "gen-cause-count-x",
        "gen-markers-not-list",
        "gen-markers-and-markers-per-cause",
        "train-tree-depth",
        "eval-seed",
        "eval-k-neighbors-zero",
        "eval-k-neighbors-zero-rg",
        "eval-rg-trials-zero-mcc",
        "eval-rg-trials-negative-rg",
        "eval-baselines-unknown",
        "eval-baselines-cam-without-train-dir",
        "eval-train-dir-without-cam-or-lff",
        "eval-train-labels-without-cam-or-lff",
        "eval-train-flags-without-baselines",
        "ablate-seed",
    ],
)
def test_malformed_spec_or_config_value_is_validation_error(
    command, content, corpus_dir, model_path, tmp_path
):
    # A gen case's content is a spec file; any other case's is its flags.
    # eval's model is missing, and so is a --train-dir it names, so exit 1
    # rather than 2 shows that a bad flag is rejected before any file is read.
    path = tmp_path / "input.json"
    args = {
        "gen": (path, "--out", tmp_path / "out"),
        "train": (corpus_dir, "--out", tmp_path / "m.ncc"),
        "eval": (tmp_path / "missing.ncc", corpus_dir),
        "ablate": (corpus_dir,),
    }[command]
    if command == "gen":
        path.write_text(content)
    else:
        args += content
    result = _run_cli(command, *args)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("target", ["model", "spec"])
@pytest.mark.parametrize(
    "payload", ["[" * 200_000, "1" * 5_000], ids=["deeply-nested", "int-over-4300-digits"]
)
def test_json_too_deep_or_long_is_validation_error(
    target, payload, corpus_dir, model_path, tmp_path
):
    # json.loads raises RecursionError, or a ValueError that is no JSONDecodeError.
    if target == "model":
        header, _, rest = model_path.read_text().split("\n", 2)
        path = tmp_path / "bad.ncc"
        path.write_text(f"{header}\nconfig\t{payload}\n{rest}")
        args = ("predict", path, corpus_dir / "failed")
    else:
        path = tmp_path / "bad.json"
        path.write_text(payload)
        args = ("gen", path, "--out", tmp_path / "out")
    result = _run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("cause_counts", [3.9, 2]),
        ("seed", "5"),
        ("passed_count", True),
        ("lines_range", [6.5, 8]),
        ("markers", [["A marker"], [" "]]),
        ("markers", [["A marker"], ["B first\nsecond"]]),
    ],
    ids=[
        "count-float", "seed-text", "passed-bool", "lines-float", "marker-blank", "marker-two-lines"
    ],
)
def test_gen_spec_value_of_wrong_type_rejected(key, value, tmp_path, capsys):
    # Nothing is truncated or parsed.
    spec = {"cause_counts": [3, 2], "passed_count": 2, "seed": 1, key: value}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["gen", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_gen_spec_integer_noise_rate_accepted(tmp_path):
    path = tmp_path / "spec.json"
    spec = {"cause_counts": [3, 2], "passed_count": 2, "seed": 1, "noise_rate": 0}
    path.write_text(json.dumps(spec))
    assert main(["gen", str(path), "--out", str(tmp_path / "out")]) == 0
    assert '"noise_rate": 0.0,' in (tmp_path / "out" / "manifest.json").read_text()


@pytest.mark.parametrize(
    "command, content, key",
    [
        ("gen", '{"cause_counts": [3, 2], "passed_count": 1, "seed": 1, "seed": 2}', "seed"),
        ("gen", '{"cause_counts": [3, 2], "passed_count": 1, "benign": [{"a": 1, "a": 2}]}', "a"),
    ],
    ids=["spec", "spec-nested"],
)
def test_duplicate_json_key_is_validation_error(command, content, key, tmp_path, capsys):
    # Found at any depth, before a missing "seed" or a benign template that is no text.
    path = tmp_path / "input.json"
    path.write_text(content)
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: spec file {path}: duplicate key {key!r}\n"
    assert not out.exists()


def _edited_model(model_path, tmp_path, edit_config=None, old="", new=""):
    """A copy of the model with its config JSON edited and ``old`` replaced."""
    header, config_line, rest = model_path.read_text().split("\n", 2)
    key, _, payload = config_line.partition("\t")
    config = json.loads(payload)
    if edit_config is not None:
        edit_config(config)
    assert old in rest
    bad = tmp_path / "edited.ncc"
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))  # as the writer writes it
    bad.write_text(f"{header}\n{key}\t{payload}\n{rest.replace(old, new, 1)}")
    return bad


# Cases that replace the model line starting with a field name.
_MODEL_TABLE_EDITS = {
    "model-templates-count-negative": ("templates\t", "templates\t-1"),
    "model-class-count-missing": ("n_per_cause\t", "n_per_cause\t30\t14\t8"),
    "model-steps-unknown": ("steps\t", "steps\tfinal"),
}


def _malformed_input_args(case, corpus_dir, model_path, tmp_path):
    if case == "model-mask-rule-not-a-pair":
        model = _edited_model(model_path, tmp_path, lambda c: c.__setitem__("mask_rules", [["a"]]))
        return "predict", model, corpus_dir / "failed"
    if case == "model-config-mask-rule-not-text":
        model = _edited_model(
            model_path, tmp_path, lambda c: c.__setitem__("mask_rules", [[1, 2]])
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
    if case == "model-row-without-template":
        steps, first_row = model_path.read_text().split("\nsteps\t", 1)[1].split("\n", 2)[:2]
        event_id = first_row.partition("\t")[0]
        model = _edited_model(
            model_path, tmp_path, old=f"{steps}\n{event_id}\t", new=f"{steps}\ne99999\t"
        )
        return "predict", model, corpus_dir / "failed"
    if case in _MODEL_TABLE_EDITS:
        field, new = _MODEL_TABLE_EDITS[case]
        lines = model_path.read_text().splitlines()
        old = next(line for line in lines if line.startswith(field))
        model = _edited_model(model_path, tmp_path, old=old, new=new)
        return "predict", model, corpus_dir / "failed"
    if case == "model-line-after-table":
        model = tmp_path / "edited.ncc"
        model.write_text(model_path.read_text() + "e99999\t0\t1\t0\t0\n")
        return "predict", model, corpus_dir / "failed"
    if case in ("model-count-above-class-size", "model-all-zero-row", "model-non-finite-cell"):
        # The first row holds one count of C1, of which there are 30 logs.
        first_row = model_path.read_text().split("\nsteps\t", 1)[1].split("\n", 2)[1]
        eid, _, cells = first_row.partition("\t")
        assert cells.endswith("\t0\t0\t0")
        new = {
            "model-count-above-class-size": "31\t0\t0\t0",
            "model-all-zero-row": "0\t0\t0\t0",
            "model-non-finite-cell": "nan\t0\t0\t0",
        }[case]
        model = _edited_model(model_path, tmp_path, old=first_row, new=f"{eid}\t{new}")
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
        "model-row-without-template",
        *_MODEL_TABLE_EDITS,
        "model-line-after-table",
        "model-count-above-class-size",
        "model-all-zero-row",
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


def test_predict_on_a_bad_model_names_the_file_line(corpus_dir, model_path, tmp_path):
    # A count the writer would spell otherwise: 0 written as 00.
    lines = model_path.read_text().splitlines()
    at = lines.index("steps\treweight,icf") + 1
    found = lines[at].replace("\t0\t", "\t00\t", 1)
    lines[at] = found
    model = tmp_path / "bad.ncc"
    model.write_text("\n".join(lines) + "\n")
    result = _run_cli("predict", model, corpus_dir / "failed")
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: table line {at + 1}: expected ")
    assert result.stderr.rstrip().endswith(f"found {found!r}")


def test_predict_with_an_event_id_past_the_int_digit_limit(corpus_dir, model_path, tmp_path):
    # Python's int() refuses more than 4,300 digits.  No registry has that
    # many rows, so the renamed table row names no template.
    lines = model_path.read_text().splitlines()
    at = lines.index("steps\treweight,icf") + 1
    event_id = lines[at].partition("\t")[0]
    renamed = "e" + "1" * 5000
    lines[at] = renamed + lines[at][len(event_id) :]
    model = tmp_path / "long-id.ncc"
    model.write_text("\n".join(lines) + "\n")
    result = _run_cli("predict", model, corpus_dir / "failed", "--json")
    assert result.returncode == 1
    assert result.stderr == (
        f"error: table line {at + 1}: row for event {renamed!r}, "
        "which the template registry lacks\n"
    )
    assert result.stdout == ""


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


def test_eval_runs_a_repeated_baseline_once(corpus_dir, model_path, capsys, monkeypatch):
    trained = []
    knn_train = bl.knn_train
    monkeypatch.setattr(bl, "knn_train", lambda *a: trained.append(a) or knn_train(*a))
    args = ["eval", str(model_path), str(corpus_dir), "--train-dir", str(corpus_dir), "--json"]
    assert main([*args, "--baselines", "cam, lff,cam,,lff"]) == 0
    repeated = capsys.readouterr().out
    assert len(trained) == 2
    assert main([*args, "--baselines", "cam,lff"]) == 0
    assert capsys.readouterr().out == repeated


def test_knn_documents_count_raw_terms_for_cam_and_known_events_once_for_lff(
    corpus_dir, model_path
):
    # Each log twice over: cam's term counts double, lff's events stay at 1.
    miner, table = load_model(model_path)
    logs = load_corpus(corpus_dir).failed[:5]
    doubled = [replace(log, lines=log.lines + log.lines) for log in logs]
    vocabulary = frozenset(table.rows)
    cam_once = _knn_docs("cam", logs, miner, vocabulary)
    cam_twice = _knn_docs("cam", doubled, miner, vocabulary)
    assert cam_once[0] == Counter(" ".join(logs[0].lines).split())
    assert cam_twice == [doc + doc for doc in cam_once]
    lff_docs = _knn_docs("lff", doubled, miner, vocabulary)
    assert len(lff_docs) == len(logs)
    for log, doc in zip(logs, lff_docs):
        sequence = miner.parse_log(log.lines, log.log_id)
        assert set(doc) == {event for event in sequence.events if event in table.rows}
        assert set(doc.values()) <= {1}
    assert any(lff_docs)


def test_cam_documents_split_each_log_text_once_at_any_whitespace(tmp_path):
    # Vertical tab, form feed, file separator, NEL and U+2028 are whitespace
    # to str.split(), as "\n" is, so one split of a log's text gives the
    # terms of every line.
    lines = ("a\x0bb c\x0cd", "e\x1cf \x85g", "h\u2028i  j", "", "k")
    (tmp_path / "passed").mkdir()
    path = tmp_path / "passed" / "p2.log"
    path.write_bytes("\r\n".join(lines).encode() + b"\r")
    logs = [PassedLog("p1", lines), load_corpus(tmp_path).passed[0]]
    assert read_log_lines(path) == lines
    want = Counter(term for line in lines for term in line.split())
    assert sorted(want) == list("abcdefghijk")
    assert _knn_docs("cam", logs, None, frozenset()) == [want, want]


def test_ablate_prints_checks_and_four_variants(corpus_dir, capsys):
    assert main(["ablate", str(corpus_dir), "--test-fraction", "0.2", "--seed", "4"]) == 0
    stdout = capsys.readouterr().out
    assert "check:" in stdout
    for variant in ("full", "drop1", "drop2", "drop3"):
        assert f"== {variant} ==" in stdout


def test_ablate_mines_once_and_parses_the_test_logs_once(corpus_dir, capsys, monkeypatch):
    # One miner; one event_sets pass over the training logs and one over the
    # failed test logs; no log parsed to an EventSequence.
    miners, passes = [], []
    init, event_sets = TemplateMiner.__init__, TemplateMiner.event_sets

    def counted_init(self, *args, **kwargs):
        miners.append(self)
        init(self, *args, **kwargs)

    def counted_event_sets(self, texts):
        texts = list(texts)
        assert all(type(text) is str for text in texts)
        passes.append((self, len(texts)))
        return event_sets(self, texts)

    def refuse(self, *args):
        raise AssertionError("ablate made an EventSequence")

    monkeypatch.setattr(TemplateMiner, "__init__", counted_init)
    monkeypatch.setattr(TemplateMiner, "event_sets", counted_event_sets)
    monkeypatch.setattr(EventSequence, "__init__", refuse)
    assert main(["ablate", str(corpus_dir), "--test-fraction", "0.2", "--seed", "4"]) == 0
    assert "== drop3 ==" in capsys.readouterr().out
    train, test = split(load_corpus(corpus_dir), 0.2, 4)
    assert len(miners) == 1
    assert passes == [
        (miners[0], len(train.passed) + len(train.failed)),
        (miners[0], len(test.failed)),
    ]


def test_ablate_deterministic(corpus_dir, capsys):
    args = ["ablate", str(corpus_dir), "--test-fraction", "0.2", "--seed", "4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_usage_error_exits_one(capsys):
    assert main(["train"]) == 1
    assert "error" in capsys.readouterr().err


def test_python_dash_m_ncchecker_runs_the_cli():
    shown = _run_cli("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: ncchecker ")
    refused = _run_cli("train")
    assert refused.returncode == 1
    assert refused.stderr == "error: the following arguments are required: corpus, --out\n"


def test_miner_flags_set_the_model_config(corpus_dir, tmp_path):
    out = tmp_path / "m.ncc"
    flags = ["--sim-threshold", "0.5", "--tree-depth", "5"]
    assert main(["train", str(corpus_dir), "--out", str(out), *flags]) == 0
    config_line = out.read_text().splitlines()[1]
    assert '"similarity_threshold":0.5' in config_line
    assert '"tree_depth":5' in config_line
    # Without miner flags every setting takes the AbstractionConfig default.
    assert main(["train", str(corpus_dir), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == f"config\t{_config_to_json(AbstractionConfig())}"
