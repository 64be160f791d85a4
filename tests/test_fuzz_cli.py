"""Fuzz the CLI exit contract with mutated input files.

Each example takes a valid model, spec, config or labels file, applies a
few byte-level mutations (deletions, insertions of tokens the parsers
care about, dropped or repeated lines) and runs the commands that read
that file through ``ncchecker.cli.main`` in process.  Whatever the bytes,
``main`` must return 0, 1 or 2; any exception escaping it fails the test.
The run is derandomized with a bounded example count, so every run of
the suite tries the same inputs.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ncchecker.cli import main
from ncchecker.generator import default_spec, generate_synthetic, spec_from_dict

SPEC = {
    "cause_counts": [3, 2],
    "passed_count": 2,
    "seed": 1,
    "noise_rate": 0.1,
    "lines_range": [3, 6],
    "markers_per_cause": 2,
}
CONFIG = {
    "tree_depth": 4,
    "similarity_threshold": 0.4,
    "max_children": 100,
    "test_fraction": 0.3,
    "seed": 2,
    "k_neighbors": 3,
    "rg_trials": 5,
}
TOKENS = [
    b"\t", b"\n", b"\r", b" ", b"-", b"0", b"7", b"-1", b".5", b"1e999", b"nan", b"inf",
    b"\xff", b"\xe9", b"\x00", b'"', b",", b"[", b"]", b"{", b"}", b"null", b"true",
    b"<*>", b"e1", b"final", b"single", b"multi",
]

_mutation = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 16)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(TOKENS)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("drop_line"), st.integers(0, 10**6), st.just(None)),
    st.tuples(st.just("repeat_line"), st.integers(0, 10**6), st.just(None)),
)
_mutations = st.lists(_mutation, min_size=1, max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    for op, position, arg in mutations:
        if op in ("delete", "insert"):
            at = position % (len(data) + 1)
            if op == "delete":
                data = data[:at] + data[at + arg :]
            else:
                data = data[:at] + arg + data[at:]
            continue
        lines = data.split(b"\n")
        at = position % len(lines)
        if op == "drop_line":
            del lines[at]
        else:
            lines.insert(at, lines[at])
        data = b"\n".join(lines)
    return data


def _small_spec(data: bytes) -> bool:
    """False for a spec that would make ``gen`` write a large corpus."""

    def bounded(value) -> bool:
        if isinstance(value, (list, dict)):
            items = value.values() if isinstance(value, dict) else value
            return all(bounded(item) for item in items)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return abs(value) <= 100
        return True

    try:
        payload = json.loads(data)
    except ValueError:
        return True  # gen rejects it before writing anything
    if not bounded(payload):
        return False
    try:
        spec = spec_from_dict(payload)
    except Exception:
        return True  # gen must turn this into an exit code; let it run
    return (sum(spec.cause_counts) + spec.passed_count) * max(spec.lines_range) <= 2_000


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    generate_synthetic(
        default_spec(cause_counts=(4, 3, 2, 2), passed_count=3, seed=5, noise_rate=0.1), corpus
    )
    assert main(["train", str(corpus), "--out", str(root / "model.ncc")]) == 0
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "config.json").write_text(json.dumps(CONFIG))
    return root


def _commands(kind: str, root: Path, path: Path) -> list[list[str]]:
    corpus, out = root / "corpus", root / "out"
    if kind == "model":
        return [
            ["predict", str(path), str(corpus / "failed")],
            ["eval", str(path), str(corpus), "--baselines", "rg,mcc", "--rg-trials", "3"],
        ]
    if kind == "spec":
        return [["gen", str(path), "--out", str(out / "corpus")]]
    if kind == "config":
        return [
            ["ablate", str(corpus), "--config", str(path)],
            ["eval", str(root / "model.ncc"), str(corpus), "--config", str(path),
             "--baselines", "mcc,cam,lff", "--train-dir", str(corpus)],
        ]
    return [["train", str(corpus), "--labels", str(path), "--out", str(out / "m.ncc")]]


_ORIGINALS = {
    "model": "model.ncc",
    "spec": "spec.json",
    "config": "config.json",
    "labels": "corpus/labels.csv",
}


@pytest.mark.parametrize("kind", sorted(_ORIGINALS))
@settings(
    max_examples=50,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutations=_mutations)
def test_cli_exit_contract_holds_for_mutated_files(kind, mutations, workspace):
    data = _mutate((workspace / _ORIGINALS[kind]).read_bytes(), mutations)
    if kind == "spec":
        assume(_small_spec(data))
    path = workspace / f"mutated-{kind}"
    path.write_bytes(data)
    shutil.rmtree(workspace / "out", ignore_errors=True)
    (workspace / "out").mkdir()
    for argv in _commands(kind, workspace, path):
        assert main(argv) in (0, 1, 2), argv
