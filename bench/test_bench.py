"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import END, PARENT, START, Tracer

BENCH_DIR = Path(__file__).resolve().parent


def tiny(workload: run.Workload) -> run.Workload:
    return dataclasses.replace(workload, train_failed=40, train_passed=10, test_failed=40)


@pytest.fixture(scope="module", autouse=True)
def one_train_per_round():
    """Tiny corpora train in milliseconds; one train a round is enough here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "TRAIN_SLICE_S", 0.0)
        yield


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every workload, untraced and traced, at tiny sizes."""
    out = {}
    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = run.run_workload(tiny(workload), 3, 1, trace, workdir)
    return out


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_correctly_and_reports_every_metric(results, name, trace):
    result = results[name, trace]
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["correct"], result["checks"]
    assert result["failed"] == 0
    assert result["attempted"] >= 40
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    assert result["environment"]["nproc"] >= 1
    assert result["gen_s"] > 0


def test_untraced_and_traced_runs_agree_on_digests(results):
    for name in run.WORKLOADS:
        assert results[name, False]["digests"] == results[name, True]["digests"]


def test_self_times_are_non_negative_and_fit_their_root(results):
    tracer = results["noisy", True]["tracer"]
    self_times = tracer.self_times()
    assert min(self_times) >= 0.0
    covered: dict[int, float] = {}
    for index, value in enumerate(self_times):
        root = tracer.root_of(index)
        covered[root] = covered.get(root, 0.0) + value
    for root, total in covered.items():
        span = tracer.spans[root]
        assert total <= span[END] - span[START] + 1e-9


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("root", trace_id="t"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    spans = tracer.spans
    self_times = tracer.self_times()
    assert [s[PARENT] for s in spans] == [None, 0, 0, 2]
    assert {s[4] for s in spans} == {"t"}
    children = sum(spans[i][END] - spans[i][START] for i in (1, 2))
    assert self_times[0] == pytest.approx(spans[0][END] - spans[0][START] - children)
    totals = tracer.totals()
    assert totals["child"]["count"] == 2


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_labels_fail_the_correctness_check(tmp_path, trace):
    inputs = run.make_inputs(tiny(run.WORKLOADS["clean"]), 5, tmp_path)
    k = run.DEFAULT_TAXONOMY.k
    wrong = {log_id: (cause + 1) % k for log_id, cause in inputs.labels.items()}
    inputs = dataclasses.replace(inputs, labels=wrong)
    result = (run.measure_traced if trace else run.measure)(inputs, 1)
    assert result["correct"] is False
    assert result["checks"]["predictions_match_labels"] is False
    assert result["failed"] == 0


def test_main_prints_the_result_object_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "short", tiny(run.WORKLOADS["short"]))
    assert run.main(["--workload", "short", "--seed", "2", "--seconds", "1", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert list(tmp_path.iterdir()) == []  # the corpora were removed


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clean", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
