"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every expected value here is either computed by an
independent oracle inside the test or asserted against frozen constants
derived by hand.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from ncchecker import build, load_corpus, predict_lines, save_model, split
from ncchecker.abstraction import WILDCARD, TemplateMiner
from ncchecker.baselines import rg_predict_from_counts
from ncchecker.cli import main as cli_main
from ncchecker.corpus import Corpus
from ncchecker.evaluation import (
    ClassMetrics,
    ablation_identities,
    confusion,
    evaluate,
    macro,
    per_class_metrics,
    score_tables,
)
from ncchecker.generator import default_spec, generate_synthetic
from ncchecker.table import (
    ABLATION_VARIANTS,
    ablation_tables,
    collect_pools,
    compute_icf,
    diff_with_pass,
    init_counts,
    majority_from_counts,
    reweight,
)

from bruteforce import brute_force_rows
from conftest import make_fig_corpus


def _passed(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {label}")


def test_criterion_1_worked_example_fixture():
    started = time.perf_counter()
    corpus = make_fig_corpus()
    miner = TemplateMiner()
    passed_seqs = [miner.parse_log(p.lines, p.log_id) for p in corpus.passed]
    labeled = [(miner.parse_log(f.lines, f.log_id), f.cause) for f in corpus.failed]
    passed_pool, failed_pool = collect_pools(passed_seqs, (s for s, _ in labeled))
    vocabulary = diff_with_pass(failed_pool, passed_pool)
    counts = init_counts(vocabulary, labeled, 4)

    by_counts = {row: eid for eid, row in counts.rows.items()}
    multi_row = by_counts[(2, 4, 1, 3)]
    five_row = by_counts[(0, 5, 0, 0)]

    assert reweight(counts.rows[multi_row]) == [0.2, 0.4, 0.1, 0.3]
    five_weights = reweight(counts.rows[five_row])
    assert abs(five_weights[1] - 2.584962500721156) <= 1e-9
    assert five_weights[0] == five_weights[2] == five_weights[3] == 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, f"worked-example rows exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_inverse_class_frequency_reference_counts():
    icf = compute_icf(4020, (2600, 885, 470, 65))
    # Quoted rounding for the majority class holds to two decimals.
    assert abs(icf[0] - 1.54) < 0.01
    # The rarest class follows the literal division: 4020 / 65 = 61.846...,
    # deliberately not the alternative figure 62.75 (which implies another N).
    assert icf[3] == 4020 / 65
    assert abs(icf[3] - 61.84615384615385) <= 1e-9
    assert abs(icf[3] - 62.75) > 0.5
    assert icf == (4020 / 2600, 4020 / 885, 4020 / 470, 4020 / 65)
    _passed(2, "icf follows N/N_j exactly; C1 rounds to 1.54, C4 is 61.85")


def test_criterion_3_oracle_equivalence_on_randomized_corpora(tmp_path):
    started = time.perf_counter()
    rng = random.Random(20_240_815)
    for trial in range(20):
        counts = tuple(rng.randint(1, 10) for _ in range(4))  # <= 40 failed logs
        spec = default_spec(
            cause_counts=counts,
            passed_count=rng.randint(3, 8),
            markers_per_cause=rng.randint(1, 3),
            noise_rate=rng.choice([0.0, 0.1, 0.25]),
            lines_range=(3, 7),
            seed=rng.randint(0, 10_000),
        )
        root = tmp_path / f"c{trial}"
        generate_synthetic(spec, root)
        corpus = load_corpus(root)
        assert len(corpus.passed) + len(corpus.failed) <= 50

        _, table = build(corpus)
        oracle = brute_force_rows(corpus)
        assert set(oracle) == set(table.rows)
        for eid, row in oracle.items():
            for got, want in zip(table.rows[eid], row):
                assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(3, f"20 randomized corpora matched the brute-force builder in {elapsed:.1f} s")


def test_criterion_4_planted_cause_end_to_end(tmp_path):
    started = time.perf_counter()
    spec = default_spec(
        cause_counts=(600, 230, 110, 15),  # 63/24/11.5/1.6% imbalance
        passed_count=150,
        markers_per_cause=4,
        noise_rate=0.1,
        seed=424_242,
    )
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    train, test = split(corpus, 0.10, seed=7)

    miner, table = build(train)
    truth, predicted = [], []
    for log in test.failed:
        prediction, _ = predict_lines(miner, table, log.lines, log.log_id)
        truth.append(log.cause)
        predicted.append(prediction.cause)
    report = evaluate(truth, predicted, corpus.taxonomy)
    assert report.f1 == 1.0

    train_counts = train.cause_counts()
    rg_report = rg_predict_from_counts(
        train_counts, truth, trials=100, seed=7, taxonomy=corpus.taxonomy
    )
    mcc_report = evaluate(
        truth, [majority_from_counts(train_counts)] * len(truth), corpus.taxonomy
    )
    assert report.f1 > rg_report.f1
    assert report.f1 > mcc_report.f1

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(
        4,
        f"macro F1 1.0 vs rg {rg_report.f1:.3f} and "
        f"mcc {mcc_report.f1:.3f} in {elapsed:.1f} s",
    )


def test_criterion_5_minority_recall_and_column_scaling(tmp_path):
    # Minority test logs hold exactly one single-problem marker plus
    # majority-leaning noise events; without the class-frequency boost the
    # majority evidence out-votes the marker.
    spec = default_spec(
        cause_counts=(120, 40, 25, 10),
        passed_count=12,
        markers_per_cause=5,
        noise_rate=0.0,
        seed=90_210,
        last_cause_contamination=5,
    )
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    train, test = split(corpus, 0.10, seed=11)

    miner, tables = ablation_tables(train)
    reports = score_tables(miner, tables, test)
    c4 = corpus.taxonomy.k - 1
    full_recall = reports["full"].per_class[c4].recall
    drop3_recall = reports["drop3"].per_class[c4].recall
    assert full_recall == 1.0
    assert full_recall >= drop3_recall

    messages = ablation_identities(tables["full"], tables["drop1"], tables["drop3"])
    assert len(messages) == 2
    _passed(
        5,
        f"minority recall full {full_recall:.2f} >= drop3 {drop3_recall:.2f}; "
        "column-scaling identity exact",
    )


def test_criterion_6_ablation_structure(tmp_path, capsys):
    spec = default_spec(cause_counts=(30, 14, 8, 6), passed_count=10, seed=61, noise_rate=0.1)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    train, _ = split(corpus, 0.2, seed=2)

    _, tables = ablation_tables(train)
    # Drop1 keeps events that also occur in passed logs: a strict superset here.
    assert set(tables["drop1"].rows) > set(tables["full"].rows)
    # Drop2 rows bypass the reweighting equations: cells are raw presence
    # counts times icf, verified against the independent naive builder.
    oracle = brute_force_rows(train, skip_reweight=True)
    assert set(oracle) == set(tables["drop2"].rows)
    for eid, row in oracle.items():
        for got, want in zip(tables["drop2"].rows[eid], row):
            assert abs(got - want) <= 1e-9

    # All four variants run on one command and emit a comparison table.
    assert cli_main(["ablate", str(tmp_path), "--test-fraction", "0.2", "--seed", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "check:" in stdout
    for variant in ABLATION_VARIANTS:
        assert variant in stdout
    _passed(6, "drop1 superset, drop2 bypass, four-variant report on one command")


def test_criterion_7_metrics_unit_suite():
    # Majority-class pattern: full recall on the majority, zeros elsewhere,
    # with the zero-denominator convention keeping every value defined.
    truth = [0] * 19 + [1] * 6 + [2] * 3 + [3] * 2
    report = evaluate(truth, [0] * len(truth), make_fig_corpus().taxonomy)
    assert report.per_class[0].recall == 1.0
    assert report.per_class[0].precision == pytest.approx(19 / 30, abs=1e-12)
    for j in (1, 2, 3):
        assert report.per_class[j] == ClassMetrics(0.0, 0.0, 0.0)

    # Macro F1 averages per-class F1 values.
    assert macro(
        [
            ClassMetrics(0.656, 1.0, 0.792),
            ClassMetrics(0.0, 0.0, 0.0),
            ClassMetrics(0.0, 0.0, 0.0),
            ClassMetrics(0.0, 0.0, 0.0),
        ],
        report.class_names,
        report.support,
    ).f1 == pytest.approx(0.198, abs=1e-12)

    # Hand-tallied confusion and direct substitution of the formulas.
    cm = confusion([0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 1, 0], 2)
    metrics = per_class_metrics(cm)
    assert metrics[0].precision == 0.75
    assert metrics[0].recall == 0.6
    assert metrics[0].f1 == pytest.approx(0.6666666666666665, abs=1e-12)
    _passed(7, "metric equations, zero conventions, and macro averaging verified")


def _interleaved_predict_latency(models, logs, rounds=4) -> list[float]:
    """Per-log predict latency of each (miner, table) pair, timed side by side.

    Each log is predicted by every model in turn, the order alternating
    between rounds, so a slow spell of the machine lands on all models
    alike. A log's time is its minimum over the rounds; the result is the
    mean of those minimums.
    """
    best = [[math.inf] * len(logs) for _ in models]
    for round_ in range(rounds):
        order = list(range(len(models)))
        if round_ % 2:
            order.reverse()
        for j, (log_id, lines) in enumerate(logs):
            for i in order:
                miner, table = models[i]
                started = time.perf_counter()
                predict_lines(miner, table, lines, log_id)
                best[i][j] = min(best[i][j], time.perf_counter() - started)
    return [sum(times) / len(logs) for times in best]


def test_criterion_8_latency_independent_of_training_size(tmp_path):
    spec = default_spec(
        cause_counts=(240, 120, 80, 40),
        passed_count=30,
        markers_per_cause=60,
        noise_rate=0.0,
        seed=808,
    )
    generate_synthetic(spec, tmp_path / "train")
    base = load_corpus(tmp_path / "train")
    doubled = Corpus(
        base.passed,
        base.failed + tuple(replace(log, log_id=log.log_id + "x") for log in base.failed),
        base.taxonomy,
    )

    miner_a, table_a = build(base)
    miner_b, table_b = build(doubled)
    assert set(table_a.rows) == set(table_b.rows)  # same table size, 2x logs
    assert len(table_a.rows) <= 500

    test_spec = default_spec(
        cause_counts=(430, 280, 190, 100),
        passed_count=0,
        markers_per_cause=60,
        noise_rate=0.0,
        seed=809,
    )
    generate_synthetic(test_spec, tmp_path / "test")
    logs = [
        (path.stem, path.read_text().splitlines())
        for path in sorted((tmp_path / "test" / "failed").glob("*.log"))
    ]
    assert len(logs) == 1000

    latency_a, latency_b = _interleaved_predict_latency(
        [(miner_a, table_a), (miner_b, table_b)], logs
    )
    assert latency_a <= 0.020  # 20 ms per log
    assert abs(latency_b - latency_a) / latency_a < 0.10

    model_path = tmp_path / "model.ncc"
    save_model(model_path, miner_a, table_a)
    size = model_path.stat().st_size
    assert size <= 100 * 1024
    _passed(
        8,
        f"{latency_a * 1000:.2f} ms/log vs {latency_b * 1000:.2f} ms/log on 2x logs; "
        f"model {size / 1024:.1f} KiB for {len(table_a.rows)} rows",
    )


def test_criterion_9_template_miner_suite():
    # The numeric pair collapses to one template with a wildcard slot.
    miner = TemplateMiner()
    first = miner.parse_line("Took 10 seconds to build instances")
    second = miner.parse_line("Took 20 seconds to build instances")
    assert first == second
    assert miner.templates[first].tokens == ("Took", "<*>", "seconds", "to", "build", "instances")
    assert len(miner.templates) == 1

    # Wildcard monotonicity over 1,000 fuzzed lines.
    rng = random.Random(99)
    words = ["link", "up", "down", "node", "probe", "sync", "drop", "10.1.2.3"]
    fuzz = [
        " ".join(
            rng.choice(words) + (str(rng.randint(0, 99)) if rng.random() < 0.5 else "")
            for _ in range(rng.randint(1, 7))
        )
        for _ in range(1000)
    ]
    trained = TemplateMiner()
    wildcard_history: dict[str, frozenset[int]] = {}
    for line in fuzz:
        event = trained.parse_line(line)
        tokens = trained.templates[event].tokens
        positions = frozenset(i for i, tok in enumerate(tokens) if tok == WILDCARD)
        assert positions >= wildcard_history.get(event, frozenset())
        wildcard_history[event] = positions

    # Frozen-mode purity over 1,000 fresh fuzzed lines.
    trained.freeze()
    registry = trained.export_registry()
    fresh = [
        " ".join(rng.choice(words) + str(rng.randint(100, 999)) for _ in range(rng.randint(1, 9)))
        for _ in range(1000)
    ]
    for line in fresh:
        trained.parse_line(line)
    assert trained.export_registry() == registry
    _passed(9, "numeric merge, wildcard monotonicity, and frozen purity hold")
