#!/usr/bin/env python3
"""ncchecker benchmark: train, set-up and predict on fixed-seed synthetic corpora.

Run from the repository root:

    python3 bench/run.py --workload noisy --seed 7 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 35 --trace 0

The untraced run (``--trace 0``) times the user path of ``ncchecker
train`` and ``ncchecker predict`` through the library calls the CLI makes
and prints the end-to-end metrics.  The traced run (``--trace 1``) replays
the same path stage by stage under spans and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(ROOT / "src"))
try:
    from ncchecker.abstraction import (
        UNKNOWN_EVENT_ID,
        AbstractionConfig,
        TemplateMiner,
        preprocess,
    )
    from ncchecker.corpus import DEFAULT_TAXONOMY, load_corpus, load_labels, read_log_lines
    from ncchecker.evaluation import evaluate
    from ncchecker.generator import default_spec, generate_synthetic
    from ncchecker.model import load_model, save_model
    from ncchecker.predictor import flag_lines, predict, predict_lines
    from ncchecker.table import (
        MULTI,
        SINGLE,
        apply_icf,
        build,
        collect_pools,
        diff_with_pass,
        init_counts,
        scores_from_counts,
        table_from_text,
    )
except ImportError as exc:
    sys.exit(f"error: cannot import ncchecker from {ROOT / 'src'}: {exc}")

# The CLI's defaults: ``ncchecker train`` without flags uses these.
CONFIG = AbstractionConfig()

# Class imbalance of the planted causes.
IMBALANCE = (48, 32, 20, 10)

# A run is a series of rounds.  Each round trains at least once and for at
# least TRAIN_SLICE_S seconds, loads the model at least MIN_LOADS times and
# for at least LOAD_SLICE_S seconds, and predicts every test log once.  Rounds repeat while another one fits in --seconds,
# at least MIN_ROUNDS times.  Each metric is the median over the rounds.
MIN_ROUNDS = 3
TRAIN_SLICE_S = 2.0
MIN_LOADS = 3
LOAD_SLICE_S = 0.3

# Shared hosts run the same code up to about 1.6 times slower for minutes
# at a time.  Every end-to-end time is rescaled by the pace of a fixed probe
# timed just before and after it: t * PROBE_REFERENCE_S / probe seconds.
# The probe calls no ncchecker code, so a change to the program cannot move
# it.  During predict passes the probe runs after every PROBE_EVERY_S of
# measured work.  See README.md.
PROBE_REFERENCE_S = 0.001
PROBE_EVERY_S = 0.1
_PROBE_LINES = tuple(
    f"worker {i} took {i * 37 % 1000} ms at /var/log/app{i % 7}.log:{i} state ok"
    for i in range(64)
)
_PROBE_DIGITS = re.compile(r"\d+")


@dataclass(frozen=True)
class Workload:
    name: str
    noise_rate: float
    lines_range: tuple[int, int]
    train_failed: int
    train_passed: int
    test_failed: int


# Why each workload exists is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean", 0.0, (50, 150), 500, 150, 1000),
        Workload("noisy", 0.1, (50, 150), 300, 60, 1000),
        Workload("short", 0.0, (6, 12), 2750, 750, 1100),
    )
}

END_TO_END_UNITS = {
    "train_lines_per_s": "lines/s",
    "setup_s": "s",
    "predict_ms_p50": "ms/log",
    "predict_ms_p99": "ms/log",
    "predict_lines_per_s": "lines/s",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
    "macro_f1": "fraction",
}

PER_LAYER_UNITS = {
    "corpus.load_s": "s",
    "corpus.read_s": "s",
    "corpus.files": "count",
    "corpus.bytes": "bytes",
    "abstraction.preprocess_s": "s",
    "abstraction.train_parse_s": "s",
    "abstraction.train_match_s": "s",
    "abstraction.frozen_parse_s": "s",
    "abstraction.frozen_match_s": "s",
    "abstraction.templates": "count",
    "abstraction.max_templates_per_length": "count",
    "abstraction.unknown_rate": "fraction",
    "abstraction.blank_lines": "count",
    "table.pools_s": "s",
    "table.diff_s": "s",
    "table.counts_s": "s",
    "table.reweight_s": "s",
    "table.icf_s": "s",
    "table.rows": "count",
    "table.rows_single": "count",
    "table.rows_multi": "count",
    "model.save_s": "s",
    "model.registry_load_s": "s",
    "model.table_load_s": "s",
    "predictor.predict_s": "s",
    "predictor.flag_s": "s",
    "predictor.contributors": "count",
    "predictor.flagged_lines": "count",
    "predictor.fallbacks": "count",
    "trace.overhead_pct": "%",
}


# -- set-up: corpus generation -------------------------------------------


def cause_counts(total: int) -> tuple[int, ...]:
    weight = sum(IMBALANCE)
    counts = [total * w // weight for w in IMBALANCE]
    counts[0] += total - sum(counts)
    return tuple(counts)


@dataclass(frozen=True)
class Inputs:
    train_dir: Path
    test_files: list[Path]
    labels: dict[str, int]
    model_path: Path


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the training and test corpora; the test corpus has no passed logs."""
    train_dir, test_dir = workdir / "train", workdir / "test"
    for out, failed, passed, corpus_seed in (
        (train_dir, workload.train_failed, workload.train_passed, 2 * seed),
        (test_dir, workload.test_failed, 0, 2 * seed + 1),
    ):
        spec = default_spec(
            cause_counts(failed),
            passed,
            noise_rate=workload.noise_rate,
            lines_range=workload.lines_range,
            seed=corpus_seed,
        )
        generate_synthetic(spec, out)
    return Inputs(
        train_dir=train_dir,
        test_files=sorted((test_dir / "failed").glob("*.log")),
        labels=load_labels(test_dir / "labels.csv", DEFAULT_TAXONOMY),
        model_path=workdir / "model.ncc",
    )


# -- output checks ---------------------------------------------------------


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def predictions_digest(files, causes) -> str:
    return sha256_text("".join(f"{path.stem}\t{cause}\n" for path, cause in zip(files, causes)))


def same_table(a, b) -> bool:
    return (a.rows, a.kinds, a.icf, a.n_per_cause) == (b.rows, b.kinds, b.icf, b.n_per_cause)


class Checks:
    """Named pass/fail output checks; one failure marks the run incorrect."""

    def __init__(self):
        self.results: dict[str, bool] = {}

    def add(self, name: str, ok: bool) -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)

    @property
    def ok(self) -> bool:
        return all(self.results.values())


def label_checks(checks: Checks, inputs: Inputs, causes) -> float:
    """Compare predicted causes with the planted labels; return macro F1."""
    truth = [inputs.labels[path.stem] for path in inputs.test_files]
    k = DEFAULT_TAXONOMY.k
    # A log whose predict raised counts as a wrong prediction.
    predicted = [c if c is not None else (t + 1) % k for c, t in zip(causes, truth)]
    checks.add("predictions_match_labels", predicted == truth and None not in causes)
    return evaluate(truth, predicted, DEFAULT_TAXONOMY).f1


# -- pace ------------------------------------------------------------------------


def _probe_once() -> float:
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(4):
        for line in _PROBE_LINES:
            for token in _PROBE_DIGITS.sub("<*>", line).split():
                counts[token] = counts.get(token, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the fixed probe work takes now: the fastest of three tries."""
    return min(_probe_once() for _ in range(3))


def rescale(seconds: float, pace_before: float, pace_after: float) -> float:
    return seconds * PROBE_REFERENCE_S * 2 / (pace_before + pace_after)


# -- rounds --------------------------------------------------------------------


def run_rounds(seconds: float, min_rounds: int, one_round) -> list:
    """Call ``one_round`` until another call would overrun ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - start
        if len(results) >= min_rounds and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


@dataclass
class Round:
    train_s: list[float]
    train_scaled: list[float]
    train_lines: int
    model_digest: str
    load_s: list[float]
    load_scaled: list[float]
    latencies: list  # seconds per test log; None where predict raised
    scaled: list  # the same, rescaled to the reference pace
    causes: list  # predicted cause per test log; None where predict raised
    outputs_digest: str  # causes and flagged lines, to compare rounds
    lines_read: int
    peak_rss_mb: float  # of the process so far, before later rounds' records

    @property
    def failed(self) -> int:
        return self.causes.count(None)


def outputs_digest(causes, flagged) -> str:
    return sha256_text(repr((causes, flagged)))


# -- the user path, untraced -----------------------------------------------


def train_once(train_dir: Path, model_path: Path):
    """``ncchecker train``: load_corpus -> build -> save_model."""
    corpus = load_corpus(train_dir)
    miner, table = build(corpus, CONFIG)
    save_model(model_path, miner, table)
    return corpus, miner, table


def predict_pass(miner, table, files):
    """``ncchecker predict model dir/`` without the report, timed per log.

    The pace probe runs before the first log, after every PROBE_EVERY_S of
    predict time and after the last log; each log is rescaled by the mean
    of the probes on either side of it.
    """
    latencies, scaled, causes, flagged_all = [], [], [], []
    lines_read = 0
    pace, since_probe, segment_start = probe(), 0.0, 0
    for index, path in enumerate(files):
        start = time.perf_counter()
        try:
            lines = read_log_lines(path)
            prediction, events = predict_lines(miner, table, lines, path.stem)
            flagged = flag_lines(prediction, events, miner)
        except Exception as exc:  # a log whose predict raises is counted, not fatal
            print(f"predict failed on {path.name}: {exc!r}", file=sys.stderr)
            latencies.append(None)
            causes.append(None)
            flagged_all.append(None)
        else:
            latency = time.perf_counter() - start
            latencies.append(latency)
            since_probe += latency
            lines_read += len(lines)
            causes.append(prediction.cause)
            flagged_all.append(flagged)
        if since_probe >= PROBE_EVERY_S or index == len(files) - 1:
            next_pace = probe()
            scaled.extend(
                None if t is None else rescale(t, pace, next_pace)
                for t in latencies[segment_start:]
            )
            pace, since_probe, segment_start = next_pace, 0.0, index + 1
    return latencies, scaled, causes, flagged_all, lines_read


def untraced_round(inputs: Inputs, checks: Checks):
    """Train, set up and predict once; return the round and the models it made."""
    train_s, train_scaled = [], []
    while not train_s or sum(train_s) < TRAIN_SLICE_S:
        gc.collect()
        pace = probe()
        start = time.perf_counter()
        corpus, miner, table = train_once(inputs.train_dir, inputs.model_path)
        train_s.append(time.perf_counter() - start)
        train_scaled.append(rescale(train_s[-1], pace, probe()))

    gc.collect()
    load_s = []
    pace = probe()
    while len(load_s) < MIN_LOADS or sum(load_s) < LOAD_SLICE_S:
        start = time.perf_counter()
        loaded = load_model(inputs.model_path)
        load_s.append(time.perf_counter() - start)
    next_pace = probe()
    checks.add("reload_same_registry", loaded[0].export_registry() == miner.export_registry())
    checks.add("reload_same_table", same_table(loaded[1], table))

    gc.collect()
    latencies, scaled, causes, flagged, lines_read = predict_pass(*loaded, inputs.test_files)
    result = Round(
        train_s=train_s,
        train_scaled=train_scaled,
        train_lines=sum(len(log.lines) for log in corpus.passed + corpus.failed),
        model_digest=sha256_text(inputs.model_path.read_text(encoding="utf-8")),
        load_s=load_s,
        load_scaled=[rescale(t, pace, next_pace) for t in load_s],
        latencies=latencies,
        scaled=scaled,
        causes=causes,
        outputs_digest=outputs_digest(causes, flagged),
        lines_read=lines_read,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return result, (miner, table, loaded)


def per_log_medians(per_round: list[list]) -> list[float]:
    """Each test log's median over the rounds (logs whose predict never raised)."""
    return [statistics.median(s) for s in zip(*per_round) if None not in s]


def timing_metrics(rounds: list[Round], scaled: bool) -> dict:
    train = [t for r in rounds for t in (r.train_scaled if scaled else r.train_s)]
    loads = [t for r in rounds for t in (r.load_scaled if scaled else r.load_s)]
    per_log = per_log_medians([r.scaled if scaled else r.latencies for r in rounds])
    return {
        "train_lines_per_s": rounds[0].train_lines / statistics.median(train),
        "setup_s": statistics.median(loads),
        "predict_ms_p50": statistics.median(per_log) * 1e3,
        "predict_ms_p99": statistics.quantiles(per_log, n=100)[98] * 1e3,
        "predict_lines_per_s": rounds[0].lines_read / sum(per_log),
    }


def measure(inputs: Inputs, seconds: float) -> dict:
    checks = Checks()
    rounds = run_rounds(seconds, MIN_ROUNDS, lambda: untraced_round(inputs, checks)[0])
    first = rounds[0]
    for r in rounds:
        checks.add("model_deterministic", r.model_digest == first.model_digest)
        checks.add("predictions_stable", r.outputs_digest == first.outputs_digest)
    macro_f1 = label_checks(checks, inputs, first.causes)

    failed = sum(r.failed for r in rounds)
    metrics = timing_metrics(rounds, scaled=True)
    metrics.update(
        model_bytes=inputs.model_path.stat().st_size,
        # The program's footprint peaks in the first round; later rounds only
        # add the benchmark's own per-round records.
        peak_rss_mb=first.peak_rss_mb,
        macro_f1=macro_f1,
    )
    return {
        "correct": checks.ok and failed == 0,
        "attempted": len(rounds) * len(inputs.test_files),
        "failed": failed,
        "metrics": metrics,
        "checks": checks.results,
        "unscaled": timing_metrics(rounds, scaled=False),
        "samples": {
            "rounds": len(rounds),
            "loads": sum(len(r.load_s) for r in rounds),
            "predict_logs": len(inputs.test_files),
            "train_s": [t for r in rounds for t in r.train_s],
            "train_scaled_s": [t for r in rounds for t in r.train_scaled],
        },
        "sizes": {"train_lines": first.train_lines, "test_lines": first.lines_read},
        "digests": {
            "model_sha256": first.model_digest,
            "predictions_sha256": predictions_digest(inputs.test_files, first.causes),
        },
    }


# -- the user path, traced stage by stage ----------------------------------


def traced_train(tracer: Tracer, train_dir: Path, model_path: Path, counters):
    """Replay of ``build`` through the table module's public stages."""
    with tracer.span("train", trace_id="train"):
        with tracer.span("corpus.load"):
            corpus = load_corpus(train_dir)
        miner = TemplateMiner(CONFIG)

        def parse(log):
            # One span per log: a span per line would time the timer.
            with tracer.span("abstraction.preprocess", trace_id=log.log_id):
                for line in log.lines:
                    if not preprocess(line, CONFIG):
                        counters["blank_lines"] += 1
            with tracer.span("abstraction.train_parse", trace_id=log.log_id):
                return miner.parse_log(log.lines, log.log_id)

        passed_seqs = [parse(log) for log in sorted(corpus.passed, key=lambda log: log.log_id)]
        labeled_seqs = [
            (parse(log), log.cause) for log in sorted(corpus.failed, key=lambda log: log.log_id)
        ]
        miner.freeze()
        with tracer.span("table.pools"):
            passed_pool, failed_pool = collect_pools(passed_seqs, (s for s, _ in labeled_seqs))
        with tracer.span("table.diff"):
            vocabulary = diff_with_pass(failed_pool, passed_pool)
        with tracer.span("table.counts"):
            counts = init_counts(vocabulary, labeled_seqs, corpus.taxonomy.k)
        with tracer.span("table.reweight"):
            reweighted = scores_from_counts(counts, corpus.taxonomy)
        with tracer.span("table.icf"):
            table = apply_icf(reweighted)
        with tracer.span("model.save"):
            save_model(model_path, miner, table)
    return corpus, miner, table


def model_sections(text: str):
    """Split an ``ncc-model v1`` file into its config, registry and table blocks."""
    lines = text.splitlines()
    config = AbstractionConfig(**json.loads(lines[1].partition("\t")[2]))
    cursor = 2
    blocks = []
    for _ in ("templates", "table"):
        count = int(lines[cursor].partition("\t")[2])
        blocks.append("\n".join(lines[cursor + 1 : cursor + 1 + count]) + "\n")
        cursor += 1 + count
    return config, blocks[0], blocks[1]


def traced_setup(tracer: Tracer, model_path: Path):
    """Replay of ``load_model`` with the registry and table loads apart."""
    with tracer.span("setup", trace_id="setup"):
        config, registry_block, table_block = model_sections(
            model_path.read_text(encoding="utf-8")
        )
        with tracer.span("model.registry_load"):
            miner = TemplateMiner.from_registry_text(registry_block, config).freeze()
        with tracer.span("model.table_load"):
            table = table_from_text(table_block)
    return miner, table


def traced_predict(tracer: Tracer, miner, table, files, counters):
    """Replay of ``predict_lines`` + ``flag_lines``; each log's spans share its id."""
    causes, flagged_all = [], []
    for path in files:
        try:
            with tracer.span("predict", trace_id=path.stem):
                with tracer.span("corpus.read"):
                    lines = read_log_lines(path)
                with tracer.span("abstraction.preprocess"):
                    for line in lines:
                        if not preprocess(line, miner.config):
                            counters["blank_lines"] += 1
                with tracer.span("abstraction.frozen_parse"):
                    events = miner.parse_log(lines, path.stem)
                with tracer.span("predictor.predict"):
                    prediction = predict(table, events)
                with tracer.span("predictor.flag"):
                    flagged = flag_lines(prediction, events, miner)
        except Exception as exc:  # counted like the untraced pass
            print(f"traced predict failed on {path.name}: {exc!r}", file=sys.stderr)
            causes.append(None)
            flagged_all.append(None)
            continue
        counters["events"] += len(events)
        counters["unknown"] += events.events.count(UNKNOWN_EVENT_ID)
        counters["contributors"] += len(prediction.contributors)
        counters["flagged_lines"] += len(flagged)
        counters["fallbacks"] += prediction.fallback_used
        causes.append(prediction.cause)
        flagged_all.append(flagged)
    return causes, flagged_all


def layer_metrics(tracer: Tracer, miner, table, counters) -> dict:
    every, train, predict_ = tracer.totals(), tracer.totals("train"), tracer.totals("predict")

    def total(spans, name):
        return spans.get(name, {}).get("total_s", 0.0)

    by_length: dict[int, int] = {}
    for template in miner.templates.values():
        by_length[len(template.tokens)] = by_length.get(len(template.tokens), 0) + 1
    kinds = list(table.kinds.values())
    return {
        "corpus.load_s": total(every, "corpus.load"),
        "corpus.read_s": total(every, "corpus.read"),
        "abstraction.preprocess_s": total(every, "abstraction.preprocess"),
        "abstraction.train_parse_s": total(train, "abstraction.train_parse"),
        "abstraction.train_match_s": total(train, "abstraction.train_parse")
        - total(train, "abstraction.preprocess"),
        "abstraction.frozen_parse_s": total(predict_, "abstraction.frozen_parse"),
        "abstraction.frozen_match_s": total(predict_, "abstraction.frozen_parse")
        - total(predict_, "abstraction.preprocess"),
        "abstraction.templates": len(miner.templates),
        "abstraction.max_templates_per_length": max(by_length.values()),
        "abstraction.unknown_rate": counters["unknown"] / max(counters["events"], 1),
        "abstraction.blank_lines": counters["blank_lines"],
        "table.pools_s": total(every, "table.pools"),
        "table.diff_s": total(every, "table.diff"),
        "table.counts_s": total(every, "table.counts"),
        "table.reweight_s": total(every, "table.reweight"),
        "table.icf_s": total(every, "table.icf"),
        "table.rows": len(table.rows),
        "table.rows_single": kinds.count(SINGLE),
        "table.rows_multi": kinds.count(MULTI),
        "model.save_s": total(every, "model.save"),
        "model.registry_load_s": total(every, "model.registry_load"),
        "model.table_load_s": total(every, "model.table_load"),
        "predictor.predict_s": total(every, "predictor.predict"),
        "predictor.flag_s": total(every, "predictor.flag"),
        "predictor.contributors": counters["contributors"],
        "predictor.flagged_lines": counters["flagged_lines"],
        "predictor.fallbacks": counters["fallbacks"],
    }


def traced_round(inputs: Inputs, reference: Round, models, checks: Checks):
    """One traced train, set-up and predict pass, guarded against an untraced round."""
    ref_miner, ref_table, (ref_loaded_miner, ref_loaded_table) = models
    tracer = Tracer()
    counters = dict.fromkeys(
        ("blank_lines", "events", "unknown", "contributors", "flagged_lines", "fallbacks"), 0
    )
    gc.collect()
    corpus, miner, table = traced_train(tracer, inputs.train_dir, inputs.model_path, counters)
    model_text = inputs.model_path.read_text(encoding="utf-8")
    checks.add("replica_same_registry", miner.export_registry() == ref_miner.export_registry())
    checks.add("replica_same_table", same_table(table, ref_table))
    checks.add("replica_same_model", sha256_text(model_text) == reference.model_digest)
    gc.collect()
    loaded_miner, loaded_table = traced_setup(tracer, inputs.model_path)
    checks.add(
        "replica_load_same_registry",
        loaded_miner.export_registry() == ref_loaded_miner.export_registry(),
    )
    checks.add("replica_load_same_table", same_table(loaded_table, ref_loaded_table))
    gc.collect()
    causes, flagged = traced_predict(tracer, loaded_miner, loaded_table, inputs.test_files, counters)
    checks.add(
        "traced_predictions_equal_untraced",
        outputs_digest(causes, flagged) == reference.outputs_digest,
    )

    metrics = layer_metrics(tracer, miner, table, counters)
    metrics["corpus.files"] = len(corpus.passed) + len(corpus.failed)
    metrics["corpus.bytes"] = sum(path.stat().st_size for path in inputs.train_dir.glob("*/*.log"))
    roots = tracer.totals()
    traced_s = roots["train"]["total_s"] + roots["predict"]["total_s"]
    return metrics, traced_s, tracer, causes.count(None)


def measure_traced(inputs: Inputs, seconds: float) -> dict:
    """Pairs of an untraced and a traced round until ``seconds`` pass."""
    checks = Checks()
    last_tracer = None

    def pair():
        nonlocal last_tracer
        reference, models = untraced_round(inputs, checks)
        metrics, traced_s, last_tracer, failed = traced_round(inputs, reference, models, checks)
        return reference, metrics, traced_s, failed

    pairs = run_rounds(seconds, 1, pair)
    first = pairs[0][0]
    untraced_s = min(min(r.train_s) + sum(t for t in r.latencies if t is not None) for r, *_ in pairs)
    traced_s = min(p[2] for p in pairs)
    macro_f1 = label_checks(checks, inputs, first.causes)

    # Times are the best round's, as in the untraced run; counts are exact.
    rounds = [p[1] for p in pairs]
    metrics = {
        name: min(r[name] for r in rounds) if unit == "s" else rounds[-1][name]
        for name, unit in PER_LAYER_UNITS.items()
        if name in rounds[-1]
    }
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    failed = sum(r.failed + traced_failed for r, _, _, traced_failed in pairs)
    return {
        "correct": checks.ok and failed == 0,
        "attempted": 2 * len(pairs) * len(inputs.test_files),
        "failed": failed,
        "metrics": metrics,
        "checks": checks.results,
        "macro_f1": macro_f1,
        "samples": {"pairs": len(pairs)},
        "sizes": {"train_lines": first.train_lines, "test_lines": first.lines_read},
        "digests": {
            "model_sha256": first.model_digest,
            "predictions_sha256": predictions_digest(inputs.test_files, first.causes),
        },
        "tracer": last_tracer,
    }


# -- reporting ---------------------------------------------------------------


def git_commit() -> str:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def self_time_table(tracer: Tracer) -> list[str]:
    rows = [
        "spans of the last traced round:",
        f"{'span':<28} {'count':>8} {'total_s':>12} {'self_s':>12}",
    ]
    for name, entry in sorted(tracer.totals().items(), key=lambda item: -item[1]["self_s"]):
        rows.append(
            f"{name:<28} {entry['count']:>8} {entry['total_s']:>12.6f} {entry['self_s']:>12.6f}"
        )
    return rows


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Generate the corpora, measure, and return the full result record."""
    start = time.perf_counter()
    inputs = make_inputs(workload, seed, workdir)
    gen_s = time.perf_counter() - start
    if trace:
        result = measure_traced(inputs, seconds)
        units = PER_LAYER_UNITS
    else:
        result = measure(inputs, seconds)
        units = END_TO_END_UNITS
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    result.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        gen_s=gen_s,
        environment=environment(),
    )
    result["sizes"].update(
        train_failed=workload.train_failed,
        train_passed=workload.train_passed,
        test_failed=workload.test_failed,
        noise_rate=workload.noise_rate,
        lines_range=list(workload.lines_range),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload == "all":
        # One process per workload, so peak_rss_mb is each workload's own.
        status = 0
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            )
            status = status or proc.returncode
        return status

    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tracer = result.pop("tracer", None)
    if tracer is not None:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path, workload=args.workload, seed=args.seed)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        print("\n".join(self_time_table(tracer)))
    for name, entry in result["metrics"].items():
        print(f"{name:<38} {entry['value']:>16.6g} {entry['unit']}")
    print(f"logs attempted {result['attempted']}, failed {result['failed']}")
    contract = {key: result.pop(key) for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))
    print(json.dumps(contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
