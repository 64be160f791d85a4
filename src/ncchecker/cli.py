"""Command line interface: gen, train, predict, eval, ablate.

Exit codes are a stable scripting contract: 0 success, 1 validation
error, 2 I/O error.  A reader that closes stdout early (``| head``) has
what it wanted, so a broken pipe on stdout ends the command quietly with
0; a failed write to any other file is an I/O error.  ``predict`` prints
each report as soon as its log is scored, so a log it cannot read ends
it with the reports of the logs before it printed.  Every randomized
step takes an explicit seed and all commands are deterministic for fixed
seeds and inputs.
"""

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

from . import baselines as bl
from . import evaluation as ev
from .abstraction import AbstractionConfig
from .corpus import load_corpus, log_files, read_log_lines, split
from .errors import ValidationError
from .generator import default_spec, generate_synthetic, spec_from_dict
from .model import load_model, save_model
from .predictor import flag_lines, predict_lines
from .table import ablation_tables, build, majority_from_counts


class _ReaderGone(Exception):
    """The reader of stdout closed it."""


class _Stdout:
    """A command's stdout, which tells a closed reader from other write failures."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, text):
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            raise _ReaderGone from None

    def flush(self):
        try:
            self._stream.flush()
        except BrokenPipeError:
            raise _ReaderGone from None


class _Parser(argparse.ArgumentParser):
    # Usage errors are validation errors (exit 1); argparse's default
    # exit code of 2 is reserved for I/O failures.
    def error(self, message):
        raise ValidationError(message)


def _read_json(path):
    def unique_keys(pairs):
        payload = {}
        for key, value in pairs:
            if key in payload:
                raise ValidationError(f"spec file {path}: duplicate key {key!r}")
            payload[key] = value
        return payload

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError too
        raise ValidationError(f"spec file {path}: invalid JSON ({exc})") from None


def _baseline_names(text: str) -> tuple[str, ...]:
    """An argparse type: a comma list of known baselines, in order, without repeats."""
    names = dict.fromkeys(name.strip() for name in text.split(",") if name.strip())
    unknown = sorted(set(names) - {"rg", "mcc", "cam", "lff"})
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown baselines: {', '.join(unknown)}")
    return tuple(names)


def _positive_int(text: str) -> int:
    """An argparse type: an int >= 1, checked before the command does any work."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an int >= 1, got {text!r}")
    return value


def _abstraction_config(args) -> AbstractionConfig:
    return AbstractionConfig(**{f.name: getattr(args, f.name) for f in fields(AbstractionConfig)})


def _add_abstraction_flags(parser):
    """The miner flags, one per ``AbstractionConfig`` field, each defaulting to that field."""
    parser.add_argument("--tree-depth", type=int, default=AbstractionConfig.tree_depth)
    parser.add_argument(
        "--sim-threshold",
        dest="similarity_threshold",
        type=float,
        default=AbstractionConfig.similarity_threshold,
    )
    parser.add_argument("--max-children", type=int, default=AbstractionConfig.max_children)


# -- gen -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.spec is not None:
        spec_path = Path(args.spec)
        if not spec_path.exists():
            raise FileNotFoundError(f"spec file not found: {spec_path}")
        spec = spec_from_dict(_read_json(spec_path))
    else:
        spec = default_spec(seed=0)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    manifest = generate_synthetic(spec, args.out)
    total_failed = sum(spec.cause_counts)
    print(f"wrote {spec.passed_count} passed and {total_failed} failed logs to {args.out}")
    print(f"manifest: {manifest}")
    return 0


# -- train -----------------------------------------------------------------


def _cmd_train(args) -> int:
    corpus = load_corpus(args.corpus, args.labels)
    miner, table = build(corpus, _abstraction_config(args))
    save_model(args.out, miner, table)
    print(f"model: {args.out}")
    print(f"templates: {len(miner.templates)}")
    print(f"table: {len(table.rows)} events x {table.k} causes")
    for j in range(table.k):
        print(f"  {table.taxonomy.display(j)}: {table.n_per_cause[j]} train logs")
    return 0


# -- predict ---------------------------------------------------------------


def _render_prediction(log_id, table, prediction, flagged) -> str:
    lines = [
        "ncc-report v1",
        f"log\t{log_id}",
        f"cause\t{prediction.cause}\t{table.taxonomy.display(prediction.cause)}",
        "scores\t" + "\t".join(repr(s) for s in prediction.scores),
        f"fallback\t{'true' if prediction.fallback_used else 'false'}",
    ]
    lines.extend(
        f"flag\t{f.line_number}\t{f.score!r}\t{f.event_id}\t{f.template}" for f in flagged
    )
    return "\n".join(lines)


def _prediction_record(log_id, table, prediction, flagged) -> dict:
    return {
        "log_id": log_id,
        "cause": prediction.cause,
        "cause_name": table.taxonomy.names[prediction.cause],
        "scores": list(prediction.scores),
        "fallback": prediction.fallback_used,
        "flagged_lines": [
            {
                "line": f.line_number,
                "score": f.score,
                "event_id": f.event_id,
                "template": f.template,
            }
            for f in flagged
        ],
    }


def _cmd_predict(args) -> int:
    miner, table = load_model(args.model)
    target = Path(args.path)
    if target.is_dir():
        files = log_files(target)
    elif target.exists():
        files = [(target.stem, target)]
    else:
        raise FileNotFoundError(f"log path not found: {target}")

    for log_id, path in files:
        prediction, events = predict_lines(miner, table, read_log_lines(path), log_id)
        flagged = flag_lines(prediction, events, miner)
        if args.json:
            print(json.dumps(_prediction_record(log_id, table, prediction, flagged)))
        else:
            print(_render_prediction(log_id, table, prediction, flagged))
            print()
    return 0


# -- eval ------------------------------------------------------------------


def _print_reports(reports: dict) -> None:
    print(ev.render_comparison(reports))
    for name, report in reports.items():
        print()
        print(f"== {name} ==")
        print(ev.render_report(report))


def _knn_docs(name, logs, miner, vocabulary):
    """One document per log for the ``cam`` or ``lff`` KNN: the counts of
    its raw whitespace terms, or its distinct events in ``vocabulary``.

    Both read each log's text.  One ``split()`` of it gives the terms of
    every line, since ``str.split()`` breaks at ``"\\n"`` as at any other
    whitespace."""
    if name == "cam":
        return [Counter(log.text.split()) for log in logs]
    return _lff_docs(miner.event_sets(log.text for log in logs), vocabulary)


def _lff_docs(event_sets, vocabulary):
    """The ``lff`` documents of logs given as their event sets."""
    return [dict.fromkeys(events & vocabulary, 1) for events in event_sets]


def _cmd_eval(args) -> int:
    needs_train = [name for name in args.baselines if name in ("cam", "lff")]
    if needs_train and args.train_dir is None:
        raise ValidationError(f"--train-dir is required for baselines: {', '.join(needs_train)}")
    if not needs_train and (args.train_dir, args.train_labels) != (None, None):
        flag = "--train-dir" if args.train_dir is not None else "--train-labels"
        raise ValidationError(f"{flag} is only read by baselines cam and lff; neither is given")
    miner, table = load_model(args.model)
    test_corpus = load_corpus(args.corpus, args.labels, table.taxonomy)
    if not test_corpus.failed:
        raise ValidationError(f"test corpus {args.corpus} has no failed logs to evaluate")
    truth = [log.cause for log in test_corpus.failed]

    # One parse of the test logs serves the ncchecker row and lff's documents.
    test_sets = list(miner.event_sets(log.text for log in test_corpus.failed))
    reports = ev.score_event_sets({"ncchecker": table}, test_sets, test_corpus)

    train_corpus = None
    if needs_train:
        train_corpus = load_corpus(args.train_dir, args.train_labels, table.taxonomy)
    for name in args.baselines:
        if name == "rg":
            reports["rg"] = bl.rg_predict_from_counts(
                table.n_per_cause, truth, args.rg_trials, args.seed, table.taxonomy
            )
        elif name == "mcc":
            majority = majority_from_counts(table.n_per_cause)
            reports["mcc"] = ev.evaluate(truth, [majority] * len(truth), table.taxonomy)
        else:
            vocabulary = frozenset(table.rows)
            train_logs = train_corpus.failed
            index = bl.knn_train(
                _knn_docs(name, train_logs, miner, vocabulary),
                [log.cause for log in train_logs],
                [log.log_id for log in train_logs],
                args.k_neighbors,
            )
            if name == "lff":
                test_docs = _lff_docs(test_sets, vocabulary)
            else:
                test_docs = _knn_docs(name, test_corpus.failed, miner, vocabulary)
            preds = [bl.knn_predict(index, doc) for doc in test_docs]
            reports[name] = ev.evaluate(truth, preds, table.taxonomy)

    if args.json:
        records = []
        for name, report in reports.items():
            records.extend(ev.report_records(report, name))
        for record in records:
            print(json.dumps(record))
        return 0

    _print_reports(reports)
    return 0


# -- ablate ------------------------------------------------------------------


def _cmd_ablate(args) -> int:
    config = _abstraction_config(args)
    corpus = load_corpus(args.corpus, args.labels)
    train_corpus, test_corpus = split(corpus, args.test_fraction, args.seed)
    if not test_corpus.failed:
        raise ValidationError("split produced an empty test set; corpus is too small")

    miner, tables = ablation_tables(train_corpus, config)
    reports = ev.score_tables(miner, tables, test_corpus)
    for line in ev.ablation_identities(tables["full"], tables["drop1"], tables["drop3"]):
        print(f"check: {line}")
    print()
    _print_reports(reports)
    return 0


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncchecker",
        description="Predict the root cause of failed test runs from their logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic corpus with planted markers")
    gen.add_argument("spec", nargs="?", default=None, help="JSON synthetic spec file")
    gen.add_argument("--out", required=True, help="output corpus directory")
    gen.add_argument("--seed", type=int, default=None, help="override the spec seed")
    gen.set_defaults(func=_cmd_gen)

    train = sub.add_parser("train", help="mine templates and build the lookup table")
    train.add_argument("corpus", help="corpus directory (passed/, failed/, labels.csv)")
    train.add_argument("--labels", default=None, help="labels CSV (default: corpus/labels.csv)")
    train.add_argument("--out", required=True, help="model file to write")
    _add_abstraction_flags(train)
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="predict causes for a log file or directory")
    predict.add_argument("model", help="model file from train")
    predict.add_argument("path", help="log file or directory of *.log files")
    predict.add_argument("--json", action="store_true", help="machine-readable records")
    predict.set_defaults(func=_cmd_predict)

    evaluate = sub.add_parser("eval", help="evaluate the model and baselines on a test corpus")
    evaluate.add_argument("model", help="model file from train")
    evaluate.add_argument("corpus", help="test corpus directory")
    evaluate.add_argument("--labels", default=None)
    evaluate.add_argument(
        "--baselines", type=_baseline_names, default=(), help="comma list from: rg,mcc,cam,lff"
    )
    evaluate.add_argument("--train-dir", default=None, help="training corpus (cam/lff only)")
    evaluate.add_argument("--train-labels", default=None)
    evaluate.add_argument("--rg-trials", dest="rg_trials", type=_positive_int, default=100)
    evaluate.add_argument("--k-neighbors", dest="k_neighbors", type=_positive_int, default=5)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--json", action="store_true")
    evaluate.set_defaults(func=_cmd_eval)

    ablate = sub.add_parser("ablate", help="run full, drop1, drop2, drop3 on one split")
    ablate.add_argument("corpus", help="corpus directory")
    ablate.add_argument("--labels", default=None)
    ablate.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.1)
    ablate.add_argument("--seed", type=int, default=0)
    _add_abstraction_flags(ablate)
    ablate.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    stdout = sys.stdout
    sys.stdout = _Stdout(stdout)
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _ReaderGone:
        # Send what is still buffered to devnull, so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
