"""Command line interface: gen, train, predict, eval, ablate.

Exit codes are a stable scripting contract: 0 success, 1 validation
error, 2 I/O error.  Every randomized step takes an explicit seed and
all commands are deterministic for fixed seeds and inputs.  Settings may
come from an optional JSON config file; flags override it.
"""

import argparse
import json
import sys
from pathlib import Path

from . import baselines as bl
from . import evaluation as ev
from .abstraction import AbstractionConfig
from .corpus import load_corpus, log_files, read_log_lines, split
from .errors import ValidationError
from .generator import default_spec, generate_synthetic, spec_from_dict
from .model import load_model, save_model
from .predictor import flag_lines, predict_lines
from .table import ABLATION_VARIANTS, build, majority_from_counts

# Miner settings a flag or config file may set; unset ones take the
# AbstractionConfig default.
_MINER_KEYS = {"tree_depth": int, "similarity_threshold": float, "max_children": int}

_DEFAULTS = {
    "test_fraction": 0.1,
    "seed": 0,
    "k_neighbors": 5,
    "rg_trials": 100,
}


class _Parser(argparse.ArgumentParser):
    # Usage errors are validation errors (exit 1); argparse's default
    # exit code of 2 is reserved for I/O failures.
    def error(self, message):
        raise ValidationError(message)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    payload = _read_json(path, "config file")
    if not isinstance(payload, dict):
        raise ValidationError(f"config file {path}: expected a JSON object")
    unknown = sorted(set(payload) - set(_MINER_KEYS) - set(_DEFAULTS))
    if unknown:
        raise ValidationError(f"config file {path}: unknown keys {', '.join(unknown)}")
    return payload


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} {path}: invalid JSON ({exc})") from None


def _setting(args, file_config: dict, key: str, kind):
    """A flag if given, else the config file's value, else the default (or None).

    Flags arrive typed by argparse.  A config file value must be a JSON
    number of the key's ``kind``: an integer for ``int``, an integer or a
    real for ``float``, never a bool (a JSON ``true`` is a Python ``int``).
    Anything else is a validation error, never truncated or parsed.
    """
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key not in file_config:
        return _DEFAULTS.get(key)
    value = file_config[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ValidationError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")


def _abstraction_config(args, file_config: dict) -> AbstractionConfig:
    settings = {key: _setting(args, file_config, key, kind) for key, kind in _MINER_KEYS.items()}
    return AbstractionConfig(**{k: v for k, v in settings.items() if v is not None})


def _add_abstraction_flags(parser):
    parser.add_argument("--tree-depth", dest="tree_depth", type=int, default=None)
    parser.add_argument(
        "--sim-threshold", dest="similarity_threshold", type=float, default=None
    )
    parser.add_argument("--max-children", dest="max_children", type=int, default=None)


# -- gen -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.spec is not None:
        spec_path = Path(args.spec)
        if not spec_path.exists():
            raise FileNotFoundError(f"spec file not found: {spec_path}")
        spec = spec_from_dict(_read_json(spec_path, "spec file"))
    else:
        spec = default_spec(seed=0)
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    spec.validate()
    manifest = generate_synthetic(spec, args.out)
    total_failed = sum(spec.cause_counts)
    print(f"wrote {spec.passed_count} passed and {total_failed} failed logs to {args.out}")
    print(f"manifest: {manifest}")
    return 0


# -- train -----------------------------------------------------------------


def _cmd_train(args) -> int:
    file_config = _load_config_file(args.config)
    config = _abstraction_config(args, file_config)
    corpus = load_corpus(args.corpus, args.labels)
    miner, table = build(corpus, config)
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
    _load_config_file(args.config)  # validated; predict reads no settings
    miner, table = load_model(args.model)
    target = Path(args.path)
    if target.is_dir():
        files = log_files(target)
    elif target.exists():
        files = [(target.stem, target)]
    else:
        raise FileNotFoundError(f"log path not found: {target}")

    results = []
    for log_id, path in files:
        prediction, events = predict_lines(miner, table, read_log_lines(path), log_id)
        results.append((log_id, prediction, flag_lines(prediction, events, miner)))

    for log_id, prediction, flagged in results:
        if args.json:
            print(json.dumps(_prediction_record(log_id, table, prediction, flagged)))
        else:
            print(_render_prediction(log_id, table, prediction, flagged))
            print()
    return 0


# -- eval ------------------------------------------------------------------


def _cmd_eval(args) -> int:
    file_config = _load_config_file(args.config)
    miner, table = load_model(args.model)
    test_corpus = load_corpus(args.corpus, args.labels, table.taxonomy)
    if not test_corpus.failed:
        raise ValidationError(f"test corpus {args.corpus} has no failed logs to evaluate")
    truth = [log.cause for log in test_corpus.failed]

    requested = []
    if args.baselines:
        requested = [name.strip() for name in args.baselines.split(",") if name.strip()]
        unknown = sorted(set(requested) - {"rg", "mcc", "cam", "lff"})
        if unknown:
            raise ValidationError(f"unknown baselines: {', '.join(unknown)}")
    needs_train = {"cam", "lff"} & set(requested)
    if needs_train and args.train_dir is None:
        raise ValidationError(
            f"--train-dir is required for baselines: {', '.join(sorted(needs_train))}"
        )

    reports = {"ncchecker": ev.predict_corpus(miner, table, test_corpus)}

    k_neighbors = _setting(args, file_config, "k_neighbors", int)
    rg_trials = _setting(args, file_config, "rg_trials", int)
    seed = _setting(args, file_config, "seed", int)

    train_corpus = None
    if needs_train:
        train_corpus = load_corpus(args.train_dir, args.train_labels, table.taxonomy)
    for name in requested:
        if name == "rg":
            result = bl.rg_predict_from_counts(
                table.n_per_cause, truth, rg_trials, seed, table.taxonomy
            )
            reports["rg"] = result.median_report
        elif name == "mcc":
            majority = majority_from_counts(table.n_per_cause)
            reports["mcc"] = ev.evaluate(truth, [majority] * len(truth), table.taxonomy)
        elif name == "cam":
            index = bl.cam_train(train_corpus.failed, k_neighbors)
            cam_preds = [bl.cam_predict(index, log.lines) for log in test_corpus.failed]
            reports["cam"] = ev.evaluate(truth, cam_preds, table.taxonomy)
        elif name == "lff":
            train_logs = train_corpus.failed
            sequences = [miner.parse_log(log.lines, log.log_id) for log in train_logs]
            index = bl.lff_train(
                sequences,
                [log.cause for log in train_logs],
                [log.log_id for log in train_logs],
                frozenset(table.rows),
                k_neighbors,
            )
            lff_preds = [
                bl.lff_predict(index, miner.parse_log(log.lines, log.log_id))
                for log in test_corpus.failed
            ]
            reports["lff"] = ev.evaluate(truth, lff_preds, table.taxonomy)

    if args.json:
        records = []
        for name, report in reports.items():
            records.extend(ev.report_records(report, name))
        for record in records:
            print(json.dumps(record))
        return 0

    print(ev.render_comparison(reports))
    for name, report in reports.items():
        print()
        print(f"== {name} ==")
        print(ev.render_report(report))
    return 0


# -- ablate ------------------------------------------------------------------


def _cmd_ablate(args) -> int:
    file_config = _load_config_file(args.config)
    config = _abstraction_config(args, file_config)
    test_fraction = _setting(args, file_config, "test_fraction", float)
    seed = _setting(args, file_config, "seed", int)

    corpus = load_corpus(args.corpus, args.labels)
    train_corpus, test_corpus = split(corpus, test_fraction, seed)
    if not test_corpus.failed:
        raise ValidationError("split produced an empty test set; corpus is too small")

    tables = {}
    reports = {}
    for variant in ABLATION_VARIANTS:
        tables[variant], reports[variant] = ev.run_ablation(
            train_corpus, test_corpus, variant, config
        )

    for line in ev.ablation_identities(tables["full"], tables["drop1"], tables["drop3"]):
        print(f"check: {line}")
    print()
    print(ev.render_comparison(reports))
    for variant in ABLATION_VARIANTS:
        print()
        print(f"== {variant} ==")
        print(ev.render_report(reports[variant]))
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
    train.add_argument("--config", default=None, help="optional JSON config file")
    _add_abstraction_flags(train)
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="predict causes for a log file or directory")
    predict.add_argument("model", help="model file from train")
    predict.add_argument("path", help="log file or directory of *.log files")
    predict.add_argument("--json", action="store_true", help="machine-readable records")
    predict.add_argument("--config", default=None, help="optional JSON config file")
    predict.set_defaults(func=_cmd_predict)

    evaluate = sub.add_parser("eval", help="evaluate the model and baselines on a test corpus")
    evaluate.add_argument("model", help="model file from train")
    evaluate.add_argument("corpus", help="test corpus directory")
    evaluate.add_argument("--labels", default=None)
    evaluate.add_argument(
        "--baselines", default="", help="comma list from: rg,mcc,cam,lff"
    )
    evaluate.add_argument("--train-dir", default=None, help="training corpus (cam/lff only)")
    evaluate.add_argument("--train-labels", default=None)
    evaluate.add_argument("--rg-trials", dest="rg_trials", type=int, default=None)
    evaluate.add_argument("--k-neighbors", dest="k_neighbors", type=int, default=None)
    evaluate.add_argument("--seed", type=int, default=None)
    evaluate.add_argument("--json", action="store_true")
    evaluate.add_argument("--config", default=None)
    evaluate.set_defaults(func=_cmd_eval)

    ablate = sub.add_parser("ablate", help="run full, drop1, drop2, drop3 on one split")
    ablate.add_argument("corpus", help="corpus directory")
    ablate.add_argument("--labels", default=None)
    ablate.add_argument("--test-fraction", dest="test_fraction", type=float, default=None)
    ablate.add_argument("--seed", type=int, default=None)
    ablate.add_argument("--config", default=None)
    _add_abstraction_flags(ablate)
    ablate.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
