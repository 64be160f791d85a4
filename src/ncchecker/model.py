"""Single-file model artifact: miner config + template registry + table.

``ncc-model v1`` is the one persisted format.  It holds the miner config
as JSON, then the ``ncc-templates v1`` registry block
(``TemplateMiner.export_registry``) and the ``ncc-table v1`` block
(``table.table_to_text``); neither block is written as a file of its own.
The artifact is self-describing; prediction and evaluation never need the
original training corpus.  Sections carry explicit line counts so raw
template text can never be mistaken for a section marker.
"""

import dataclasses
import json
from pathlib import Path

from .abstraction import AbstractionConfig, TemplateMiner
from .errors import ValidationError
from .table import ScoreTable, table_from_text, table_to_text

MODEL_HEADER = "ncc-model v1"


def _config_to_json(config: AbstractionConfig) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":"))


def _config_from_json(text: str) -> AbstractionConfig:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model field 'config': invalid JSON ({exc})") from None
    try:
        config = AbstractionConfig(
            **{field.name: payload[field.name] for field in dataclasses.fields(AbstractionConfig)}
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"model field 'config': {exc}") from None
    if not isinstance(config.tree_depth, int):
        raise ValidationError(
            f"model field 'config': tree_depth {config.tree_depth!r} is not an integer"
        )
    return config


def model_to_text(miner: TemplateMiner, table: ScoreTable) -> str:
    registry_block = miner.export_registry().splitlines()
    table_block = table_to_text(table).splitlines()
    lines = [MODEL_HEADER, f"config\t{_config_to_json(miner.config)}"]
    lines.append(f"templates\t{len(registry_block)}")
    lines.extend(registry_block)
    lines.append(f"table\t{len(table_block)}")
    lines.extend(table_block)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> tuple[TemplateMiner, ScoreTable]:
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_HEADER:
        found = lines[0] if lines else "<empty>"
        raise ValidationError(f"model header: expected {MODEL_HEADER!r}, found {found!r}")

    cursor = 1

    def take_field(name: str) -> str:
        nonlocal cursor
        if cursor >= len(lines):
            raise ValidationError(f"model field {name!r} is missing (file truncated)")
        key, _, value = lines[cursor].partition("\t")
        if key != name:
            raise ValidationError(f"model field {name!r}: found {key!r} instead")
        cursor += 1
        return value

    def take_block(name: str) -> str:
        nonlocal cursor
        count_text = take_field(name)
        try:
            count = int(count_text)
        except ValueError:
            raise ValidationError(f"model field {name!r}: bad line count {count_text!r}") from None
        if cursor + count > len(lines):
            raise ValidationError(f"model section {name!r} is truncated")
        block = "\n".join(lines[cursor : cursor + count]) + "\n"
        cursor += count
        return block

    config = _config_from_json(take_field("config"))
    registry_block = take_block("templates")
    table_block = take_block("table")

    miner = TemplateMiner.from_registry_text(registry_block, config).freeze()
    table = table_from_text(table_block)
    return miner, table


def save_model(path, miner: TemplateMiner, table: ScoreTable) -> None:
    Path(path).write_text(model_to_text(miner, table), encoding="utf-8")


def load_model(path) -> tuple[TemplateMiner, ScoreTable]:
    """Load and freeze; the returned pair is immutable and shareable."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"model file {path}: not UTF-8 text ({exc})") from None
    return model_from_text(text)
