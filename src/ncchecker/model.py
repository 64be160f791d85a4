"""Single-file model artifact: miner config + template registry + table.

``ncc-model v1`` is the one persisted format.  It holds the miner config
as JSON, then the ``ncc-templates v1`` registry block
(``TemplateMiner.export_registry``) and the ``ncc-table v1`` block
(``table.table_to_text``); neither block is written as a file of its own.
The artifact is self-describing; prediction and evaluation never need the
original training corpus.  Sections carry explicit line counts so raw
template text can never be mistaken for a section marker.

``model_from_text`` splits the file once and hands each block's lines to
its one reader (``TemplateMiner.from_registry_lines``,
``table.table_from_lines``).  It rejects, with ``ValidationError``: a
missing or misnamed field; a block count that is not a non-negative
integer or runs past the end; any line after the table block; a malformed
registry line; a table whose ``rows`` count differs from its row lines,
whose ``n_total`` or ``icf`` disagree with ``n_per_cause``, or that holds
a negative or non-finite value or a row whose non-zero cells do not fit
its kind; and a table row for an event the registry lacks.  Rows with the
same cells text are parsed once and share one tuple, as ``build`` shares
the rows of equal counts; the writer formats each shared row once.
"""

import dataclasses
import json
from pathlib import Path

from .abstraction import AbstractionConfig, TemplateMiner
from .errors import ValidationError
from .table import ScoreTable, table_from_lines, table_lines

MODEL_HEADER = "ncc-model v1"


def _config_to_json(config: AbstractionConfig) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":"))


def _config_from_json(text: str) -> AbstractionConfig:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"model field 'config': invalid JSON ({exc})") from None
    try:
        return AbstractionConfig(
            **{field.name: payload[field.name] for field in dataclasses.fields(AbstractionConfig)}
        )
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"model field 'config': {exc}") from None


def model_to_text(miner: TemplateMiner, table: ScoreTable) -> str:
    registry_block = miner.registry_lines()
    table_block = table_lines(table)
    lines = [MODEL_HEADER, f"config\t{_config_to_json(miner.config)}"]
    lines.append(f"templates\t{len(registry_block)}")
    lines.extend(registry_block)
    lines.append(f"table\t{len(table_block)}")
    lines.extend(table_block)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> tuple[TemplateMiner, ScoreTable]:
    """Read an ``ncc-model v1`` file; the module docstring says what it rejects."""
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

    def take_block(name: str) -> list[str]:
        nonlocal cursor
        count_text = take_field(name)
        try:
            count = int(count_text)
        except ValueError:
            count = -1  # rejected below, as a negative count is
        if count < 0:
            raise ValidationError(f"model field {name!r}: bad line count {count_text!r}")
        if cursor + count > len(lines):
            raise ValidationError(f"model section {name!r} is truncated")
        block = lines[cursor : cursor + count]
        cursor += count
        return block

    config = _config_from_json(take_field("config"))
    registry_block = take_block("templates")
    table_block = take_block("table")
    if cursor < len(lines):
        raise ValidationError(f"model line {cursor + 1}: unexpected line after the table block")

    miner = TemplateMiner.from_registry_lines(registry_block, config).freeze()
    table = table_from_lines(table_block)
    # A row whose event the registry lacks could never score: no parse
    # yields that id.
    missing = table.rows.keys() - miner.templates.keys()
    if missing:
        event_id = next(eid for eid in table.rows if eid in missing)
        raise ValidationError(
            f"model table: row for event {event_id!r}, which the template registry lacks"
        )
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
