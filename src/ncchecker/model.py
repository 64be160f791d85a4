"""Single-file model artifact: miner config + template registry + table.

``ncc-model v3`` is the one persisted format.  It holds the miner config
as JSON, then the ``ncc-templates v2`` registry block
(``TemplateMiner.registry_lines``) and the ``ncc-table v2`` block of
count rows (``table.table_lines``); neither block is written as a file of
its own.  A template's event id is ``e<n>``, its row in the registry
block, which stores no ids; the table block names each row's event id.
An ``ncc-model v1`` file (scores instead of counts) or ``v2`` file (an id
stored on each registry row) is rejected with a message to retrain it.
The artifact is self-describing; prediction and evaluation never need the
original training corpus.  Sections carry explicit line counts so raw
template text can never be mistaken for a section marker.

The writers own the layout.  ``model_from_text`` splits the file once,
reads the values the writers cannot derive, and rejects with
``ValidationError`` any line that differs from the line they would write
for those values: the config must be ``_config_to_json`` of the config it
reads as, a block count a non-negative int as ``str`` writes it, and each
block is checked the same way by its one reader
(``TemplateMiner.from_registry_lines``, ``table.table_from_lines``).
Besides that it rejects values a comparison cannot catch (see the two
readers), a block that runs past the end of the file, any line after the
table block, and a table row for an event the registry lacks.  Every
message names a file line.
"""

import dataclasses
import json
from pathlib import Path

from .abstraction import AbstractionConfig, TemplateMiner, _is_count
from .errors import ValidationError
from .table import ScoreTable, table_from_lines, table_lines

MODEL_HEADER = "ncc-model v3"
# Older headers, each read only to say that the file needs retraining.
_RETRAIN_HEADERS = ("ncc-model v1", "ncc-model v2")

# Built once: every load writes the config it read, to compare the lines.
_CONFIG_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(AbstractionConfig))


def _config_to_json(config: AbstractionConfig) -> str:
    return _CONFIG_ENCODER.encode({name: getattr(config, name) for name in _CONFIG_FIELDS})


def _config_from_json(text: str) -> AbstractionConfig:
    """The config that ``text``, line 2 of a model file, reads as and is written as."""
    try:
        config = AbstractionConfig(**json.loads(text))
    except (TypeError, ValueError, RecursionError, ValidationError) as exc:
        raise ValidationError(f"model line 2: bad config: {exc}") from None
    want = _config_to_json(config)
    if text != want:
        raise ValidationError(f"model line 2: expected config {want!r}, found {text!r}")
    return config


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
    """Read an ``ncc-model v3`` file; the module docstring says what it rejects."""
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_HEADER:
        found = lines[0] if lines else "<empty>"
        hint = "; retrain it with `ncchecker train`" if found in _RETRAIN_HEADERS else ""
        raise ValidationError(
            f"model line 1: expected header {MODEL_HEADER!r}, found {found!r}{hint}"
        )

    cursor = 1  # index of the next line to read

    def take_field(name: str) -> str:
        nonlocal cursor
        if cursor >= len(lines):
            raise ValidationError(f"model line {cursor + 1}: no field {name!r}, file truncated")
        key, _, value = lines[cursor].partition("\t")
        if key != name:
            raise ValidationError(
                f"model line {cursor + 1}: expected field {name!r}, found {key!r}"
            )
        cursor += 1
        return value

    def take_block(name: str) -> list[str]:
        nonlocal cursor
        count_text = take_field(name)
        if not _is_count(count_text):
            raise ValidationError(f"model line {cursor}: bad line count {count_text!r}")
        start, cursor = cursor, cursor + int(count_text)
        if cursor > len(lines):
            raise ValidationError(f"model line {start}: block {name!r} is truncated")
        return lines[start:cursor]

    config = _config_from_json(take_field("config"))
    registry_block = take_block("templates")
    table_block = take_block("table")
    if cursor < len(lines):
        raise ValidationError(f"model line {cursor + 1}: unexpected line after the table block")

    # The registry header is file line 4, after the header, config and templates lines.
    miner = TemplateMiner.from_registry_lines(registry_block, config, 4).freeze()
    table = table_from_lines(table_block, 5 + len(registry_block))
    # A row whose event the registry lacks could never score: no parse
    # yields that id.
    missing = table.rows.keys() - miner.templates.keys()
    if missing:
        first_row = len(lines) + 1 - len(table.rows)
        at, event_id = next((at, e) for at, e in enumerate(table.rows, first_row) if e in missing)
        raise ValidationError(
            f"table line {at}: row for event {event_id!r}, which the template registry lacks"
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
