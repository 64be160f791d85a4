"""Failure cause prediction by score summation over lookup-table rows.

A new failed log is parsed in frozen mode, the rows of its distinct
in-table events are summed, and the cause with the highest total wins;
score ties break toward the rarer class (larger icf), then the lower
cause id.  When no event of the log is in the table the majority training
class is returned with an explicit fallback flag.  The events that
contributed are ranked once, by their cell in the predicted cause's
column, and that ranking is the order in which their lines are flagged.
"""

from dataclasses import dataclass
from typing import Iterable

from .abstraction import UNKNOWN_EVENT_ID, EventSequence, TemplateMiner, event_sort_key
from .errors import ValidationError
from .table import ScoreTable, majority_from_counts


@dataclass(frozen=True)
class Contributor:
    """One in-table event of the scored log."""

    event_id: str
    score: float  # the event's cell in the predicted cause's column
    line_numbers: tuple[int, ...]


@dataclass(frozen=True)
class Prediction:
    cause: int
    scores: tuple[float, ...]
    contributors: tuple[Contributor, ...]  # strongest evidence first
    fallback_used: bool


@dataclass(frozen=True)
class FlaggedLine:
    line_number: int
    event_id: str
    template: str
    score: float


def predict(table: ScoreTable, events: EventSequence) -> Prediction:
    """Sum the rows of the log's distinct in-table events and pick a cause.

    Presence, not multiplicity: an event adds its row once however many
    lines it is on.  Events absent from the table, including UNKNOWN,
    contribute nothing.
    """
    rows = table.rows
    lines_by_event: dict[str, list[int]] = {}
    for line_number, eid in zip(events.line_numbers, events.events):
        if eid in rows:
            lines_by_event.setdefault(eid, []).append(line_number)
    lines_by_event.pop(UNKNOWN_EVENT_ID, None)  # scores nothing, even if a row names it
    present = sorted(lines_by_event, key=event_sort_key)

    scores = [0.0] * table.k
    for eid in present:
        for j, value in enumerate(rows[eid]):
            scores[j] += value
    if not any(scores):
        # No shared evidence at all: majority training class, flagged.
        return Prediction(majority_from_counts(table.n_per_cause), tuple(scores), (), True)

    cause = max(range(table.k), key=lambda j: (scores[j], table.icf[j], -j))
    # A stable sort of the id-ordered events: score ties stay in id order.
    contributors = sorted(
        (Contributor(eid, rows[eid][cause], tuple(lines_by_event[eid])) for eid in present),
        key=lambda c: -c.score,
    )
    return Prediction(cause, tuple(scores), tuple(contributors), False)


def predict_lines(
    miner: TemplateMiner, table: ScoreTable, lines: Iterable[str], source: str = "log"
) -> tuple[Prediction, EventSequence]:
    """Parse raw lines in frozen mode and predict; never mutates the model."""
    if not miner.frozen:
        raise ValidationError("prediction requires a frozen miner")
    events = miner.parse_log(lines, source)
    return predict(table, events), events


def flag_lines(
    prediction: Prediction, events: EventSequence, miner: TemplateMiner
) -> list[FlaggedLine]:
    """Line references of contributing events, strongest evidence first.

    Follows the contributors' order (their cell in the predicted cause's
    column, descending, ties by event id), with the template text for
    display.  Fallback predictions have no contributors and flag nothing.
    """
    if prediction.fallback_used:
        return []
    present = events.distinct_events()
    if any(c.event_id not in present for c in prediction.contributors):
        raise ValidationError("prediction was not produced from this log")
    flagged = []
    for contributor in prediction.contributors:
        template = miner.template_text(contributor.event_id)
        flagged.extend(
            FlaggedLine(ln, contributor.event_id, template, contributor.score)
            for ln in contributor.line_numbers
        )
    return flagged
