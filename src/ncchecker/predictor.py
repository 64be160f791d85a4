"""Failure cause prediction by score summation over lookup-table rows.

A new failed log is parsed in frozen mode, the rows of its distinct
in-table events are summed, and the cause with the highest total wins;
score ties break toward the rarer class (larger icf), then the lower
cause id.  When no event of the log is in the table the majority training
class is returned with an explicit fallback flag.  Scoring reads only
which events the log holds, so ``predict`` takes any iterable of event
ids.  The events that contributed are ranked once, by their cell in the
predicted cause's column.  Only ``flag_lines`` finds their line numbers,
in one pass over the log's per-line events, and flags them in that rank.
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


def predict(table: ScoreTable, events: Iterable[str | None]) -> Prediction:
    """Sum the rows of the log's distinct in-table events and pick a cause.

    ``events`` is any iterable of a log's event ids: an ``EventSequence``,
    or a set such as one of ``TemplateMiner.event_sets``.  Presence, not
    multiplicity: an event adds its row once however many lines it is on.
    Events absent from the table, including UNKNOWN, contribute nothing.
    """
    rows = table.rows
    in_table = rows.keys() & events
    in_table.discard(UNKNOWN_EVENT_ID)  # scores nothing, even if a row names it
    present = sorted(in_table, key=event_sort_key)

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
        (Contributor(eid, rows[eid][cause]) for eid in present),
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

    The one place line numbers are found: line ``n`` of the log is
    ``events.events[n - 1]``, read in one pass.  Lines follow the
    contributors' order (their cell in the predicted cause's column,
    descending, ties by event id), then ascending line number, with the
    template text for display.  Fallback predictions have no contributors
    and flag nothing.
    """
    contributors = prediction.contributors
    rank = {c.event_id: r for r, c in enumerate(contributors)}
    numbers: list[list[int]] = [[] for _ in contributors]
    for line_number, eid in enumerate(events.events, 1):
        if eid in rank:
            numbers[rank[eid]].append(line_number)
    if not all(numbers):
        raise ValidationError("prediction was not produced from this log")
    flagged = []
    for contributor, lines in zip(contributors, numbers):
        template = miner.template_text(contributor.event_id)
        flagged.extend(
            FlaggedLine(ln, contributor.event_id, template, contributor.score) for ln in lines
        )
    return flagged
