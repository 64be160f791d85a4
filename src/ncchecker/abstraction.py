r"""Log abstraction: online template mining over a fixed-depth parse tree.

Raw lines are masked (IPv4 addresses, absolute paths, hex constants and
bare integers become the ``<*>`` placeholder), whitespace-tokenized, and
routed through a parse tree keyed first by token count and then by the
leading tokens.  Tokens containing digits route through the catch-all
``<*>`` child, so unmasked numeric fields still share a leaf.  Each leaf
holds the templates whose lines shared that route; a line merges into the
most similar template at or above the similarity threshold (positions
that disagree become wildcards) or registers a new template otherwise.

Each built-in mask rule is compiled from a scan form that starts with a
literal or a digit, so ``re`` jumps to where a match can begin rather
than trying every character.  A scan form must match exactly the spans
of the rule as written, and configs and models store only the written
form, so models do not change.  Other rules compile as written.  A miner
resolves its compiled rules and routing depth once, not per line.

``parse_log`` masks a whole log before matching any of it.  When every
rule is a built-in one under ``<*>``, it joins the lines with ``"\n"``,
runs each rule once over that text and splits it back, which spares the
per-call cost of ``re.sub`` on each short line.  This is exact because no
built-in rule can match ``"\n"`` (their classes are digits, ``[\w.+-]``
and hex digits), their lookarounds (``[\w.]``, ``[\w/]``, ``\w``, ``\b``)
treat ``"\n"`` as they treat the start or end of a string, and ``<*>``
holds no ``"\n"``.  A user rule may not be line-local (``^`` or ``\s``
can see the join), and a line given through the API may hold ``"\n"``
itself; such logs mask line by line, as ``parse_line`` does.

Both modes look lines up in a per-leaf inverted index (token position ->
literal token -> template slots), built lazily on the leaf's first lookup
and rebuilt from the registry after a reload, so the cost of a lookup
follows the line's hits rather than the leaf's size.  Training keeps a
built index current: a registered template is appended as a new slot, and
a merge re-indexes only the positions it turned into wildcards.  The
lookup picks what a scan of the leaf would: the most similar template,
the earliest on ties.

A frozen miner maps lines that match no known template to the reserved
UNKNOWN event instead of creating one, so prediction never changes the
registry.  It may be shared across threads: a leaf index is published by
one attribute assignment once complete, so two threads racing on a cold
leaf at worst both build it.

A frozen parse is a pure function of the masked line, and a log repeats
its masked lines far more often than its raw ones.  So a frozen
``parse_log`` keeps a memo from the masked line (before the split) to its
event id and matches each distinct one once.  The memo lives for one log:
a one-shot ``ncchecker predict`` would never find it warm, a per-call dict
needs no shared state between threads, and training parses every line
because each one may change the tree.
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ValidationError

WILDCARD = "<*>"
UNKNOWN_EVENT_ID = "<unknown>"
REGISTRY_HEADER = "ncc-templates v1"

# The built-in rules, each as written and in its scan form.  Order
# matters: IPv4 before bare integers (octets must not be masked one by
# one), paths before integers (the :line suffix belongs to the path).
#
# A written form starts with a lookbehind or ``\b``, so ``re`` tries a
# full match at every character of the line.  The scan form starts with a
# literal or ``\d``, so ``re`` skips ahead to where a match can begin: the
# width-1 lookbehind moves to just after the first character matched, and
# ``\b`` before the ``0`` becomes ``(?<!\w0)``.  Each scan form must match
# exactly the spans its written form matches, with the same (no) groups;
# only the written form is ever stored in a config or a model.
_BUILTIN_RULES: tuple[tuple[str, str], ...] = (
    (
        r"(?<![\w.])(?:\d{1,3}\.){3}\d{1,3}(?![\w.])",
        r"\d(?<![\w.]\d)\d{0,2}\.(?:\d{1,3}\.){2}\d{1,3}(?![\w.])",
    ),
    (
        r"(?<![\w/])/(?:[\w.+-]+/)*[\w.+-]+(?::\d+)?",
        r"/(?<![\w/]/)(?:[\w.+-]+/)*[\w.+-]+(?::\d+)?",
    ),
    (
        r"\b0[xX][0-9a-fA-F]+\b",
        r"0(?<!\w0)[xX][0-9a-fA-F]+\b",
    ),
    (
        r"(?<![\w.])\d+(?![\w.])",
        r"\d(?<![\w.]\d)\d*(?![\w.])",
    ),
)
_SCAN_FORMS = dict(_BUILTIN_RULES)

# Ordered pre-tokenization rewrites, as written.
DEFAULT_MASK_RULES: tuple[tuple[str, str], ...] = tuple(
    (written, WILDCARD) for written, _ in _BUILTIN_RULES
)


@dataclass(frozen=True)
class AbstractionConfig:
    """Tunables for the template miner.

    ``tree_depth`` counts the levels before leaf template groups (the
    token-count level plus ``tree_depth - 2`` token levels).  A line is
    routed by at most its first ``tree_depth - 2`` tokens.
    """

    tree_depth: int = 4
    similarity_threshold: float = 0.4
    max_children: int = 100
    mask_rules: tuple[tuple[str, str], ...] = DEFAULT_MASK_RULES

    def __post_init__(self):
        object.__setattr__(
            self, "mask_rules", tuple((str(p), str(r)) for p, r in self.mask_rules)
        )
        if self.tree_depth < 2:
            raise ValidationError(f"tree_depth must be >= 2, got {self.tree_depth}")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValidationError(
                f"similarity_threshold must be in (0, 1], got {self.similarity_threshold}"
            )
        if self.max_children < 1:
            raise ValidationError(f"max_children must be >= 1, got {self.max_children}")
        _compiled_rules(self.mask_rules)


@lru_cache(maxsize=64)
def _compiled_rules(mask_rules: tuple[tuple[str, str], ...]):
    """Compile each rule, a built-in one from its scan form; validate all."""
    compiled = []
    for pattern, repl in mask_rules:
        try:
            rule = re.compile(_SCAN_FORMS.get(pattern, pattern))
            rule.sub(repl, "")  # rejects a bad group reference in repl
        except re.error as exc:
            raise ValidationError(f"mask rule {pattern!r} -> {repl!r}: {exc}") from None
        compiled.append((rule, repl))
    return tuple(compiled)


def _mask(line: str, rules) -> str:
    """Apply already compiled mask rules in order; ``preprocess`` before the split."""
    for pattern, placeholder in rules:
        line = pattern.sub(placeholder, line)
    return line


def preprocess(line: str, config: AbstractionConfig) -> list[str]:
    """Apply the mask rules in order, then split on whitespace runs.

    Punctuation stays attached to its token, so ``cmd.pathinfo=/a/b:1``
    masks to the single token ``cmd.pathinfo=<*>``.  Empty or blank lines
    yield an empty sequence.
    """
    return _mask(line, _compiled_rules(config.mask_rules)).split()


@dataclass
class LogTemplate:
    """A mined event pattern: literal tokens with wildcard slots."""

    event_id: str
    tokens: tuple[str, ...]
    match_count: int = 1

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def seq_similarity(tokens: Sequence[str], template: LogTemplate) -> float:
    """Position-wise match ratio of a token sequence against a template.

    A wildcard slot matches any token.  This is the similarity a leaf
    index computes for all of a leaf's templates at once.  Lengths must
    agree; a mismatch is a caller bug.
    """
    if len(tokens) != len(template.tokens):
        raise ValueError(
            f"token count {len(tokens)} does not match template "
            f"{template.event_id} of length {len(template.tokens)}"
        )
    if not tokens:
        return 1.0
    hits = sum(
        1 for tok, slot in zip(tokens, template.tokens) if slot == WILDCARD or slot == tok
    )
    return hits / len(tokens)


@dataclass(frozen=True)
class EventSequence:
    """Per-line event ids for one log, with the 1-based source line numbers."""

    source: str
    events: tuple[str, ...]
    line_numbers: tuple[int, ...]

    def __post_init__(self):
        if len(self.events) != len(self.line_numbers):
            raise ValueError("events and line_numbers must have equal length")

    def __len__(self) -> int:
        return len(self.events)

    def distinct_events(self) -> frozenset[str]:
        return frozenset(self.events) - {UNKNOWN_EVENT_ID}


def event_sort_key(event_id: str):
    """Deterministic ordering: miner ids ``e<n>`` numerically, others after."""
    if event_id.startswith("e") and event_id[1:].isdigit():
        return (0, int(event_id[1:]), event_id)
    return (1, 0, event_id)


def _route_key(token: str) -> str:
    """The tree child a routing token goes to.

    Digit-bearing tokens share the wildcard child so that unmasked numeric
    fields ("Took 10 seconds") do not split leaves.  No alphabetic
    character is also a digit, so words route as themselves.
    """
    if token.isalpha():
        return token
    if token == WILDCARD or any(map(str.isdigit, token)):
        return WILDCARD
    return token


class _Node:
    __slots__ = ("children", "template_ids", "index")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.template_ids: list[str] = []
        self.index: _LeafIndex | None = None  # built on the leaf's first lookup


class _LeafIndex:
    """Exact inverted index over one leaf's templates.

    ``columns[i]`` maps a literal token at position ``i`` to the slot (an
    int) or slots (an ascending list) of ``template_ids`` holding it there;
    wildcard slots are left out and counted per template in ``wildcards``.
    ``widest`` is the earliest slot with the most wildcards: it stands in
    for every template a line has no literal hit on.  Training keeps the
    index current through ``add`` and ``widen``.
    """

    __slots__ = ("columns", "wildcards", "widest")

    def __init__(self, rows: Sequence[tuple[str, ...]]):
        self.columns = tuple({} for _ in rows[0])
        self.wildcards = []
        self.widest = 0
        for row in rows:
            self.add(row)

    def best_slot(self, tokens: Sequence[str]) -> tuple[int, int]:
        """Return the best slot and its matched positions.

        Best is what a scan of the leaf would keep: the first template with
        the most matched positions (literal hits plus wildcards), so ties go
        to the earliest slot.
        """
        literal_hits: dict[int, int] = {}
        for slots in map(dict.get, self.columns, tokens):
            if slots is None:
                continue
            if slots.__class__ is int:
                literal_hits[slots] = literal_hits.get(slots, 0) + 1
            else:
                for slot in slots:
                    literal_hits[slot] = literal_hits.get(slot, 0) + 1
        wildcards = self.wildcards
        best_slot = self.widest
        best = wildcards[best_slot]
        for slot, hits in literal_hits.items():
            score = hits + wildcards[slot]
            if score > best or (score == best and slot < best_slot):
                best_slot, best = slot, score
        return best_slot, best

    def add(self, row: tuple[str, ...]) -> None:
        """Index a template appended to the leaf as the next slot."""
        slot = len(self.wildcards)
        for lookup, tok in zip(self.columns, row):
            if tok == WILDCARD:
                continue
            slots = lookup.get(tok)
            if slots is None:
                lookup[tok] = slot
            elif slots.__class__ is int:
                lookup[tok] = [slots, slot]
            else:
                slots.append(slot)
        count = row.count(WILDCARD)
        self.wildcards.append(count)
        if count > self.wildcards[self.widest]:
            self.widest = slot

    def widen(self, slot: int, old: tuple[str, ...], new: tuple[str, ...]) -> None:
        """Re-index ``slot`` after a merge turned some literals into wildcards."""
        widened = 0
        for lookup, was, now in zip(self.columns, old, new):
            if was == now:
                continue
            widened += 1
            slots = lookup[was]
            if slots.__class__ is int:
                del lookup[was]
            else:
                slots.remove(slot)
                if len(slots) == 1:
                    lookup[was] = slots[0]
        count = self.wildcards[slot] + widened
        self.wildcards[slot] = count
        widest = self.widest
        if count > self.wildcards[widest] or (count == self.wildcards[widest] and slot < widest):
            self.widest = slot


class TemplateMiner:
    """Online Drain-style miner; owns the parse tree and template registry.

    Both modes match through per-leaf indexes built on a leaf's first
    lookup.  Training (mutating) mode requires exclusive access and keeps
    the built indexes current as templates are registered and merged.
    After ``freeze()`` the state is immutable and the miner may be shared
    across threads (see the module docstring).
    """

    def __init__(self, config: AbstractionConfig | None = None):
        self.config = config or AbstractionConfig()
        # Resolved once, as parse_line reads them for every line; a miner's
        # config does not change after construction.
        self._rules = _compiled_rules(self.config.mask_rules)
        # Built-in rules under their own placeholder are line-local, so
        # parse_log may mask a whole log in one pass (module docstring).
        self._log_pass = all(rule in DEFAULT_MASK_RULES for rule in self.config.mask_rules)
        self._route_depth = self.config.tree_depth - 2
        self._threshold = self.config.similarity_threshold
        self._root: dict[int, _Node] = {}
        self._templates: dict[str, LogTemplate] = {}
        self._frozen = False
        self._next_index = 1

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "TemplateMiner":
        self._frozen = True
        return self

    @property
    def templates(self) -> dict[str, LogTemplate]:
        """Registry view, keyed by event id in creation order. Do not mutate."""
        return self._templates

    def template_text(self, event_id: str) -> str:
        if event_id == UNKNOWN_EVENT_ID:
            return UNKNOWN_EVENT_ID
        return self._templates[event_id].text

    # -- tree routing -------------------------------------------------

    # Both walks route a line by its first ``tree_depth - 2`` tokens, never
    # by its last one.

    def _search_leaf(self, tokens: Sequence[str]) -> _Node | None:
        node = self._root.get(len(tokens))
        if node is None:
            return None
        for token in tokens[: min(self._route_depth, len(tokens) - 1)]:
            key = _route_key(token)
            child = node.children.get(key)
            if child is None and key != WILDCARD:
                child = node.children.get(WILDCARD)
            if child is None:
                return None
            node = child
        return node

    def _insert_leaf(self, tokens: Sequence[str]) -> _Node:
        node = self._root.setdefault(len(tokens), _Node())
        for token in tokens[: min(self._route_depth, len(tokens) - 1)]:
            key = _route_key(token)
            child = node.children.get(key)
            if child is None:
                literal_count = len(node.children) - (WILDCARD in node.children)
                if key != WILDCARD and literal_count >= self.config.max_children:
                    key = WILDCARD  # branch cap reached: overflow lane
                child = node.children.get(key)
                if child is None:
                    child = node.children.setdefault(key, _Node())
            node = child
        return node

    # -- parsing ------------------------------------------------------

    def _indexed_match(self, leaf: _Node, tokens: Sequence[str]) -> tuple[int, float]:
        index = leaf.index
        if index is None:
            index = _LeafIndex([self._templates[tid].tokens for tid in leaf.template_ids])
            leaf.index = index
        slot, matched = index.best_slot(tokens)
        return slot, matched / len(tokens)

    def parse_line(self, line: str) -> str | None:
        """Return the event id for one raw line, or None for a blank line.

        Training mode merges or registers templates; frozen mode maps
        unmatched lines to UNKNOWN_EVENT_ID and never mutates state.
        """
        return self._parse_tokens(_mask(line, self._rules).split())

    def _parse_tokens(self, tokens: Sequence[str]) -> str | None:
        """``parse_line`` from the masked tokens on."""
        if not tokens:
            return None
        leaf = self._search_leaf(tokens)
        if leaf is not None and leaf.template_ids:
            slot, sim = self._indexed_match(leaf, tokens)
            if sim >= self._threshold:
                event_id = leaf.template_ids[slot]
                if not self._frozen:
                    self._merge(leaf, slot, tokens, sim)
                return event_id
        if self._frozen:
            return UNKNOWN_EVENT_ID
        return self._register(tokens).event_id

    def _merge(self, leaf: _Node, slot: int, tokens: Sequence[str], sim: float) -> None:
        template = self._templates[leaf.template_ids[slot]]
        # sim is matched / len, exactly 1.0 only when every position matched:
        # then the merge would give the template back unchanged.
        if sim < 1.0:
            old = template.tokens
            merged = tuple(was if was == tok else WILDCARD for was, tok in zip(old, tokens))
            template.tokens = merged
            leaf.index.widen(slot, old, merged)
        template.match_count += 1

    def _register(self, tokens: Sequence[str]) -> LogTemplate:
        event_id = f"e{self._next_index}"
        self._next_index += 1
        template = LogTemplate(event_id, tuple(tokens), 1)
        self._templates[event_id] = template
        leaf = self._insert_leaf(tokens)
        if leaf.index is not None:
            leaf.index.add(template.tokens)
        leaf.template_ids.append(event_id)
        return template

    def parse_log(self, lines: Iterable[str], source: str = "log") -> EventSequence:
        r"""Parse lines in order, skipping blanks; one event per non-blank line.

        The log is masked before any line is matched: with line-local rules
        (the built-in ones under ``<*>``) and no line that holds ``"\n"``,
        by one pass per rule over the lines joined with ``"\n"`` (why that
        is exact is in the module docstring), else line by line, as
        ``parse_line`` masks.

        A frozen miner then matches each distinct masked line of the log
        once: a dict local to this call maps the line after the mask rules,
        before the split, to its event id (None for a blank line), so a
        repeat skips the split, the routing and the leaf lookup.  The memo
        dies with the call; why it is kept no longer is in the module
        docstring.  A training miner parses every line, since each may
        change the tree.
        """
        if self._frozen:
            parse = self._frozen_parser()
        else:
            parse_tokens = self._parse_tokens

            def parse(masked: str) -> str | None:
                return parse_tokens(masked.split())

        events: list[str] = []
        numbers: list[int] = []
        for lineno, masked in enumerate(self._mask_log(tuple(lines)), start=1):
            event_id = parse(masked)
            if event_id is None:
                continue
            events.append(event_id)
            numbers.append(lineno)
        return EventSequence(source, tuple(events), tuple(numbers))

    def _mask_log(self, lines: tuple[str, ...]) -> list[str]:
        """The log's lines after the mask rules, in one pass per rule when exact."""
        if self._log_pass:
            text = "\n".join(lines)
            if text.count("\n") == len(lines) - 1:  # no line holds a "\n" of its own
                return _mask(text, self._rules).split("\n")
        return [_mask(line, self._rules) for line in lines]

    def _frozen_parser(self):
        """A frozen ``_parse_tokens`` of a masked line, memoised for one log."""
        parse_tokens, memo = self._parse_tokens, {}

        def parse(masked: str) -> str | None:
            if masked in memo:
                return memo[masked]
            event_id = memo[masked] = parse_tokens(masked.split())
            return event_id

        return parse

    # -- registry text: the ncc-templates v1 block of a model -----------

    def export_registry(self) -> str:
        lines = [REGISTRY_HEADER]
        for template in self._templates.values():
            lines.append(f"{template.event_id}\t{template.match_count}\t{template.text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_registry_text(
        cls, text: str, config: AbstractionConfig | None = None
    ) -> "TemplateMiner":
        """Rebuild a miner from an exported registry (tree re-derived)."""
        lines = text.splitlines()
        if not lines or lines[0] != REGISTRY_HEADER:
            found = lines[0] if lines else "<empty>"
            raise ValidationError(
                f"template registry header: expected {REGISTRY_HEADER!r}, found {found!r}"
            )
        miner = cls(config)
        max_index = 0
        for lineno, row in enumerate(lines[1:], start=2):
            if not row:
                continue
            parts = row.split("\t", 2)
            if len(parts) != 3:
                raise ValidationError(f"template registry line {lineno}: expected 3 fields")
            event_id, count_text, template_text = parts
            if event_id in miner._templates:
                raise ValidationError(
                    f"template registry line {lineno}: duplicate event id {event_id!r}"
                )
            try:
                match_count = int(count_text)
            except ValueError:
                raise ValidationError(
                    f"template registry line {lineno}: match_count {count_text!r} is not an integer"
                ) from None
            tokens = tuple(template_text.split(" "))
            if not tokens or tokens == ("",):
                raise ValidationError(f"template registry line {lineno}: empty template")
            template = LogTemplate(event_id, tokens, match_count)
            miner._templates[event_id] = template
            miner._insert_leaf(tokens).template_ids.append(event_id)
            if event_id.startswith("e") and event_id[1:].isdigit():
                max_index = max(max_index, int(event_id[1:]))
        miner._next_index = max_index + 1
        return miner
