r"""Log abstraction: online template mining over a fixed-depth parse tree.

Raw lines are masked (IPv4 addresses, absolute paths, hex constants and
bare integers become the ``<*>`` placeholder), whitespace-tokenized, and
routed through a parse tree keyed first by token count and then by the
leading tokens.  Tokens containing digits route through the catch-all
``<*>`` child, so unmasked numeric fields still share a leaf.  Each leaf
holds the templates whose lines shared that route; a line merges into the
most similar template at or above the similarity threshold (positions
that disagree become wildcards) or registers a new template otherwise.
A template's event id is ``e<n>``, its 1-based row in the registry, so
the registry block stores no ids and a rebuilt miner goes on from its
last row.

The mask rules are the four built-in ones, ``DEFAULT_MASK_RULES``; no
config or model names any.  Each is compiled once, at import, from a scan
form that starts with a literal or a digit, so ``re`` jumps to where a
match can begin rather than trying every character.  A scan form must
match exactly the spans of the rule as written, but for the IPv4 one,
whose matches start at a dot.

A scan form that starts with ``\d`` still enters the matcher at every
digit, and log lines are full of digits that are no IPv4 address.  So
the IPv4 scan form starts at the ``.`` right after an address's 1-3-digit
first octet, a literal that lets ``re`` skip from dot to dot, and its
lookbehinds pin that octet: one alternative each for 3, 2 and 1 digits,
in groups 1 to 3, each with the written form's ``(?<![\w.])`` before the
digits, so at most one holds, and the groups that did not take part
start at -1.  The written form's first octet ends at the first dot after
its start, so its matches and the dot-led form's pair one to one, and
``_DotAnchored.sub`` splices each dot-led match from its octet's start,
left to right as ``re.sub`` splices a match of the written form.  The
lookbehinds look back at most 5 characters and nothing else in the form
repeats without bound, so each dot costs bounded work and masking stays
linear, even on a line of dotted numbers that are no address.

Each rule also has an ASCII twin, compiled with ``re.ASCII``, which
``re`` runs faster.  Text that is ASCII, an O(1) check, masks through
the twins.  This is exact because ``\d``, ``\w`` and ``\b`` mean the
same in both modes on ASCII text, and one check serves every rule: the
``<*>`` placeholder is ASCII, so ASCII text stays ASCII while it is
masked.

``parse_log`` masks a whole log before matching any of it: its lines are
joined with ``"\n"``, each rule runs once over that text, and the text is
split back, which spares the per-call cost of ``re.sub`` on each short
line.  This is exact because no rule can match ``"\n"`` (their classes are
digits, ``[\w.+-]`` and hex digits), their lookarounds (``[\w.]``,
``[\w/]``, ``\w``, ``\b``) treat ``"\n"`` as they treat the start or end of
a string, and ``<*>`` holds no ``"\n"``; so a line masks the same whoever
its neighbours are.  A line given through the API may hold ``"\n"``
itself; such a log masks line by line, as ``parse_line`` does.

``event_sets``, which training and evaluation use, takes each log as its
text, whose lines are its ``"\n"``-separated pieces, and masks the texts of
many logs at once, in chunks of whole logs, each closed by the log that
brings it to at least ``MASK_CHUNK_LINES`` lines.  A chunk's texts are
joined with ``"\n"``, masked in one pass per rule and split once, so no
log is split into lines only to be joined again, and where a chunk ends
changes nothing.  A log's line count is its text's ``"\n"`` count plus
one; a text that ends with ``"\n"``, as a file does, has one more, blank,
piece, which gives no event.  The ASCII twins run only when the whole
text is ASCII, so one non-ASCII line sends its whole chunk through the
Unicode compiles: exact, but slower.

``parse_log`` gives a log one event slot per source line, None for a
blank line, so line ``n`` is ``events[n - 1]``: nothing stores a line
number, and only flagging (``predictor.flag_lines``) finds one.
Prediction and training need only which events a log holds.  So
``event_sets`` gives each log as the set of its distinct event ids, built
from its slice of the chunk's ids in one ``frozenset`` call, and holds no
per-line event past its chunk.

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
registry.  A miner, training or frozen, is used by one thread at a time:
a frozen parse still builds leaf indexes and fills a memo (below).

A frozen parse is a pure function of the masked line, and a frozen miner
never changes its tree or registry.  Logs repeat masked lines far more
often than raw ones, within a log and across the logs of a directory.  So
a frozen miner keeps one memo from a masked line (before the split) to its
event id, or None for a blank line, and matches each distinct one once for
as long as the miner lives: ``freeze()`` starts it empty, and so does a
reload, which freezes a new miner.  ``parse_line``, ``parse_log`` and
``event_sets`` all read and fill it.  The memo is a ``dict`` whose
``__missing__`` parses a line it lacks (``_FrozenMemo``), and the frozen
parser is its ``__getitem__``: a line is one lookup, and a hit, called
by ``map`` in C, runs no Python code.  A miss runs the parse, the clear
and the store in Python between the lookup and its result, which is one
more reason a frozen miner is used by one thread at a time.  The memo
reaches its miner through a weak reference: with a strong one, miner
and memo would form a cycle that only the cyclic collector frees, and
every dropped model would linger as garbage.  Its memory is bounded by
``FROZEN_MEMO_CAP`` entries: a miss that finds the memo full clears it
first.  An entry costs its dict slot (29-43 bytes; 961,280 bytes for the
table of a full memo) and the masked line, which the memo keeps alive
(49 bytes plus one per character of ASCII text, up to four per character
otherwise).  Measured on the
bench's seed-7 test corpora, an entry takes 111 bytes on ``clean``, 118 on
``short`` and 173 on ``noisy`` (masked lines of 28, 32 and 81 characters
on average).  So the worst case is the cap times the longest masked line,
plus about 2.6 MB of table and string headers.

A training parse may change the tree, yet most training lines repeat a
masked line already seen, and such a repeat usually matches the same
template again.  So a training miner keeps one memo, from its construction
until ``freeze()`` drops it, mapping a masked line to the event id of its
last full match, or None for a blank line.  Like the frozen memo, it is a
``dict`` whose ``__missing__`` parses a line it lacks
(``_TrainingMemo``), reaches its miner through a weak reference, and its
``__getitem__`` is the training parser: a hit is one lookup, runs no
Python code, and skips the split, the routing, the lookup and the merge.
``parse_line``, ``parse_log`` and ``event_sets`` all read and fill it.  A
full match is recorded only on a stable route, and an entry stays exact
only while its leaf widens no template:

* A route is stable when each step finds its key child, or falls back to
  ``<*>`` at a node that already has ``max_children`` literal children.
  Children are never removed and a capped node never gains a literal
  child, so no later register can send the line to another leaf.  A
  fallback at an uncapped node is not stable: a register may create the
  literal child.
* After the merge the template matches the line at every position, later
  slots can at best tie it (ties go to the earliest slot), and every
  earlier slot scored strictly less.  Only a merge that turns an earlier
  slot's literals into wildcards can raise its score.

So the memo keeps the keys it recorded under each leaf, and a merge that
widens a template of a leaf deletes them from the memo: the next
occurrence of such a line is parsed in full and recorded again.  A
register is not recorded (the line's second occurrence records).
``freeze()`` drops the memo and its key lists, so no masked training line
outlives training.

A parse routes its line in one walk, which creates no node.  Each step
looks the raw token up among the node's children before anything else: a
child's key is its own ``_route_key``, so a hit is the child the token's
route key names.  On a miss the step takes the ``<*>`` child, and only a
training parse then calls ``_route_key``, to tell a word's fallback from
a digit-bearing token's own key and so whether the route is still stable;
a frozen parse tracks no stability and never calls it.  By the first bullet
above, a stable route is the route ``_insert_leaf`` takes, so a register
after one goes into the leaf the walk found; after any other route,
``_insert_leaf`` walks the tree again, creating the nodes it lacks.

A hit runs no code, so ``match_count`` is counted from the ids a training
parse returns, not where a line is matched: ``parse_line`` adds one to
its template, and ``parse_log`` and ``event_sets`` count the ids of a log
or of a chunk with ``collections.Counter`` and add each count to its
template.  So ids, counts and templates are those of parsing every line
in full.
"""

import re
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice
from numbers import Real
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

WILDCARD = "<*>"
UNKNOWN_EVENT_ID = "<unknown>"
REGISTRY_HEADER = "ncc-templates v2"
# By default int() and str() refuse ints with more digits than this
# (sys.int_info.default_max_str_digits).
_MAX_COUNT_DIGITS = 4300

# Entries a frozen miner's memo holds before a miss clears it: above the
# 22,277 distinct masked lines of the bench's noisy test corpus, and one
# hash table of 2^16 slots (961,280 bytes) when full.  ``__missing__``
# reads it at each miss, so a patched value takes effect at once.
FROZEN_MEMO_CAP = 1 << 15

# Lines after which ``event_sets`` closes a chunk of whole logs and masks it
# in one pass per rule.  A chunk holds fewer lines than this before its last
# log, and that log whole.  While it is masked, its lines, their joined and
# masked texts and the masked lines peak at about 700 KB per 1,024 lines of
# 80 characters (``tracemalloc``, Python 3.11.7); a 10K-log corpus of 1.3M
# lines joined whole would hold over 100 MB.  Timed with ``build`` on the
# bench's seed-7 training corpora (median of 30 to 40 interleaved runs, 2
# CPUs, Python 3.11.7), chunks of 256 to 4,096 lines were within 7% of each
# other, and 1,024 was never slower than 4,096: ``short`` 87.7 vs 89.4 ms,
# ``clean`` 134.1 vs 138.9, ``noisy`` 182.5 vs 185.2.  The memory that
# ``build`` traced at its peak on ``short`` grew by 0.12 MB over masking
# one log at a time with 1,024 lines, and by 0.47 MB with 4,096.  (These
# were measured while chunks could cut a log, and while training still kept
# an event per line.)
MASK_CHUNK_LINES = 1024

# What a masked line parses to that is no event of a log's set: None for a
# blank line, and the frozen miner's id for an unmatched one.
_NOT_EVENTS = frozenset({None, UNKNOWN_EVENT_ID})

# The built-in rules, each as written and in its scan form.  Order matters:
# IPv4 before bare integers (octets must not be masked one by one), paths
# before integers (the :line suffix belongs to the path).
#
# A written form starts with a lookbehind or ``\b``, so ``re`` tries a
# full match at every character of the line.  The scan form starts with a
# literal or ``\d``, so ``re`` skips ahead to where a match can begin: the
# width-1 lookbehind moves to just after the first character matched, and
# ``\b`` before the ``0`` becomes ``(?<!\w0)``.  Each scan form must match
# exactly the spans its written form matches (``DEFAULT_MASK_RULES``
# holds the written forms), except the first, IPv4's, which is dot-led
# (module docstring).
_BUILTIN_RULES: tuple[tuple[str, str], ...] = (
    (
        r"(?<![\w.])(?:\d{1,3}\.){3}\d{1,3}(?![\w.])",
        r"\.(?:(?<=(?<![\w.])(\d\d\d)\.)|(?<=(?<![\w.])(\d\d)\.)|(?<=(?<![\w.])(\d)\.))"
        r"(?:\d{1,3}\.){2}\d{1,3}(?![\w.])",
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

# The mask rules, as written, each under the <*> placeholder.
DEFAULT_MASK_RULES: tuple[tuple[str, str], ...] = tuple(
    (written, WILDCARD) for written, _ in _BUILTIN_RULES
)


@dataclass(frozen=True)
class AbstractionConfig:
    """Tunables for the template miner.

    ``tree_depth`` counts the levels before leaf template groups (the
    token-count level plus ``tree_depth - 2`` token levels).  A line is
    routed by at most its first ``tree_depth - 2`` tokens.  ``tree_depth``
    and ``max_children`` must be ints and ``similarity_threshold`` a real
    number; a bool is neither.  Every miner masks with ``DEFAULT_MASK_RULES``,
    so a config names no rules.
    """

    tree_depth: int = 4
    similarity_threshold: float = 0.4
    max_children: int = 100

    def __post_init__(self):
        for name, kind, what in (
            ("tree_depth", int, "an integer"),
            ("max_children", int, "an integer"),
            ("similarity_threshold", Real, "a real number"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValidationError(f"{name} must be {what}, got {value!r}")
        if self.tree_depth < 2:
            raise ValidationError(f"tree_depth must be >= 2, got {self.tree_depth}")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValidationError(
                f"similarity_threshold must be in (0, 1], got {self.similarity_threshold}"
            )
        if self.max_children < 1:
            raise ValidationError(f"max_children must be >= 1, got {self.max_children}")


class _DotAnchored:
    """The dot-led IPv4 rule: ``sub`` splices each match from its first octet on."""

    __slots__ = ("pattern", "_finditer")

    def __init__(self, rule: re.Pattern):
        self.pattern = rule.pattern
        self._finditer = rule.finditer

    def sub(self, repl: str, text: str) -> str:
        pieces: list[str] = []
        end = 0
        for found in self._finditer(text):
            pieces += (text[end : max(found.start(1), found.start(2), found.start(3))], repl)
            end = found.end()
        if not pieces:
            return text
        pieces.append(text[end:])
        return "".join(pieces)


def _compile_rules(flags: int) -> tuple:
    """The built-in rules compiled from their scan forms with ``flags``, IPv4's dot-led."""
    ipv4, *rest = (re.compile(scan, flags) for _, scan in _BUILTIN_RULES)
    return (_DotAnchored(ipv4), *rest)


# The built-in rules and their ASCII twins (module docstring).
_RULES = _compile_rules(0)
_ASCII_RULES = _compile_rules(re.ASCII)


def _mask(text: str) -> str:
    """Apply the mask rules in order, through the ASCII twins if the text is ASCII."""
    for rule in _ASCII_RULES if text.isascii() else _RULES:
        text = rule.sub(WILDCARD, text)
    return text


def _mask_log(lines: Sequence[str]) -> list[str]:
    r"""The lines after the mask rules, in one pass per rule over their join.

    A line that holds a ``"\n"`` of its own would split in two, so then
    the lines are masked one by one.
    """
    text = "\n".join(lines)
    if text.count("\n") == len(lines) - 1:
        return _mask(text).split("\n")
    return list(map(_mask, lines))


def preprocess(line: str, config: AbstractionConfig) -> list[str]:
    """Apply the mask rules in order, then split on whitespace runs.

    Punctuation stays attached to its token, so ``cmd.pathinfo=/a/b:1``
    masks to the single token ``cmd.pathinfo=<*>``.  Empty or blank lines
    yield an empty sequence.  Every miner masks with the same rules, so
    ``config`` does not change the result.
    """
    return _mask(line).split()


@dataclass(slots=True)
class LogTemplate:
    """A mined event pattern: literal tokens with wildcard slots."""

    event_id: str
    tokens: tuple[str, ...]
    match_count: int = 1

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class EventSequence:
    """One log's event ids, one slot per source line: line ``n`` is ``events[n - 1]``.

    A blank line's slot is None.  It iterates as its ``events`` and
    measures as its non-blank lines.
    """

    source: str
    events: tuple[str | None, ...]

    def __len__(self) -> int:
        return len(self.events) - self.events.count(None)

    def __iter__(self) -> Iterator[str | None]:
        return iter(self.events)

    def distinct_events(self) -> frozenset[str]:
        return frozenset(self.events) - _NOT_EVENTS


def _is_count(text: str) -> bool:
    """Whether ``text`` is a non-negative int as ``str`` writes it (within its digit limit)."""
    return (
        text.isdigit()
        and text.isascii()
        and (text[0] != "0" or text == "0")
        and len(text) <= _MAX_COUNT_DIGITS
    )


def event_sort_key(event_id: str) -> tuple[int, str]:
    """Deterministic ordering by length, then text: for the miner's ids ``e<n>``, by ``n``.

    No ``int`` is built, so an id of any length sorts.
    """
    return (len(event_id), event_id)


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
            if tok != WILDCARD:
                slots = lookup.setdefault(tok, slot)
                if slots.__class__ is not int:
                    slots.append(slot)
                elif slots != slot:  # an earlier slot held it alone
                    lookup[tok] = [slots, slot]
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


class _FrozenMemo(dict):
    """A frozen miner's memo: masked line -> event id, or None for a blank line.

    A hit is the ``dict`` lookup alone.  A miss parses the line with the
    miner's ``_parse_masked`` and stores it, clearing the memo first if it
    holds ``FROZEN_MEMO_CAP`` entries.  The memo reaches its miner through
    a weak reference, so the two form no cycle and a dropped miner is freed
    without the cyclic collector.
    """

    __slots__ = ("_miner",)

    def __init__(self, miner: "TemplateMiner"):
        super().__init__()
        self._miner = weakref.ref(miner)

    def __missing__(self, masked: str) -> str | None:
        event_id = self._miner()._parse_masked(masked)
        if len(self) >= FROZEN_MEMO_CAP:
            self.clear()
        self[masked] = event_id
        return event_id


class _TrainingMemo(dict):
    """A training miner's memo: masked line -> event id of its last full match.

    A hit is the ``dict`` lookup alone.  A miss parses the line with the
    miner's ``_parse_masked``, which records a match on a stable route here
    (``record``); a blank line is stored as None, as it has no leaf and
    never goes stale.  ``forget`` deletes the keys recorded under a leaf
    whose template widened, each recorded once since the last ``forget``.
    The memo reaches its miner through a weak reference, as ``_FrozenMemo``
    does, and ``freeze()`` drops it with its key lists.
    """

    __slots__ = ("_miner", "_keys")

    def __init__(self, miner: "TemplateMiner"):
        super().__init__()
        self._miner = weakref.ref(miner)
        self._keys: defaultdict[_Node, list[str]] = defaultdict(list)

    def __missing__(self, masked: str) -> str | None:
        event_id = self._miner()._parse_masked(masked)
        if event_id is None:
            self[masked] = None
        return event_id

    def record(self, leaf: _Node, masked: str, event_id: str) -> None:
        self[masked] = event_id
        self._keys[leaf].append(masked)

    def forget(self, leaf: _Node) -> None:
        for masked in self._keys.pop(leaf, ()):
            del self[masked]


class TemplateMiner:
    """Online Drain-style miner; owns the parse tree and template registry.

    Both modes match through per-leaf indexes built on a leaf's first
    lookup.  Training mode keeps the built indexes current as templates
    are registered and merged.  After ``freeze()`` the tree and registry
    are immutable; only the leaf indexes and the frozen memo of matched
    lines change.  One thread uses a miner at a time.
    """

    def __init__(self, config: AbstractionConfig | None = None):
        self.config = config or AbstractionConfig()
        # Resolved once, as parse_line reads them for every line; a miner's
        # config does not change after construction.
        self._route_depth = self.config.tree_depth - 2
        self._max_children = self.config.max_children
        self._threshold = self.config.similarity_threshold
        self._root: dict[int, _Node] = {}
        self._templates: dict[str, LogTemplate] = {}
        # The mode is which memo is set: the training memo, dropped by
        # freeze(), or the frozen memo it starts.
        self._memo: _TrainingMemo | None = _TrainingMemo(self)
        self._frozen_memo: _FrozenMemo | None = None

    @property
    def frozen(self) -> bool:
        return self._frozen_memo is not None

    def freeze(self) -> "TemplateMiner":
        self._memo = None
        self._frozen_memo = _FrozenMemo(self)
        return self

    @property
    def templates(self) -> dict[str, LogTemplate]:
        """Registry view, keyed by event id in creation order. Do not mutate."""
        return self._templates

    def template_text(self, event_id: str) -> str:
        return self._templates[event_id].text

    # -- tree routing -------------------------------------------------

    def _insert_leaf(self, tokens: Sequence[str]) -> _Node:
        """The leaf a new template goes to, creating the nodes on its route.

        A line is routed by its first ``tree_depth - 2`` tokens, never by
        its last one.  A literal key at a node that already has
        ``max_children`` literal children goes to the ``<*>`` child instead
        (the overflow lane).
        """
        root = self._root
        node = root.get(len(tokens))
        if node is None:
            node = root[len(tokens)] = _Node()
        cap = self._max_children
        for token in tokens[: min(self._route_depth, len(tokens) - 1)]:
            key = token if token.isalpha() else _route_key(token)  # words route as themselves
            children = node.children
            child = children.get(key)
            if child is None:
                if key != WILDCARD and len(children) - (WILDCARD in children) >= cap:
                    key = WILDCARD  # branch cap reached: overflow lane
                    child = children.get(WILDCARD)
                if child is None:
                    child = children[key] = _Node()
            node = child
        return node

    # -- parsing ------------------------------------------------------

    def parse_line(self, line: str) -> str | None:
        """Return the event id for one raw line, or None for a blank line.

        Training mode merges or registers templates; frozen mode maps
        unmatched lines to UNKNOWN_EVENT_ID and never mutates the tree or
        the registry.  The masked line goes through the parser that
        ``parse_log`` uses, so it reads and fills the same memo; a training
        parse then counts one match of its template.
        """
        event_id = self._parser()(_mask(line))
        if event_id is not None and self._memo is not None:
            self._templates[event_id].match_count += 1
        return event_id

    def _parse_masked(self, masked: str) -> str | None:
        """``parse_line`` from the masked line on, past any memo.

        The line is routed by the walk ``_insert_leaf`` takes, but creating
        no node: each step looks the token up among the node's children
        first, since a child's key is its own route key, and on a miss takes
        the ``<*>`` child.  Training also tracks whether the route is stable
        (module docstring): a match on a stable route is recorded in the
        training memo under ``masked``, and a register after one goes to
        the leaf found, which is the leaf ``_insert_leaf`` would give.  No
        match is counted here (module docstring).
        """
        tokens = masked.split()
        if not tokens:
            return None
        memo = self._memo  # None once frozen
        stable = memo is not None
        leaf = self._root.get(len(tokens))
        if leaf is not None:
            cap = self._max_children
            for token in tokens[: min(self._route_depth, len(tokens) - 1)]:
                children = leaf.children
                leaf = children.get(token)
                if leaf is None:
                    leaf = children.get(WILDCARD)
                    if leaf is None:
                        break
                    # A word that falls back to <*> stays there only at a
                    # node with max_children literal children, where no
                    # register adds a child of the word's own.
                    if stable and len(children) <= cap and _route_key(token) != WILDCARD:
                        stable = False
        if leaf is not None:
            index = leaf.index
            if index is None:
                templates = self._templates
                index = leaf.index = _LeafIndex([templates[t].tokens for t in leaf.template_ids])
            slot, matched = index.best_slot(tokens)
            if matched / len(tokens) >= self._threshold:
                event_id = leaf.template_ids[slot]
                if memo is not None:
                    if matched < len(tokens):  # else the merge changes nothing
                        self._widen(leaf, slot, tokens)
                    if stable:
                        memo.record(leaf, masked, event_id)
                return event_id
        if memo is None:
            return UNKNOWN_EVENT_ID
        if leaf is None or not stable:
            leaf = self._insert_leaf(tokens)
        return self._register(tokens, leaf).event_id

    def _widen(self, leaf: _Node, slot: int, tokens: Sequence[str]) -> None:
        """Merge a line into the template at ``slot``, which it does not match at every position.

        The positions that disagree become wildcards, and every training memo
        key recorded under the leaf is deleted.
        """
        template = self._templates[leaf.template_ids[slot]]
        old = template.tokens
        merged = tuple(was if was == tok else WILDCARD for was, tok in zip(old, tokens))
        template.tokens = merged
        leaf.index.widen(slot, old, merged)
        self._memo.forget(leaf)

    def _register(self, tokens: Sequence[str], leaf: _Node) -> LogTemplate:
        """A new template of ``tokens`` in ``leaf``, with no match counted yet.

        ``leaf`` must be the one ``_insert_leaf`` gives for ``tokens``.
        """
        event_id = f"e{len(self._templates) + 1}"  # its row in the registry
        template = LogTemplate(event_id, tuple(tokens), 0)
        self._templates[event_id] = template
        if leaf.index is not None:
            leaf.index.add(template.tokens)
        leaf.template_ids.append(event_id)
        return template

    def parse_log(self, lines: Iterable[str], source: str = "log") -> EventSequence:
        r"""Parse lines in order into one slot per line: its event id, or None if blank.

        The log is masked before any line is matched: unless a line holds
        ``"\n"``, by one pass per rule over the lines joined with ``"\n"``
        (why that is exact is in the module docstring), else line by line,
        as ``parse_line`` masks.  Each masked line then goes through the
        parser ``parse_line`` uses, so both read and fill one memo.  A
        training parse then counts the log's matches of each template.
        """
        events = tuple(map(self._parser(), _mask_log(tuple(lines))))
        if self._memo is not None:
            self._count(events)
        return EventSequence(source, events)

    def event_sets(self, texts: Iterable[str]) -> Iterator[frozenset[str]]:
        r"""Each log's distinct events, from its text, parsed when asked for.

        A log comes as its text, and its lines are the pieces of that text
        between ``"\n"``: its set is ``parse_log(text.split("\n"))``'s
        ``distinct_events()``.  Texts are pulled one at a time into a chunk
        of whole logs, which is closed once it holds at least
        ``MASK_CHUNK_LINES`` lines, joined with ``"\n"``, masked in one pass
        per rule and split once; masking is a function of each line alone
        (module docstring).  The chunk's masked lines are then parsed in
        order, as ``parse_log`` parses them, and a training parse counts
        the chunk's matches of each template, so every set, template and
        count is ``parse_log``'s.  No log is pulled past the chunk of the
        set asked for.  The parser is the one of the miner's mode when the
        first set is asked for: do not freeze the miner before the last.
        """
        texts = iter(texts)
        parse = self._parser()
        training = self._memo is not None
        while True:
            chunk: list[str] = []
            sizes = []
            lines = 0
            for text in texts:
                chunk.append(text)
                size = text.count("\n") + 1
                sizes.append(size)
                lines += size
                if lines >= MASK_CHUNK_LINES:
                    break
            if not sizes:
                return
            events = list(map(parse, _mask("\n".join(chunk)).split("\n")))
            if training:
                self._count(events)
            events = iter(events)
            for size in sizes:
                yield frozenset(islice(events, size)) - _NOT_EVENTS

    def _count(self, events: Iterable[str | None]) -> None:
        """Add each event's occurrences in ``events`` to its template's ``match_count``."""
        counts = Counter(events)
        counts.pop(None, None)
        templates = self._templates
        for event_id, n in counts.items():
            templates[event_id].match_count += n

    def _parser(self):
        """The parser of a masked line for the miner's mode: the ``__getitem__`` of its memo.

        So a repeat in any log is looked up without a Python call and skips
        the split, the routing and the leaf lookup (``_TrainingMemo``,
        ``_FrozenMemo``).
        """
        memo = self._memo
        return (self._frozen_memo if memo is None else memo).__getitem__

    # -- registry text: the ncc-templates v2 block of a model -----------

    def registry_lines(self) -> list[str]:
        """The ``ncc-templates v2`` block as lines: the header, then one per template.

        A template's row is ``match_count<TAB>template``, in id order; its
        event id is not written, since ``e<n>`` is the ``n``-th row.
        """
        lines = [REGISTRY_HEADER]
        lines.extend(
            f"{template.match_count}\t{template.text}" for template in self._templates.values()
        )
        return lines

    def export_registry(self) -> str:
        return "\n".join(self.registry_lines()) + "\n"

    @classmethod
    def from_registry_text(
        cls, text: str, config: AbstractionConfig | None = None
    ) -> "TemplateMiner":
        """Rebuild a miner from an exported registry (tree re-derived)."""
        return cls.from_registry_lines(text.splitlines(), config)

    @classmethod
    def from_registry_lines(
        cls, lines: Sequence[str], config: AbstractionConfig | None = None, first_line: int = 1
    ) -> "TemplateMiner":
        """Rebuild a miner from the lines of an exported registry.

        Each line must be one ``registry_lines`` writes: two tab-separated
        fields, a ``match_count`` as ``str`` writes a non-negative int, and a
        template text of non-empty tokens joined by single spaces; a blank
        line is rejected.  The ``n``-th row is event ``e<n>``, so a template
        the miner registers next is ``e<rows + 1>``.  Templates are inserted
        in file order through ``_insert_leaf``, whose leaf each training
        register goes to, so the tree is re-derived.  Messages number lines
        from the header, file line ``first_line``.
        """
        if not lines or lines[0] != REGISTRY_HEADER:
            found = lines[0] if lines else "<empty>"
            raise ValidationError(
                f"template registry line {first_line}: expected header {REGISTRY_HEADER!r}, "
                f"found {found!r}"
            )
        miner = cls(config)
        templates = miner._templates
        insert_leaf = miner._insert_leaf
        for lineno, row in enumerate(islice(lines, 1, None), first_line + 1):
            count_text, tab, template_text = row.partition("\t")
            if not tab:
                raise ValidationError(
                    f"template registry line {lineno}: expected 2 fields, found {row!r}"
                )
            if not _is_count(count_text):
                raise ValidationError(
                    f"template registry line {lineno}: match_count {count_text!r} is not a count"
                )
            tokens = tuple(template_text.split(" "))
            if "" in tokens:
                raise ValidationError(
                    f"template registry line {lineno}: template {template_text!r} is not tokens "
                    "joined by single spaces"
                )
            event_id = f"e{lineno - first_line}"
            templates[event_id] = LogTemplate(event_id, tokens, int(count_text))
            insert_leaf(tokens).template_ids.append(event_id)
        return miner
