import gc
import random
import re
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import bruteforce
from bruteforce import (
    scan_parse_line,
    scan_train_line,
    scan_train_log,
    seq_similarity,
    written_preprocess,
)
from ncchecker import AbstractionConfig, ValidationError, abstraction
from ncchecker.abstraction import (
    DEFAULT_MASK_RULES,
    REGISTRY_HEADER,
    UNKNOWN_EVENT_ID,
    WILDCARD,
    LogTemplate,
    TemplateMiner,
    event_sort_key,
    preprocess,
)
from ncchecker.corpus import load_corpus, read_log_lines, read_log_text
from ncchecker.generator import default_spec, generate_synthetic
from ncchecker.table import build


@pytest.fixture
def config():
    return AbstractionConfig()


# -- preprocess -------------------------------------------------------------


def test_preprocess_masks_bare_integers(config):
    tokens = preprocess("Took 10 seconds to build instances", config)
    assert tokens == ["Took", WILDCARD, "seconds", "to", "build", "instances"]


def test_preprocess_masks_path_with_line_suffix(config):
    tokens = preprocess("cmd.pathinfo=/usr/local/cmd/cfg.rb:259", config)
    assert tokens == ["cmd.pathinfo=<*>"]


def test_preprocess_empty_line(config):
    assert preprocess("", config) == []
    assert preprocess("   \t ", config) == []


@pytest.mark.parametrize(
    "line,expected",
    [
        ("peer 192.168.0.17 unreachable", ["peer", WILDCARD, "unreachable"]),
        ("handle 0xDEADbeef leaked", ["handle", WILDCARD, "leaked"]),
        ("retry count 7 exceeded", ["retry", "count", WILDCARD, "exceeded"]),
        ("version 1.2.3 unchanged", ["version", "1.2.3", "unchanged"]),
        ("user123 logged in", ["user123", "logged", "in"]),
        # Where rules meet, the earlier one takes the span.
        ("10.0.0.1/a/b", [WILDCARD + WILDCARD]),
        ("0x10.1.2.3", [WILDCARD + ".1.2.3"]),
        ("/a/b:12x", [WILDCARD + "x"]),
        ("a/b/c 0x1F:3", ["a/b/c", WILDCARD + ":" + WILDCARD]),
        # Arabic-Indic digits are \d; five dotted numbers are no IPv4 address.
        ("\u0663\u0664 ok", [WILDCARD, "ok"]),
        ("1.2.3.4.5", ["1.2.3.4.5"]),
        # The IPv4 rule runs from the dot after a first octet of 1-3 digits.
        ("1.2.3.4", [WILDCARD]),
        ("1234.5.6.7", ["1234.5.6.7"]),
        ("v9.8.7.6", ["v9.8.7.6"]),
        ("at 9.8.7.6 and 10.0.0.1,1.2.3.4", ["at", WILDCARD, "and", WILDCARD + "," + WILDCARD]),
        ("\u0663.1.2.3 \u00e9", [WILDCARD, "\u00e9"]),
    ],
)
def test_preprocess_rule_boundaries(config, line, expected):
    assert preprocess(line, config) == expected


# Digits of several Unicode kinds (the superscript is \w but not \d), word
# and hex characters, every separator the rules look at, and the placeholder;
# plus a few runs of them that start a match, so that what comes just
# before and after a match is often exercised.
_MASK_PIECES = [
    *"0123456789", "\u0663", "\u0664", "\u00b2", *"abcfxXZ\u00e9_", *"./:+-", " ", "\t", WILDCARD,
    "0x", "0X1f", "1.2.3.4", "/a", ":7", "1.2.3.4.5", "1234.5.6.7", "v9.8.7.6",
]
_ASCII_MASK_PIECES = [piece for piece in _MASK_PIECES if piece.isascii()]
_mask_lines = st.lists(st.sampled_from(_MASK_PIECES), max_size=40).map("".join)
_mask_settings = settings(max_examples=400, derandomize=True, database=None, deadline=None)


@pytest.mark.parametrize("rule", range(len(DEFAULT_MASK_RULES)))
@_mask_settings
@given(line=_mask_lines)
def test_builtin_rule_scan_form_masks_like_the_written_form(rule, line):
    written, placeholder = DEFAULT_MASK_RULES[rule]
    compiled, ascii_compiled = abstraction._RULES[rule], abstraction._ASCII_RULES[rule]
    assert compiled.pattern != written  # compiled from the scan form
    assert compiled.sub(placeholder, line) == re.sub(written, placeholder, line)
    # The ASCII twin only ever sees ASCII text.
    ascii_line = "".join(char for char in line if char.isascii())
    assert ascii_compiled.sub(placeholder, ascii_line) == re.sub(written, placeholder, ascii_line)


def test_builtin_rules_mask_ascii_text_through_ascii_twins():
    for rule, twin in zip(abstraction._RULES, abstraction._ASCII_RULES, strict=True):
        assert twin is not rule and twin.pattern == rule.pattern
    # Non-ASCII digits still mask, through the Unicode compiles.
    assert preprocess("\u0663.1.2.3 \u0664", AbstractionConfig()) == [WILDCARD, WILDCARD]


@_mask_settings
@given(line=_mask_lines)
def test_preprocess_masks_like_the_written_rules_in_order(line):
    assert preprocess(line, AbstractionConfig()) == written_preprocess(line)


def test_mask_rules_apply_in_order(config):
    # The IPv4 rule runs before the integer rule, so octets never mask
    # one by one.
    assert preprocess("10.0.0.1", config) == [WILDCARD]


# -- seq_similarity ---------------------------------------------------------


def test_similarity_identity():
    template = LogTemplate("e1", ("a", "b", "c"))
    assert seq_similarity(["a", "b", "c"], template) == 1.0


def test_similarity_three_of_four():
    template = LogTemplate("e1", ("a", "b", "x", "d"))
    assert seq_similarity(["a", "b", "c", "d"], template) == 0.75


def test_similarity_disjoint():
    template = LogTemplate("e1", ("x", "y"))
    assert seq_similarity(["a", "b"], template) == 0.0


def test_similarity_wildcard_matches_anything():
    template = LogTemplate("e1", ("a", WILDCARD, "c"))
    assert seq_similarity(["a", "zzz", "c"], template) == 1.0


def test_similarity_length_mismatch_rejected():
    template = LogTemplate("e1", ("a", "b"))
    with pytest.raises(ValueError):
        seq_similarity(["a", "b", "c"], template)


# -- parse_line -------------------------------------------------------------


def test_first_line_registers_template(config):
    miner = TemplateMiner(config)
    event = miner.parse_line("alpha beta gamma")
    template = miner.templates[event]
    assert template.tokens == ("alpha", "beta", "gamma")
    assert template.match_count == 1


def test_masked_paths_share_one_event(config):
    miner = TemplateMiner(config)
    first = miner.parse_line("cmd.pathinfo=/usr/local/cmd/cfg.rb:259")
    second = miner.parse_line("cmd.pathinfo=/usr/local/cmd/cfg.rb:357")
    assert first == second
    assert miner.templates[first].match_count == 2


def test_unmasked_numbers_merge_to_wildcard():
    # No rule masks "10s" (a word character follows the digits), yet digit
    # tokens route through the wildcard child, the pair meets similarity
    # 4/5 >= 0.4, and the differing slot becomes a wildcard.
    miner = TemplateMiner(AbstractionConfig())
    first = miner.parse_line("Took 10s to build instances")
    second = miner.parse_line("Took 20s to build instances")
    assert first == second
    template = miner.templates[first]
    assert template.tokens == ("Took", WILDCARD, "to", "build", "instances")
    assert len(miner.templates) == 1


def test_blank_line_yields_no_event(config):
    miner = TemplateMiner(config)
    assert miner.parse_line("") is None
    assert not miner.templates


def test_max_children_overflow_routes_to_catchall():
    miner = TemplateMiner(AbstractionConfig(max_children=1))
    a = miner.parse_line("evt alpha done")
    b = miner.parse_line("evt beta done")
    c = miner.parse_line("evt gamma done")
    # alpha claims the only literal child; beta overflows to the catch-all
    # leaf; gamma lands there too and merges with beta (similarity 2/3).
    assert a != b
    assert b == c
    assert miner.templates[b].tokens == ("evt", WILDCARD, "done")


# -- parse_log --------------------------------------------------------------


def test_parse_log_preserves_order_and_line_numbers(config):
    miner = TemplateMiner(config)
    lines = [
        "test step system-view",
        "return user view 5",
        "",
        "The slave board is not in position",
    ]
    seq = miner.parse_log(lines, "f1")
    assert len(seq.events) == 4  # line n is events[n - 1]
    assert seq.events[2] is None  # the blank line
    assert len(seq) == 3  # non-blank lines
    assert len(seq.distinct_events()) == 3


def test_parse_log_distinct_shapes_distinct_events(config):
    lines = [
        "test step system-view",
        "return user view 5",
        "The slave board is not in position",
        "switch fabric sync lost",
        "cmd.pathinfo=/usr/local/cmd/cfg.rb:259",
        "Took 10 seconds to build instances",
        "rollback checkpoint deleted cleanly",
        "session closed by supervisor",
    ]
    miner = TemplateMiner(config)
    seq = miner.parse_log(lines, "fig1")
    assert len(set(seq.events)) == 8


def test_parse_log_empty_file(config):
    seq = TemplateMiner(config).parse_log([], "empty")
    assert len(seq) == 0


def test_frozen_unseen_maps_to_unknown_and_is_pure(config):
    miner = TemplateMiner(config)
    miner.parse_log(["alpha beta gamma", "delta epsilon"], "train")
    miner.freeze()
    before = miner.export_registry()
    seq = miner.parse_log(["never seen anywhere before now"], "new")
    assert seq.events == (UNKNOWN_EVENT_ID,)
    assert miner.export_registry() == before


def test_frozen_matches_trained_lines(config):
    miner = TemplateMiner(config)
    trained = miner.parse_log(["alpha beta gamma", "alpha beta delta"], "train")
    miner.freeze()
    replay = miner.parse_log(["alpha beta gamma"], "replay")
    assert replay.events == (trained.events[0],)


# -- indexed match -------------------------------------------------------------

# Masked "1" and "0x1f" and the literal "<*>" all become wildcard tokens.
_EXTRA_TOKENS = ("1", "0x1f", WILDCARD)
_WORD_POOL = ("a", "b", "c", "d", "e", "f")


_vocabularies = st.lists(st.sampled_from(_WORD_POOL), min_size=2, max_size=6, unique=True)


def _configs():
    return st.builds(
        AbstractionConfig,
        tree_depth=st.sampled_from([2, 3, 4]),
        similarity_threshold=st.sampled_from([0.34, 0.4, 0.5, 0.6, 1.0]),
        max_children=st.sampled_from([1, 2, 100]),
    )


@st.composite
def _miner_cases(draw):
    vocabulary = draw(_vocabularies)
    line = st.lists(st.sampled_from(vocabulary + list(_EXTRA_TOKENS)), min_size=1, max_size=6)
    config = draw(_configs())
    train = draw(st.lists(line.map(" ".join), min_size=1, max_size=40))
    probes = draw(st.lists(line.map(" ".join), max_size=20))
    return config, train, probes


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_miner_cases())
def test_frozen_index_matches_linear_scan_and_reload(case):
    config, train, probes = case
    miner = TemplateMiner(config)
    scan_miner = TemplateMiner(config)
    trained = [miner.parse_line(line) for line in train]
    assert trained == [scan_train_line(scan_miner, line) for line in train]
    assert miner.export_registry() == scan_miner.export_registry()
    miner.freeze()
    lines = train + probes
    frozen = [miner.parse_line(line) for line in lines]
    assert frozen == [scan_parse_line(miner, line) for line in lines]

    reloaded = TemplateMiner.from_registry_text(miner.export_registry(), config).freeze()
    assert [reloaded.parse_line(line) for line in lines] == frozen


def test_frozen_zero_hit_tie_goes_to_earliest_template():
    config = AbstractionConfig(tree_depth=2, similarity_threshold=0.5)
    registry = f"{REGISTRY_HEADER}\n1\ta b <*> <*>\n1\te f <*> <*>\n1\tg h i <*>\n"
    miner = TemplateMiner.from_registry_text(registry, config).freeze()
    # No literal hit anywhere: both two-wildcard templates score 2/4.
    assert miner.parse_line("q r s t") == "e1" == scan_parse_line(miner, "q r s t")
    assert miner.parse_line("q f s t") == "e2" == scan_parse_line(miner, "q f s t")
    assert miner.parse_line("g h i t") == "e3" == scan_parse_line(miner, "g h i t")


def test_training_merge_keeps_leaf_index_current():
    config = AbstractionConfig(tree_depth=2, similarity_threshold=0.4)
    # e2 is registered into e1's indexed leaf and shares its "b".  The
    # merge then makes e1 "a <*> <*> d e": "b" and "c" leave its columns,
    # and it ties e2 as widest at two wildcards, the earlier slot winning.
    prefix = ["a b c d e", "f b h <*> <*>", "a x y d e"]
    for probe, expected in [("a p q r s", "e1"), ("g b c x y", "e2"), ("k l m n o", "e1")]:
        miner, scan_miner = TemplateMiner(config), TemplateMiner(config)
        lines = prefix + [probe]
        ids = [miner.parse_line(line) for line in lines]
        assert ids == ["e1", "e2", "e1", expected]
        assert ids == [scan_train_line(scan_miner, line) for line in lines]
        assert miner.export_registry() == scan_miner.export_registry()


def _indexed_columns(rows):
    """Reference columns: each literal's slots per position, an int for one slot."""
    columns = [{} for _ in rows[0]]
    for slot, row in enumerate(rows):
        for lookup, tok in zip(columns, row):
            if tok != WILDCARD:
                lookup.setdefault(tok, []).append(slot)
    return tuple({tok: s[0] if len(s) == 1 else s for tok, s in c.items()} for c in columns)


@st.composite
def _index_histories(draw):
    """A first row, then steps: ``(True, row)`` adds a row, ``(False, (n, mask))`` widens one."""
    width = draw(st.integers(1, 5))
    row = st.tuples(*[st.sampled_from(("a", "b", "c", WILDCARD))] * width)
    widen = st.tuples(st.integers(0, 99), st.tuples(*[st.booleans()] * width))
    steps = st.one_of(st.tuples(st.just(True), row), st.tuples(st.just(False), widen))
    return draw(row), draw(st.lists(steps, max_size=30))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_index_histories())
# A wildcard, "a" shared by rows 0, 1 and 3 at position 0 and repeated in
# row 1, widens of a list-held and an int-held token, and a row added after.
@example(
    (("a", "b", WILDCARD),
     [(True, ("a", "a", "c")), (True, ("b", "a", "a")), (True, ("a", "b", "c")),
      (False, (1, (True, False, True))), (False, (0, (False, True, False))),
      (True, ("a", "a", "a"))])
)
def test_a_leaf_index_grown_by_add_and_widen_equals_one_built_from_its_rows(history):
    first, steps = history
    rows = [first]
    index = abstraction._LeafIndex(rows)
    for adds, step in steps:
        if adds:
            rows.append(step)
            index.add(step)
            continue
        n, mask = step
        slot = n % len(rows)
        old = rows[slot]
        rows[slot] = tuple(WILDCARD if widened else tok for tok, widened in zip(old, mask))
        index.widen(slot, old, rows[slot])
    rebuilt = abstraction._LeafIndex(rows)
    assert index.columns == rebuilt.columns == _indexed_columns(rows)
    assert index.wildcards == rebuilt.wildcards == [row.count(WILDCARD) for row in rows]
    most = max(index.wildcards)
    assert index.widest == rebuilt.widest == index.wildcards.index(most)


def test_a_memo_miss_routes_once(monkeypatch):
    # A route looks each raw token up first; only a miss asks _route_key,
    # and only training asks it about a fallback.  A register after a
    # stable route goes to the leaf the route found.
    calls = {"route_key": 0, "insert_leaf": 0}
    route_key, insert_leaf = abstraction._route_key, TemplateMiner._insert_leaf

    def counting_route_key(token):
        calls["route_key"] += 1
        return route_key(token)

    def counting_insert_leaf(miner, tokens):
        calls["insert_leaf"] += 1
        return insert_leaf(miner, tokens)

    monkeypatch.setattr(abstraction, "_route_key", counting_route_key)
    monkeypatch.setattr(TemplateMiner, "_insert_leaf", counting_insert_leaf)
    # Routes by the first two tokens; the root takes two literal children.
    config = AbstractionConfig(tree_depth=4, similarity_threshold=0.5, max_children=2)
    miner = TemplateMiner(config)
    steps = [
        ("open a b c d", "e1", 0, 1),  # no route yet: inserted
        ("open a x y z", "e2", 0, 0),  # a stable route: registered in the leaf found
        ("7 a b c d", "e3", 1, 1),  # "<*>" has no child yet: inserted
        ("shut a b c d", "e3", 1, 0),  # falls back at an uncapped node: unstable
        # Unstable at "halt", then no route: "5x" is inserted by its route key.
        ("halt 5x q r s", "e4", 2, 1),
    ]
    for line, event_id, route_keys, inserts in steps:
        calls.update(route_key=0, insert_leaf=0)
        assert miner.parse_line(line) == event_id
        assert calls == {"route_key": route_keys, "insert_leaf": inserts}, line
    assert list(miner._memo) == []  # no match on a stable route yet
    assert miner.parse_line("open a x y z") == "e2"
    assert list(miner._memo) == ["open a x y z"]
    miner.freeze()
    calls.update(route_key=0, insert_leaf=0)
    lines = ["open a x q r", "9 a b c d", "open 9 b c d", "zzz a b c d", "halt 6x q r s"]
    assert list(map(miner.parse_line, lines)) == ["e2", "e3", UNKNOWN_EVENT_ID, "e3", "e4"]
    assert calls == {"route_key": 0, "insert_leaf": 0}


def test_frozen_lookup_work_does_not_grow_with_training_size(tmp_path, monkeypatch):
    def noisy_corpus(name, cause_counts, passed_count, seed):
        spec = default_spec(
            cause_counts=cause_counts,
            passed_count=passed_count,
            noise_rate=0.1,
            lines_range=(50, 100),
            seed=seed,
        )
        generate_synthetic(spec, tmp_path / name)
        return load_corpus(tmp_path / name)

    test_lines = [
        line for log in noisy_corpus("test", (10, 10, 5, 5), 0, 2).failed for line in log.lines
    ]
    # A scan counts seq_similarity calls, an indexed lookup the posting
    # entries it visits.
    calls = 0
    similarity = bruteforce.seq_similarity

    def counting_similarity(tokens, template):
        nonlocal calls
        calls += 1
        return similarity(tokens, template)

    monkeypatch.setattr(bruteforce, "seq_similarity", counting_similarity)
    lookups = _count_best_slot(monkeypatch)
    indexed, scanned, scan_trained = [], [], []
    for scale in (1, 4):
        causes = tuple(count * scale for count in (20, 15, 10, 5))
        corpus = noisy_corpus(f"train{scale}", causes, 10 * scale, 1)
        calls = 0
        miner, _ = build(corpus)
        assert calls == 0
        scan_miner = TemplateMiner(miner.config)
        for logs in (corpus.passed, corpus.failed):
            for log in sorted(logs, key=lambda log: log.log_id):
                scan_train_log(scan_miner, log.lines)
        scan_trained.append(calls)
        assert scan_miner.export_registry() == miner.export_registry()
        lookups[1] = 0
        ids = [miner.parse_line(line) for line in test_lines]
        indexed.append(lookups[1])
        calls = 0
        assert [scan_parse_line(miner, line) for line in test_lines] == ids
        scanned.append(calls)
    assert 0 < indexed[1] <= indexed[0]
    # The corpus is in the regime the index is for: a leaf scan grows.
    assert scan_trained[1] > 2 * scan_trained[0]
    assert scanned[1] > 2 * scanned[0]


# -- the frozen parse_log memo --------------------------------------------------

# Raw values that the built-in rules mask to the same string as the key.
_SAME_WHEN_MASKED = {"1": ("1", "22", "305"), "0x1f": ("0x1f", "0XAB")}
# Longer than any trained line, so no leaf exists for it.
_UNKNOWN_LINE = "u v w x y z q"


@st.composite
def _memo_cases(draw):
    vocabulary = draw(_vocabularies)
    config = draw(_configs())
    words = st.lists(st.sampled_from(vocabulary + list(_EXTRA_TOKENS)), min_size=1, max_size=6)
    train = draw(st.lists(words.map(" ".join), min_size=1, max_size=40))

    def render(tokens):
        # One raw spelling of the tokens: any value of a token's mask class,
        # and any whitespace around and between them.
        line = draw(st.sampled_from(["", " ", "\t"]))
        for i, token in enumerate(tokens):
            if i:
                line += draw(st.sampled_from([" ", "  ", "\t"]))
            line += draw(st.sampled_from(_SAME_WHEN_MASKED.get(token, (token,))))
        return line + draw(st.sampled_from(["", " "]))

    # Every shape twice, so the same tokens recur under other whitespace or
    # other raw values, and once reversed, the same tokens in another order;
    # then blanks, an unknown line and repeats.
    shapes = draw(st.lists(words, min_size=1, max_size=8))
    pool = [render(tokens) for tokens in shapes for _ in range(2)]
    pool += [render(tokens[::-1]) for tokens in shapes]
    pool += ["", "  \t ", _UNKNOWN_LINE]
    # Several logs, each with its own repeats, so later logs hit what
    # earlier ones left in the memo.
    repeats = st.lists(st.sampled_from(pool), min_size=1, max_size=30)
    log = repeats.flatmap(lambda r: st.permutations(pool + r))
    logs = draw(st.lists(log, min_size=1, max_size=3))
    return config, train, logs


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_memo_cases())
def test_frozen_parse_log_memo_equals_per_line_parse(case):
    config, train, logs = case
    miner = TemplateMiner(config)
    for line in train:
        miner.parse_line(line)
    miner.freeze()
    registry = miner.export_registry()

    def cold():
        return TemplateMiner.from_registry_text(registry, config).freeze()

    expected = [tuple(cold().parse_line(line) for line in log) for log in logs]
    # Caps of 1 and 3 clear the memo in the middle of a log.
    for cap in (abstraction.FROZEN_MEMO_CAP, 1, 3):
        with mock.patch.object(abstraction, "FROZEN_MEMO_CAP", cap):
            miner.freeze()  # an empty memo for each cap
            for frozen in (cold(), miner):  # a reloaded miner's leaves start cold
                for log, want in zip(logs, expected):
                    seq = frozen.parse_log(log, "log")
                    assert seq.events == want
                    assert UNKNOWN_EVENT_ID in seq.events
                    assert len(frozen._frozen_memo) <= cap
                # parse_line reads the memo that parse_log filled.
                assert tuple(map(frozen.parse_line, logs[0])) == expected[0]


def test_training_parse_log_counts_every_repeated_line():
    miner = TemplateMiner(AbstractionConfig())
    assert miner.parse_log(["a b c", "a b d", "a b c"]).events == ("e1",) * 3
    assert miner.templates["e1"].match_count == 3

    lines = _fuzz_lines(9, 150)
    log = lines + lines[:60]
    miner, scan_miner = TemplateMiner(AbstractionConfig()), TemplateMiner(AbstractionConfig())
    events = [e for e in miner.parse_log(log).events if e is not None]
    assert events == scan_train_log(scan_miner, log)
    assert miner.export_registry() == scan_miner.export_registry()


def _count_best_slot(monkeypatch):
    """Counts from now on: ``_LeafIndex.best_slot`` calls, and the posting entries they visit."""
    calls = [0, 0]
    best_slot = abstraction._LeafIndex.best_slot

    def counting_best_slot(index, tokens):
        calls[0] += 1
        for slots in map(dict.get, index.columns, tokens):
            if slots is not None:
                calls[1] += 1 if slots.__class__ is int else len(slots)
        return best_slot(index, tokens)

    monkeypatch.setattr(abstraction._LeafIndex, "best_slot", counting_best_slot)
    return calls


def test_frozen_memo_lives_as_long_as_the_miner(monkeypatch):
    miner = TemplateMiner(AbstractionConfig())
    miner.parse_line("retry 3 of job alpha")
    miner.freeze()
    assert miner._frozen_memo == {}
    lookups = _count_best_slot(monkeypatch)
    log = ["retry 3 of job alpha"] * 50
    assert miner.parse_log(log).events == ("e1",) * 50
    assert lookups[0] == 1
    assert miner.parse_log(log).events == ("e1",) * 50
    assert lookups[0] == 1  # the second parse of the log matches nothing
    # The key is the masked line, not the raw one, and parse_line reads it.
    assert miner.parse_log([f"retry {n} of job alpha" for n in range(50)]).events == ("e1",) * 50
    assert miner.parse_line("retry 99 of job alpha") == "e1"
    assert lookups[0] == 1
    assert list(miner._frozen_memo) == ["retry <*> of job alpha"]
    # freeze() and a reload each start an empty memo.
    miner.freeze()
    assert miner._frozen_memo == {}
    assert miner.parse_log(log).events == ("e1",) * 50
    assert lookups[0] == 2
    reloaded = TemplateMiner.from_registry_text(miner.export_registry()).freeze()
    assert reloaded._frozen_memo == {}
    assert reloaded.parse_line("retry 3 of job alpha") == "e1"
    assert lookups[0] == 3


def test_frozen_memo_never_holds_more_than_the_cap(monkeypatch):
    monkeypatch.setattr(abstraction, "FROZEN_MEMO_CAP", 3)
    miner = TemplateMiner(AbstractionConfig())
    for word in "abcd":
        miner.parse_line(f"job {word} done")
    miner.freeze()
    lookups = _count_best_slot(monkeypatch)
    # "d" finds the memo full and clears it, so "a" and "b" match again.
    for n, word in enumerate("abcdab", start=1):
        miner.parse_line(f"job {word} done")
        assert len(miner._frozen_memo) <= 3
        assert lookups[0] == n
    assert list(miner._frozen_memo) == ["job d done", "job a done", "job b done"]
    miner.parse_line("job a done")
    assert lookups[0] == 6


# -- the training memo --------------------------------------------------------

# Digit-bearing tokens: "1" masks to <*>, "x1" and "x2" stay literal but
# route through the <*> child, so routes fall back and fill overflow lanes.
_TRAIN_EXTRA_TOKENS = ("1", "x1", "x2")


@st.composite
def _training_runs(draw):
    vocabulary = draw(st.lists(st.sampled_from(_WORD_POOL[:4]), min_size=2, max_size=4, unique=True))
    config = draw(
        st.builds(
            AbstractionConfig,
            tree_depth=st.sampled_from([2, 3, 4, 5]),
            similarity_threshold=st.sampled_from([0.34, 0.4, 0.5, 0.6, 1.0]),
            max_children=st.sampled_from([1, 2, 3, 100]),
        )
    )
    words = st.lists(st.sampled_from(vocabulary + list(_TRAIN_EXTRA_TOKENS)), min_size=2, max_size=4)
    # Logs drawn from a few distinct lines repeat them often, so entries
    # are recorded, hit, and made stale by later merges and registers.
    pool = draw(st.lists(words.map(" ".join), min_size=2, max_size=12, unique=True)) + [""]
    # Each log is trained by parse_log, or line by line by parse_line.
    logs = st.tuples(st.booleans(), st.lists(st.sampled_from(pool), max_size=40))
    return config, draw(st.lists(logs, min_size=1, max_size=8))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_training_runs())
def test_training_memo_equals_linear_scan_across_logs(case):
    config, logs = case
    miner, scan_miner = TemplateMiner(config), TemplateMiner(config)
    for whole_log, lines in logs:
        if whole_log:
            events = [e for e in miner.parse_log(lines).events if e is not None]
        else:
            events = [e for e in map(miner.parse_line, lines) if e is not None]
        assert events == scan_train_log(scan_miner, lines)
        assert miner.export_registry() == scan_miner.export_registry()


def test_training_memo_entry_is_stale_after_an_earlier_slot_widens():
    # "c d" is recorded as e2.  Two merges widen e1 to "<*> <*>", which now
    # ties e2 on "c d" at full score and wins as the earlier slot.
    config = AbstractionConfig(tree_depth=2, similarity_threshold=0.5)
    lines = ["a b", "c d", "c d", "a d", "c b", "c d"]
    miner, scan_miner = TemplateMiner(config), TemplateMiner(config)
    events = miner.parse_log(lines).events
    assert events == ("e1", "e2", "e2", "e1", "e1", "e1")
    assert list(events) == scan_train_log(scan_miner, lines)
    assert miner.export_registry() == scan_miner.export_registry()


@pytest.mark.parametrize("max_children", [1, 100])
def test_training_memo_skips_a_fallback_at_an_uncapped_node(max_children):
    # "k a b" falls back to the <*> child and matches e1, but the node has
    # fewer than max_children literal children, so it may still gain "k":
    # registering "k x y" creates it, and the next "k a b" routes there and
    # registers e3.
    config = AbstractionConfig(tree_depth=3, similarity_threshold=0.5, max_children=max_children)
    lines = ["1 a b", "k a b", "k x y", "k a b"]
    miner, scan_miner = TemplateMiner(config), TemplateMiner(config)
    events = miner.parse_log(lines).events
    assert events == ("e1", "e1", "e2", "e3")
    assert list(events) == scan_train_log(scan_miner, lines)
    assert miner.export_registry() == scan_miner.export_registry()


def test_training_memo_hits_in_an_overflow_lane(monkeypatch):
    # "x" takes the root's one literal child, so "y" and "z" fall back to
    # the <*> lane of a capped node: a stable route.
    config = AbstractionConfig(tree_depth=3, max_children=1)
    lines = ["x a b", "y a b"] + ["z a b"] * 5
    calls = _count_best_slot(monkeypatch)
    miner, scan_miner = TemplateMiner(config), TemplateMiner(config)
    events = miner.parse_log(lines).events
    assert events == ("e1",) + ("e2",) * 6
    assert calls[0] == 1  # the first "z a b"; the rest hit the memo
    assert list(events) == scan_train_log(scan_miner, lines)
    assert miner.export_registry() == scan_miner.export_registry()
    assert miner.templates["e2"].match_count == 6


def test_training_memo_lives_across_logs_and_keys_the_masked_line(monkeypatch):
    miner = TemplateMiner(AbstractionConfig())
    miner.parse_log(["retry 3 of job alpha"] * 2)  # registers, then records
    calls = _count_best_slot(monkeypatch)
    log = [f"retry {n} of job alpha" for n in range(50)]
    assert miner.parse_log(log).events == ("e1",) * 50
    assert miner.parse_log(log).events == ("e1",) * 50
    assert calls[0] == 0
    assert miner.templates["e1"].match_count == 102


def test_training_memo_stays_exact_when_parse_line_widens_between_logs():
    config = AbstractionConfig(tree_depth=2, similarity_threshold=0.5)
    miner = TemplateMiner(config)
    assert miner.parse_log(["a b", "c d", "c d"]).events == ("e1", "e2", "e2")
    assert miner.parse_line("a d") == "e1"
    assert miner.parse_line("c b") == "e1"  # e1 is now "<*> <*>"
    assert miner.parse_log(["c d"]).events == ("e1",)


def test_freeze_drops_training_memo():
    miner = TemplateMiner(AbstractionConfig())
    miner.parse_log(["a b c", "a b c"])
    assert "a b c" in miner._memo
    miner.freeze()
    assert miner._memo is None
    assert miner.parse_log(["a b c", "a b c"]).events == ("e1", "e1")
    assert miner.templates["e1"].match_count == 2


def test_a_widen_deletes_the_training_memo_keys_of_its_leaf_and_no_other():
    # tree_depth 2 routes by token count alone: one leaf for 2-token lines,
    # one for 3-token lines, every route stable.
    config = AbstractionConfig(tree_depth=2, similarity_threshold=0.5)
    miner, scan_miner = TemplateMiner(config), TemplateMiner(config)
    lines = ["a b", "a b", "c d", "c d", "x y z", "x y z", ""]
    assert miner.parse_log(lines).events == ("e1", "e1", "e2", "e2", "e3", "e3", None)
    assert dict(miner._memo) == {"a b": "e1", "c d": "e2", "x y z": "e3", "": None}
    # "a d" ties e1 and e2 at 0.5 and merges into e1, the earlier slot,
    # which widens to "a <*>": the keys of the 2-token leaf go, and "a d"
    # is recorded in their place.
    assert miner.parse_line("a d") == "e1"
    assert dict(miner._memo) == {"x y z": "e3", "": None, "a d": "e1"}
    # The next "c d" is parsed in full and recorded again.
    assert miner.parse_line("c d") == "e2"
    assert dict(miner._memo) == {"x y z": "e3", "": None, "a d": "e1", "c d": "e2"}
    assert list(miner._memo._keys.values()) == [["x y z"], ["a d", "c d"]]
    scan_train_log(scan_miner, lines + ["a d", "c d"])
    assert miner.export_registry() == scan_miner.export_registry()
    assert [t.match_count for t in miner.templates.values()] == [3, 3, 2]


def test_the_parser_is_the_getitem_of_the_memo_of_the_miner_mode():
    # A memo hit is one C-level dict lookup in both modes: no Python code
    # wraps the lookup, and neither memo overrides it.
    miner = TemplateMiner()
    for memo in (lambda: miner._memo, lambda: miner._frozen_memo):
        parser = miner._parser()
        assert isinstance(parser, types.BuiltinMethodType)
        assert parser.__self__ is memo() and parser == memo().__getitem__
        assert type(memo()).__getitem__ is dict.__getitem__
        miner.freeze()


def _strings_reachable_from(root):
    """Every str reachable from ``root`` through the objects it refers to, past no type."""
    found, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            found.add(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_a_built_miner_refers_to_no_masked_training_line(tmp_path):
    # Masked lines of two or more tokens: no template token holds a space.
    spec = default_spec(cause_counts=(6, 4, 3, 2), passed_count=5, seed=3, noise_rate=0.2)
    generate_synthetic(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    texts = [log.text for log in (*corpus.passed, *corpus.failed)]
    masked = {
        line for text in texts for line in abstraction._mask(text).split("\n") if " " in line.strip()
    }
    training = TemplateMiner()
    assert all(training.event_sets(texts))
    # While training, the memo holds those that matched on a stable route.
    assert masked & _strings_reachable_from(training)
    miner, _ = build(corpus)
    assert not masked & _strings_reachable_from(miner)


# -- whole-log masking --------------------------------------------------------

# Short lines of mask pieces, with the line breaks other than "\n" that a
# rule could see; a log rarely holds a line of the API's own with a "\n".
_log_lines = st.lists(st.sampled_from([*_MASK_PIECES, "\r", "\x0c"]), max_size=12).map("".join)


@st.composite
def _mask_logs(draw):
    log = draw(st.lists(_log_lines, max_size=8))
    if log and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(log) - 1))
        log[at] += "\n" + draw(_log_lines)
    return log


@_mask_settings
@given(log=_mask_logs())
def test_log_masking_equals_per_line_masking(log):
    masked = abstraction._mask_log(tuple(log))
    assert masked == [abstraction._mask(line) for line in log]
    assert [line.split() for line in masked] == [written_preprocess(line) for line in log]


def _assert_parse_log_is_per_line(config, log, expected):
    """``parse_log`` gives ``parse_line``'s events per line, training and frozen."""
    miner, per_line_miner = TemplateMiner(config), TemplateMiner(config)
    for _ in ("training", "frozen"):
        per_line = tuple(map(per_line_miner.parse_line, log))
        assert miner.parse_log(log).events == per_line == expected
        miner.freeze()
        per_line_miner = miner


def test_a_line_holding_a_newline_masks_as_one_line():
    # A line given through the API that holds "\n" stays one line.
    log = ["x 1", "a 1\nb 2", "y 2"]
    _assert_parse_log_is_per_line(AbstractionConfig(), log, ("e1", "e2", "e3"))


class _CountingRule:
    """A compiled mask rule that counts its ``sub`` calls and the lines of each text."""

    def __init__(self, pattern):
        self.pattern, self.calls, self.lines = pattern, 0, []

    def sub(self, placeholder, text):
        self.calls += 1
        self.lines.append(text.count("\n") + 1)
        return self.pattern.sub(placeholder, text)


def test_parse_log_masks_in_one_pass_per_rule():
    # An ASCII log masks through the ASCII twins, any other log through the
    # Unicode compiles; the counters wrap the ones the log must use.
    ascii_log = [f"retry {n} of job /srv/a.rb:{n} at 0x{n:x} on 10.0.0.{n}" for n in range(50)]
    for log, rules in (
        (ascii_log, "_ASCII_RULES"),
        ([line + " \u00e9t\u00e9" for line in ascii_log], "_RULES"),
    ):
        miner = TemplateMiner()
        for _ in ("training", "frozen"):
            counters = [_CountingRule(rule) for rule in getattr(abstraction, rules)]
            with mock.patch.object(abstraction, rules, tuple(counters)):
                assert len(miner.parse_log(log)) == 50
            assert [c.calls for c in counters] == [1] * 4
            miner.freeze()


def test_event_sets_mask_in_one_pass_per_rule_per_chunk(monkeypatch):
    # Logs of 30, 30, 10, 70 and 5 lines in chunks of whole logs closed at
    # 64 lines: the third log closes the first chunk at 70 lines, the fourth
    # is a chunk of its own, and the last one is the 5-line tail.  Every
    # line masks to one template.
    monkeypatch.setattr(abstraction, "MASK_CHUNK_LINES", 64)
    sizes = (30, 30, 10, 70, 5)
    logs = [
        [f"retry {n} of job /srv/a.rb:{n} at 0x{n:x} on 10.0.{log}.{n}" for n in range(size)]
        for log, size in enumerate(sizes)
    ]
    miner = TemplateMiner()
    for _ in ("training", "frozen"):
        counters = [_CountingRule(rule) for rule in abstraction._ASCII_RULES]
        with mock.patch.object(abstraction, "_ASCII_RULES", tuple(counters)):
            assert list(miner.event_sets(map("\n".join, logs))) == [frozenset({"e1"})] * 5
        assert [c.lines for c in counters] == [[70, 70, 5]] * 4
        assert miner.templates["e1"].match_count == sum(sizes)
        miner.freeze()


def test_event_sets_pull_no_log_past_the_chunk_of_the_set_asked_for(monkeypatch):
    # Chunks close at 4 lines: logs 0-2 (1 + 2 + 3 lines) fill the first,
    # logs 3-4 (1 + 5) the second.
    monkeypatch.setattr(abstraction, "MASK_CHUNK_LINES", 4)
    pulled = []

    def logs():
        for log, size in enumerate((1, 2, 3, 1, 5)):
            pulled.append(log)
            yield "\n".join(f"job {log} step {n}" for n in range(size))

    sets = TemplateMiner().event_sets(logs())
    assert pulled == []
    for expected in ([0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]):
        assert next(sets)
        assert pulled == expected
    assert next(sets, None) is None


# -- event_sets: parse_log's distinct events over many logs, masked in chunks --

_ascii_log_lines = st.lists(
    st.sampled_from([*_ASCII_MASK_PIECES, "\r", "\x0c"]), max_size=12
).map("".join)


@st.composite
def _log_batches(draw):
    """Logs of short ASCII lines; sometimes one line gets a non-ASCII piece
    and one line a "\n" of its own, as only the library API can pass."""
    logs = draw(st.lists(st.lists(_ascii_log_lines, max_size=8), max_size=6))
    at = [(i, j) for i, log in enumerate(logs) for j in range(len(log))]
    if at and draw(st.booleans()):
        i, j = draw(st.sampled_from(at))
        logs[i][j] += draw(st.sampled_from(["\u0663", "\u00e9", "\u00b2"]))
    if at and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.sampled_from(at))
        logs[i][j] += "\n" + draw(_ascii_log_lines)
    return [tuple(lines) for lines in logs]


def _assert_event_sets_are_parse_log(chunk, train, probe):
    """Each set of ``event_sets`` over the logs' texts is ``parse_log``'s distinct
    events over the text's lines, training then frozen.

    A log comes as lines, and its text is their join: a line that holds
    ``"\n"`` is two lines of the text."""
    batched, per_log = TemplateMiner(), TemplateMiner()
    with mock.patch.object(abstraction, "MASK_CHUNK_LINES", chunk):
        for logs in (train, probe):
            texts = ["\n".join(lines) for lines in logs]
            sets = batched.event_sets(iter(texts))
            want = [per_log.parse_log(text.split("\n")).distinct_events() for text in texts]
            assert list(sets) == want
            assert batched.export_registry() == per_log.export_registry()
            assert {e: t.match_count for e, t in batched.templates.items()} == {
                e: t.match_count for e, t in per_log.templates.items()
            }
            batched.freeze()
            per_log.freeze()


# Chunk bounds that cut most logs, one that never does, and the real one.
_chunks = st.sampled_from([1, 2, 3, 5, 64, abstraction.MASK_CHUNK_LINES])
_BLANK_AND_EMPTY_LOGS = [("a 1", "b /x", "a 2"), (), ("", " \t")]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(chunk=_chunks, train=_log_batches(), probe=_log_batches())
@example(2, _BLANK_AND_EMPTY_LOGS, _BLANK_AND_EMPTY_LOGS)
@example(3, [("e 1", "e\u00e9 2", "e 3", "e 4")], [])
@example(2, [("x 1", "a 1\nb 2", "y 2"), ("a 1",)], [])
# A frozen probe line that matches no template is left out of its set.
@example(2, [("a 1", "b 2")], [("a 1", "never seen before here", "b 2"), ("zz",)])
def test_event_sets_equal_parse_log_per_log(chunk, train, probe):
    _assert_event_sets_are_parse_log(chunk, train, probe)


def test_event_sets_equal_parse_log_on_a_log_longer_than_a_chunk():
    # The real bound: a log of 3 lines, then one 2 lines past a chunk that
    # holds one non-ASCII line and blank lines, then an empty log.
    long_log = tuple(
        "" if n % 500 == 7 else f"job {n % 13} on 10.0.0.{n % 256} at /srv/a{n % 7}.rb:{n}"
        for n in range(abstraction.MASK_CHUNK_LINES + 2)
    )
    long_log = long_log[:100] + ("job 3 \u00e9t\u00e9 0x1f",) + long_log[101:]
    logs = [("job 1 on 10.0.0.1", "", "retry 4"), long_log, ()]
    _assert_event_sets_are_parse_log(abstraction.MASK_CHUNK_LINES, logs, logs)


# Log files as bytes: CRLF, lone CR, no final newline, an empty file, only
# "\n", invalid UTF-8, and one non-ASCII line.
_LOG_FILES = (
    b"retry 1 of job a\r\nretry 2 of job a\r\n",
    b"job /srv/a.rb:3 at 0x1f\rjob /srv/b.rb:4 at 0x2e\r",
    b"host 10.0.0.1 up\nhost 10.0.0.2 up",
    b"",
    b"\n",
    b"bad \xff\xfe bytes 7\nretry 3 of job a\n",
    b"retry 4 of job a\nt\xc3\xa9st 5 done\n\n",
)


@pytest.mark.parametrize("chunk", [1, 2, 3, 64, abstraction.MASK_CHUNK_LINES])
def test_event_sets_over_file_texts_equal_parse_log_over_their_lines(tmp_path, chunk):
    paths = []
    for n, data in enumerate(_LOG_FILES):
        paths.append(tmp_path / f"{n}.log")
        paths[-1].write_bytes(data)
    texted, lined = TemplateMiner(), TemplateMiner()
    with mock.patch.object(abstraction, "MASK_CHUNK_LINES", chunk):
        for _ in ("training", "frozen"):
            sets = list(texted.event_sets(map(read_log_text, paths)))
            assert sets == [lined.parse_log(read_log_lines(p)).distinct_events() for p in paths]
            assert sum(map(bool, sets)) == 5
            assert texted.registry_lines() == lined.registry_lines()  # counts included
            texted.freeze()
            lined.freeze()


def test_ipv4_rule_is_one_dot_led_pattern_of_bounded_repeats():
    # Dotted numbers that are no address mask to themselves.  The rule is
    # one pattern that starts at a dot and repeats nothing without bound,
    # so the work at each dot is bounded and masking stays linear.
    ascii_log = tuple(f"build 1.2.3.4.{n % 10} done" for n in range(4000))
    for log, rules in (
        (ascii_log, abstraction._ASCII_RULES),
        (tuple(line + " \u00e9" for line in ascii_log), abstraction._RULES),
    ):
        assert abstraction._mask_log(log) == list(log)
        rule = rules[0]
        assert rule.__slots__ == ("pattern", "_finditer")
        assert rule._finditer.__self__.pattern == rule.pattern
        assert rule.pattern.startswith(r"\.")
        assert re.search(r"[*+]|\{\d*,\}", rule.pattern) is None


@pytest.mark.parametrize("kind", ["ascii", "non-ascii"])
@_mask_settings
@given(data=st.data())
def test_log_masking_equals_the_written_rules(kind, data):
    pieces = _ASCII_MASK_PIECES if kind == "ascii" else _MASK_PIECES
    lines = st.lists(st.sampled_from(pieces), max_size=12).map("".join)
    log = data.draw(st.lists(lines, min_size=1, max_size=8))
    if kind == "non-ascii":
        at = data.draw(st.integers(0, len(log) - 1))
        log[at] += data.draw(st.sampled_from(["\u0663", "\u00b2", "\u00e9"]))
    assert "".join(log).isascii() == (kind == "ascii")
    masked = abstraction._mask_log(tuple(log))
    assert [line.split() for line in masked] == [written_preprocess(line) for line in log]


# -- invariants -------------------------------------------------------------


def _fuzz_lines(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    words = ["alpha", "beta", "gamma", "delta", "run", "fail", "ok", "node", "127.0.0.1"]
    lines = []
    for _ in range(count):
        n = rng.randint(1, 8)
        lines.append(" ".join(rng.choice(words) + (str(rng.randint(0, 30)) if rng.random() < 0.4 else "") for _ in range(n)))
    return lines


def test_determinism_identical_inputs_identical_registries(config):
    lines = _fuzz_lines(3, 300)
    first = TemplateMiner(config)
    second = TemplateMiner(config)
    seq_a = first.parse_log(lines, "log")
    seq_b = second.parse_log(lines, "log")
    assert seq_a == seq_b
    assert first.export_registry() == second.export_registry()


def test_idempotent_reparse_in_trained_state(config):
    lines = _fuzz_lines(4, 200)
    miner = TemplateMiner(config)
    miner.parse_log(lines, "log")
    count = len(miner.templates)
    first = [miner.parse_line(line) for line in lines]
    second = [miner.parse_line(line) for line in lines]
    assert first == second
    assert len(miner.templates) == count


def test_wildcard_positions_only_grow(config):
    lines = _fuzz_lines(5, 400)
    miner = TemplateMiner(config)
    seen: dict[str, frozenset[int]] = {}
    for line in lines:
        event = miner.parse_line(line)
        if event is None:
            continue
        tokens = miner.templates[event].tokens
        positions = frozenset(i for i, tok in enumerate(tokens) if tok == WILDCARD)
        assert positions >= seen.get(event, frozenset())
        seen[event] = positions


def test_compression_bounds(config):
    lines = _fuzz_lines(6, 500)
    miner = TemplateMiner(config)
    seq = miner.parse_log(lines, "log")
    assert len(set(seq.events)) <= len(set(lines))


# -- registry persistence ---------------------------------------------------


def test_registry_export_format(config):
    miner = TemplateMiner(config)
    miner.parse_line("alpha beta 7")
    text = miner.export_registry()
    header, row = text.splitlines()
    assert header == REGISTRY_HEADER
    # No id is written: the first row is e1.
    count, template = row.split("\t")
    assert count == "1"
    assert template == "alpha beta <*>"
    assert list(TemplateMiner.from_registry_text(text, config).templates) == ["e1"]


def test_registry_round_trip(config):
    miner = TemplateMiner(config)
    miner.parse_log(_fuzz_lines(8, 120), "log")
    restored = TemplateMiner.from_registry_text(miner.export_registry(), config)
    assert restored.export_registry() == miner.export_registry()
    # A rebuilt miner keeps allocating fresh ids after the highest one.
    # Nine tokens: longer than any fuzz line, so this cannot merge.
    new_event = restored.parse_line("zz yy xx ww vv uu tt ss rr")
    assert new_event == f"e{len(miner.templates) + 1}"


def test_rebuilt_miner_continues_after_its_highest_id(config):
    # The n-th row is e<n>, so fresh ids follow the last row.
    registry = f"{REGISTRY_HEADER}\n1\talpha <*>\n1\tbeta <*>\n1\tgamma <*>\n"
    miner = TemplateMiner.from_registry_text(registry, config)
    assert list(miner.templates) == ["e1", "e2", "e3"]
    assert [t.text for t in miner.templates.values()] == ["alpha <*>", "beta <*>", "gamma <*>"]
    assert miner.parse_line("zz yy xx ww vv uu tt ss rr") == "e4"
    assert miner.parse_line("qq pp oo nn mm ll kk jj ii hh") == "e5"
    assert miner.parse_line("alpha 7") == "e1"


def test_event_sort_key_orders_miner_ids_by_value_then_other_ids_by_text():
    # Miner ids e<n> sort by n, with no int() built however long n is.  An
    # id of another form, which no model holds, sorts by length, then text.
    longest = "e" + "9" * 5000
    ids = ["e10", longest, "e2", "e1", "e9", "e100", "x1", "e²"]
    assert sorted(ids, key=event_sort_key) == [
        "e1", "e2", "e9", "e²", "x1", "e10", "e100", longest
    ]


def test_registry_version_mismatch(config):
    with pytest.raises(ValidationError, match="header"):
        TemplateMiner.from_registry_text("ncc-templates v999\n", config)


@pytest.mark.parametrize(
    "mask_rules",
    [
        (),
        DEFAULT_MASK_RULES[::-1],
        DEFAULT_MASK_RULES[:3],
        (*DEFAULT_MASK_RULES, (r"\bab\b", "AB")),
        (*DEFAULT_MASK_RULES[:3], (DEFAULT_MASK_RULES[3][0], "N")),
        [[1, 2]],
        [["a"]],
    ],
    ids=["empty", "permuted", "subset", "extra", "other-placeholder", "not-text", "not-a-pair"],
)
def test_mask_rules_other_than_the_defaults_are_rejected(mask_rules):
    # Every miner masks with DEFAULT_MASK_RULES: a config has no field that
    # could name other rules, so none can be given.
    with pytest.raises(TypeError, match="unexpected keyword argument 'mask_rules'"):
        AbstractionConfig(mask_rules=mask_rules)


def test_config_invariants():
    with pytest.raises(ValidationError):
        AbstractionConfig(tree_depth=1)
    with pytest.raises(ValidationError):
        AbstractionConfig(similarity_threshold=0.0)
    with pytest.raises(ValidationError):
        AbstractionConfig(similarity_threshold=1.5)
    with pytest.raises(ValidationError):
        AbstractionConfig(max_children=0)
