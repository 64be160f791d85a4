import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import scan_parse_line, scan_train_line, scan_train_log, written_preprocess
from ncchecker import AbstractionConfig, ValidationError, abstraction
from ncchecker.abstraction import (
    DEFAULT_MASK_RULES,
    REGISTRY_HEADER,
    UNKNOWN_EVENT_ID,
    WILDCARD,
    LogTemplate,
    TemplateMiner,
    preprocess,
    seq_similarity,
)
from ncchecker.corpus import load_corpus
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
    "0x", "0X1f", "1.2.3.4", "/a", ":7",
]
_mask_lines = st.lists(st.sampled_from(_MASK_PIECES), max_size=40).map("".join)
_mask_settings = settings(max_examples=400, derandomize=True, database=None, deadline=None)


@pytest.mark.parametrize("rule", range(len(DEFAULT_MASK_RULES)))
@_mask_settings
@given(line=_mask_lines)
def test_builtin_rule_scan_form_masks_like_the_written_form(rule, line):
    written, placeholder = DEFAULT_MASK_RULES[rule]
    compiled, _ = abstraction._compiled_rules(DEFAULT_MASK_RULES)[rule]
    assert compiled.pattern != written  # compiled from the scan form
    assert compiled.sub(placeholder, line) == re.sub(written, placeholder, line)


@_mask_settings
@given(line=_mask_lines)
def test_preprocess_masks_like_the_written_rules_in_order(line):
    config = AbstractionConfig()
    assert preprocess(line, config) == written_preprocess(line, config)


def test_only_builtin_patterns_compile_from_scan_forms():
    # A built-in pattern keeps its scan form under another placeholder; a
    # pattern of the user's own compiles as written.
    rules = ((DEFAULT_MASK_RULES[3][0], "N"), (r"\bab\b", "AB"))
    compiled = abstraction._compiled_rules(rules)
    assert compiled[0][0].pattern != rules[0][0]
    assert compiled[1][0].pattern == rules[1][0]
    assert preprocess("ab 12 ab1 1.5", AbstractionConfig(mask_rules=rules)) == [
        "AB", "N", "ab1", "1.5"
    ]


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
    # Even without the integer mask rule, digit tokens route through the
    # wildcard child, the pair meets similarity 5/6 >= 0.4, and the
    # differing slot becomes a wildcard.
    miner = TemplateMiner(AbstractionConfig(mask_rules=()))
    first = miner.parse_line("Took 10 seconds to build instances")
    second = miner.parse_line("Took 20 seconds to build instances")
    assert first == second
    template = miner.templates[first]
    assert template.tokens == ("Took", WILDCARD, "seconds", "to", "build", "instances")
    assert len(miner.templates) == 1


def test_blank_line_yields_no_event(config):
    miner = TemplateMiner(config)
    assert miner.parse_line("") is None
    assert not miner.templates


def test_max_children_overflow_routes_to_catchall():
    miner = TemplateMiner(AbstractionConfig(max_children=1, mask_rules=()))
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
    assert len(seq) == 3  # blank line skipped
    assert seq.line_numbers == (1, 2, 4)
    assert len(set(seq.events)) == 3


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


def _configs(mask_rules=st.just(DEFAULT_MASK_RULES)):
    return st.builds(
        AbstractionConfig,
        tree_depth=st.sampled_from([2, 3, 4]),
        similarity_threshold=st.sampled_from([0.34, 0.4, 0.5, 0.6, 1.0]),
        max_children=st.sampled_from([1, 2, 100]),
        mask_rules=mask_rules,
    )


@st.composite
def _miner_cases(draw):
    vocabulary = draw(_vocabularies)
    line = st.lists(st.sampled_from(vocabulary + list(_EXTRA_TOKENS)), min_size=1, max_size=6)
    config = draw(_configs())
    train = draw(st.lists(line.map(" ".join), min_size=1, max_size=40))
    probes = draw(st.lists(line.map(" ".join), max_size=20))
    return config, train, probes


@settings(deadline=None)
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
    config = AbstractionConfig(tree_depth=2, similarity_threshold=0.5, mask_rules=())
    registry = f"{REGISTRY_HEADER}\ne1\t1\ta b <*> <*>\ne2\t1\te f <*> <*>\ne3\t1\tg h i <*>\n"
    miner = TemplateMiner.from_registry_text(registry, config).freeze()
    # No literal hit anywhere: both two-wildcard templates score 2/4.
    assert miner.parse_line("q r s t") == "e1" == scan_parse_line(miner, "q r s t")
    assert miner.parse_line("q f s t") == "e2" == scan_parse_line(miner, "q f s t")
    assert miner.parse_line("g h i t") == "e3" == scan_parse_line(miner, "g h i t")


def test_training_merge_keeps_leaf_index_current():
    config = AbstractionConfig(tree_depth=2, similarity_threshold=0.4, mask_rules=())
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
    calls = 0
    similarity = abstraction.seq_similarity

    def counting_similarity(tokens, template):
        nonlocal calls
        calls += 1
        return similarity(tokens, template)

    monkeypatch.setattr(abstraction, "seq_similarity", counting_similarity)
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
        calls = 0
        ids = [miner.parse_line(line) for line in test_lines]
        indexed.append(calls)
        calls = 0
        assert [scan_parse_line(miner, line) for line in test_lines] == ids
        scanned.append(calls)
    assert indexed[1] <= indexed[0]
    # The corpus is in the regime the index is for: a leaf scan grows.
    assert scan_trained[1] > 2 * scan_trained[0]
    assert scanned[1] > 2 * scanned[0]


def _cold_shared_miner(lines):
    config = AbstractionConfig(max_children=2)
    trained = TemplateMiner(config)
    for line in lines[:300]:
        trained.parse_line(line)
    # A reloaded miner and the scan build no index, so threads racing on
    # it race on cold leaves.
    return TemplateMiner.from_registry_text(trained.export_registry(), config).freeze()


def _results_of_four_threads(parse):
    """``parse()`` in 4 threads released at once, switching as often as possible."""
    results = {}
    start = threading.Barrier(4)

    def worker(n):
        start.wait(timeout=30)
        results[n] = parse()

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    return [results[n] for n in range(4)]


def test_shared_frozen_miner_gives_serial_ids_across_threads():
    lines = _fuzz_lines(17, 600)
    miner = _cold_shared_miner(lines)
    expected = [scan_parse_line(miner, line) for line in lines]
    results = _results_of_four_threads(lambda: [miner.parse_line(line) for line in lines])
    assert results == [expected] * 4


def test_shared_frozen_miner_gives_serial_logs_across_threads():
    lines = _fuzz_lines(17, 600)
    miner = _cold_shared_miner(lines)
    # Each log repeats a third of its lines, so every thread's memo both
    # misses on cold leaves and hits.
    logs = [lines[i : i + 60] + lines[i : i + 20] for i in range(0, len(lines), 60)]
    expected = [tuple(scan_parse_line(miner, line) for line in log) for log in logs]
    results = _results_of_four_threads(lambda: [miner.parse_log(log).events for log in logs])
    assert results == [expected] * 4


# -- the frozen parse_log memo --------------------------------------------------

# Raw values that the built-in rules mask to the same string as the key.
_SAME_WHEN_MASKED = {"1": ("1", "22", "305"), "0x1f": ("0x1f", "0XAB")}
# A rule of the user's own, ahead of the built-in ones: "e" and "f" both
# mask to "EF".
_USER_RULE = (r"\b[ef]\b", "EF")
# Longer than any trained line, so no leaf exists for it.
_UNKNOWN_LINE = "u v w x y z q"


@st.composite
def _memo_cases(draw):
    vocabulary = draw(_vocabularies)
    config = draw(_configs(st.sampled_from([DEFAULT_MASK_RULES, (_USER_RULE, *DEFAULT_MASK_RULES)])))
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
    repeats = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return config, train, draw(st.permutations(pool + repeats))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_memo_cases())
def test_frozen_parse_log_memo_equals_per_line_parse(case):
    config, train, log = case
    miner = TemplateMiner(config)
    for line in train:
        miner.parse_line(line)
    miner.freeze()
    reloaded = TemplateMiner.from_registry_text(miner.export_registry(), config).freeze()
    for frozen in (reloaded, miner):  # the reloaded miner's leaves start cold
        seq = frozen.parse_log(log, "log")
        per_line = [(n, frozen.parse_line(line)) for n, line in enumerate(log, start=1)]
        expected = [(n, event_id) for n, event_id in per_line if event_id is not None]
        assert list(zip(seq.line_numbers, seq.events)) == expected
        assert UNKNOWN_EVENT_ID in seq.events


def test_training_parse_log_counts_every_repeated_line():
    miner = TemplateMiner(AbstractionConfig())
    assert miner.parse_log(["a b c", "a b d", "a b c"]).events == ("e1",) * 3
    assert miner.templates["e1"].match_count == 3

    lines = _fuzz_lines(9, 150)
    log = lines + lines[:60]
    miner, scan_miner = TemplateMiner(AbstractionConfig()), TemplateMiner(AbstractionConfig())
    assert list(miner.parse_log(log).events) == scan_train_log(scan_miner, log)
    assert miner.export_registry() == scan_miner.export_registry()


def test_frozen_parse_log_memo_lives_for_one_log(monkeypatch):
    miner = TemplateMiner(AbstractionConfig())
    miner.parse_line("retry 3 of job alpha")
    miner.freeze()
    lookups = 0
    best_slot = abstraction._LeafIndex.best_slot

    def counting_best_slot(index, tokens):
        nonlocal lookups
        lookups += 1
        return best_slot(index, tokens)

    monkeypatch.setattr(abstraction._LeafIndex, "best_slot", counting_best_slot)
    log = ["retry 3 of job alpha"] * 50
    assert miner.parse_log(log).events == ("e1",) * 50
    assert lookups == 1
    miner.parse_log(log)
    assert lookups == 2
    # The key is the masked line, not the raw one.
    assert miner.parse_log([f"retry {n} of job alpha" for n in range(50)]).events == ("e1",) * 50
    assert lookups == 3


# -- whole-log masking --------------------------------------------------------

# Short lines of mask pieces, with the line breaks other than "\n" that a
# rule could see; a log rarely holds a line of the API's own with a "\n".
_log_lines = st.lists(st.sampled_from([*_MASK_PIECES, "\r", "\x0c"]), max_size=12).map("".join)
_rule_sets = st.one_of(
    st.just(DEFAULT_MASK_RULES),
    st.lists(st.sampled_from(DEFAULT_MASK_RULES), unique=True, max_size=4).map(tuple),
    st.just(()),
    st.just(((DEFAULT_MASK_RULES[3][0], "N"),)),
    st.just((_USER_RULE, *DEFAULT_MASK_RULES)),
)


@st.composite
def _mask_logs(draw):
    log = draw(st.lists(_log_lines, max_size=8))
    if log and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(log) - 1))
        log[at] += "\n" + draw(_log_lines)
    return log


@_mask_settings
@given(rules=_rule_sets, log=_mask_logs())
def test_log_masking_equals_per_line_masking(rules, log):
    config = AbstractionConfig(mask_rules=rules)
    masked = TemplateMiner(config)._mask_log(tuple(log))
    compiled = abstraction._compiled_rules(rules)
    assert masked == [abstraction._mask(line, compiled) for line in log]
    assert [line.split() for line in masked] == [written_preprocess(line, config) for line in log]


def _assert_parse_log_is_per_line(config, log, expected):
    """``parse_log`` gives ``parse_line``'s events per line, training and frozen."""
    miner, per_line_miner = TemplateMiner(config), TemplateMiner(config)
    for _ in ("training", "frozen"):
        seq = miner.parse_log(log)
        per_line = [(n, per_line_miner.parse_line(line)) for n, line in enumerate(log, start=1)]
        assert list(zip(seq.line_numbers, seq.events)) == per_line == expected
        miner.freeze()
        per_line_miner = miner


def test_rules_that_are_not_line_local_mask_line_by_line():
    # An anchored rule sees the start of every line, not just of the log.
    config = AbstractionConfig(mask_rules=((r"^retry", "R"), *DEFAULT_MASK_RULES))
    log = ["retry 1 of job", "retry 2 of job", "retry 3 of job"]
    _assert_parse_log_is_per_line(config, log, [(1, "e1"), (2, "e1"), (3, "e1")])
    miner = TemplateMiner(config)
    miner.parse_log(log)
    assert miner.template_text("e1") == "R <*> of job"

    # A line given through the API that holds "\n" stays one line.
    log = ["x 1", "a 1\nb 2", "y 2"]
    _assert_parse_log_is_per_line(AbstractionConfig(), log, [(1, "e1"), (2, "e2"), (3, "e3")])


class _CountingRule:
    """A compiled mask rule that counts its ``sub`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def sub(self, placeholder, text):
        self.calls += 1
        return self.pattern.sub(placeholder, text)


@pytest.mark.parametrize(
    "rules, calls",
    [(DEFAULT_MASK_RULES, [1] * 4), ((_USER_RULE, *DEFAULT_MASK_RULES), [50] * 5)],
)
def test_parse_log_masks_in_one_pass_per_rule(rules, calls):
    miner = TemplateMiner(AbstractionConfig(mask_rules=rules))
    log = [f"retry {n} of job /srv/a.rb:{n} at 0x{n:x}" for n in range(50)]
    for _ in ("training", "frozen"):
        counters = [_CountingRule(pattern) for pattern, _ in miner._rules]
        miner._rules = tuple((c, p) for c, (_, p) in zip(counters, miner._rules))
        assert len(miner.parse_log(log)) == 50
        assert [c.calls for c in counters] == calls
        miner._rules = tuple((c.pattern, p) for c, (_, p) in zip(counters, miner._rules))
        miner.freeze()


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
    event_id, count, template = row.split("\t")
    assert event_id == "e1"
    assert count == "1"
    assert template == "alpha beta <*>"


def test_registry_round_trip(config):
    miner = TemplateMiner(config)
    miner.parse_log(_fuzz_lines(8, 120), "log")
    restored = TemplateMiner.from_registry_text(miner.export_registry(), config)
    assert restored.export_registry() == miner.export_registry()
    # A rebuilt miner keeps allocating fresh ids after the highest one.
    # Nine tokens: longer than any fuzz line, so this cannot merge.
    new_event = restored.parse_line("zz yy xx ww vv uu tt ss rr")
    assert new_event == f"e{len(miner.templates) + 1}"


def test_registry_version_mismatch(config):
    with pytest.raises(ValidationError, match="header"):
        TemplateMiner.from_registry_text("ncc-templates v999\n", config)


def test_config_invariants():
    with pytest.raises(ValidationError):
        AbstractionConfig(tree_depth=1)
    with pytest.raises(ValidationError):
        AbstractionConfig(similarity_threshold=0.0)
    with pytest.raises(ValidationError):
        AbstractionConfig(similarity_threshold=1.5)
    with pytest.raises(ValidationError):
        AbstractionConfig(max_children=0)
