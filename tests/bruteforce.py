"""Independent naive references for lookup-table construction and matching.

``written_preprocess`` masks with each rule compiled as written, one
``re.sub`` per rule in order: the reference for the scan forms the miner
compiles the built-in rules from.

``seq_similarity`` is the position-wise match ratio of a line against
one template, which a leaf index computes for all of a leaf's templates
at once.  ``scan_train_line`` and ``scan_parse_line`` are the training
and frozen parses by a linear scan of the routed leaf, scored with it:
the references for the miner's indexed match.  They route a line down
the miner's tree by its own walk, which looks each token up by its
``_route_key``, and reuse only the miner's template registration, so a
miner driven by them never builds a leaf index.

``text_layer_log_lines`` reads a log through Python's text layer, whose
decoder and newline translation are the reference for the byte-level
``corpus.read_log_lines``.

``brute_force_rows`` loops over logs, events, and causes with plain list
scans: no pooling sets, no shared table code.  It mines templates with
``scan_train_line`` in the order the pipeline uses (passed then failed,
sorted by log id).

``scan_knn_predict`` is the KNN vote of the ``cam`` and ``lff`` baselines
by a scan over every training log, the reference for the baselines'
postings index.  It weighs each document's counts by idf and scales them
to unit length, takes each training log's cosine over the sorted shared
terms, ranks the logs by ``(-similarity, log id)`` and lets the top k
vote.  Its sums are plain loops from 0.0, and it imports nothing from
``ncchecker.baselines``.
"""

import math
import re
from pathlib import Path

from ncchecker.abstraction import (
    DEFAULT_MASK_RULES,
    UNKNOWN_EVENT_ID,
    WILDCARD,
    TemplateMiner,
    _route_key,
    preprocess,
)


def written_preprocess(line):
    """Tokens of ``line`` after applying ``DEFAULT_MASK_RULES`` as written."""
    for pattern, placeholder in DEFAULT_MASK_RULES:
        line = re.sub(pattern, placeholder, line)
    return line.split()


def text_layer_log_lines(path):
    """Lines of a log read with ``read_text``: UTF-8, replaced, universal newlines."""
    lines = Path(path).read_text(encoding="utf-8", errors="replace").split("\n")
    if lines[-1] == "":
        lines.pop()
    return tuple(lines)


def seq_similarity(tokens, template):
    """Position-wise match ratio of a token sequence against a template.

    A wildcard slot matches any token.  Lengths must agree; a mismatch is
    a caller bug.
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


def _routed_leaf(miner, tokens):
    """The leaf a line routes to, or None.

    Each of the line's first ``tree_depth - 2`` tokens, but never its last,
    goes to the child of its ``_route_key``, or else, if that key is a
    word, to the ``<*>`` child.
    """
    node = miner._root.get(len(tokens))
    for token in tokens[: min(miner.config.tree_depth - 2, len(tokens) - 1)]:
        if node is None:
            return None
        key = _route_key(token)
        child = node.children.get(key)
        if child is None and key != WILDCARD:
            child = node.children.get(WILDCARD)
        node = child
    return node


def _scan_leaf(miner, tokens):
    """First template of the routed leaf with the highest similarity, or None."""
    leaf = _routed_leaf(miner, tokens)
    best, best_sim = None, -1.0
    for tid in leaf.template_ids if leaf is not None else ():
        template = miner.templates[tid]
        # A global, looked up per call, so tests can count the calls.
        sim = seq_similarity(tokens, template)
        if sim > best_sim:
            best, best_sim = template, sim
    if best is not None and best_sim >= miner.config.similarity_threshold:
        return best
    return None


def scan_parse_line(miner, line):
    """Frozen event id of ``line``: first template with the highest similarity."""
    tokens = preprocess(line, miner.config)
    if not tokens:
        return None
    best = _scan_leaf(miner, tokens)
    return UNKNOWN_EVENT_ID if best is None else best.event_id


def scan_train_line(miner, line):
    """Training event id of ``line``: merge into the scan's choice or register."""
    tokens = preprocess(line, miner.config)
    if not tokens:
        return None
    best = _scan_leaf(miner, tokens)
    if best is None:
        # The oracle keeps its own counts: a new template has matched once.
        template = miner._register(tokens, miner._insert_leaf(tokens))
        template.match_count = 1
        return template.event_id
    best.tokens = tuple(
        slot if slot == tok else WILDCARD for slot, tok in zip(best.tokens, tokens)
    )
    best.match_count += 1
    return best.event_id


def scan_train_log(miner, lines):
    """Event ids of a log's non-blank lines, trained with ``scan_train_line``."""
    events = (scan_train_line(miner, line) for line in lines)
    return [event_id for event_id in events if event_id is not None]


def brute_force_rows(
    corpus,
    config=None,
    *,
    skip_diff=False,
    skip_reweight=False,
    skip_icf=False,
):
    miner = TemplateMiner(config)
    passed_events = [
        scan_train_log(miner, log.lines)
        for log in sorted(corpus.passed, key=lambda log: log.log_id)
    ]
    failed = [
        (scan_train_log(miner, log.lines), log.cause)
        for log in sorted(corpus.failed, key=lambda log: log.log_id)
    ]

    k = corpus.taxonomy.k
    n_total = len(failed)
    n_per_cause = [0] * k
    for _, cause in failed:
        n_per_cause[cause] += 1

    vocabulary = []
    for events, _ in failed:
        for eid in events:
            if eid in vocabulary:
                continue
            appears_in_passed = any(eid in events_p for events_p in passed_events)
            if skip_diff or not appears_in_passed:
                vocabulary.append(eid)

    rows = {}
    for eid in vocabulary:
        counts = [0] * k
        for events, cause in failed:
            if eid in events:
                counts[cause] += 1

        if skip_reweight:
            weights = [float(c) for c in counts]
        elif sum(1 for c in counts if c != 0) >= 2:
            total = sum(counts)
            weights = [c / total for c in counts]
        else:
            weights = []
            for c in counts:
                if c == 0:
                    weights.append(0.0)
                elif c == 1:
                    weights.append(1.0)
                else:
                    weights.append(math.log2(1 + c))

        if not skip_icf:
            weights = [
                w * (n_total / n_per_cause[j] if n_per_cause[j] else 0.0)
                for j, w in enumerate(weights)
            ]
        rows[eid] = weights
    return rows


def _knn_vector(doc, idf):
    """``doc``'s counts times idf, scaled to unit length; empty if all weigh 0."""
    vector = {t: n * idf[t] for t, n in doc.items() if idf.get(t, 0.0) > 0.0}
    squares = 0.0
    for t in sorted(vector):
        squares += vector[t] * vector[t]
    norm = math.sqrt(squares)
    if norm == 0.0:
        return {}
    return {t: v / norm for t, v in vector.items()}


def _knn_cosine(a, b):
    total = 0.0
    for t in sorted(a):
        if t in b:
            total += a[t] * b[t]
    return total


def scan_knn_predict(docs, labels, log_ids, k_neighbors, doc):
    """The cause that the ``k_neighbors`` training logs nearest ``doc`` vote for.

    With no similarity above 0 it is the most common training label,
    lowest on ties.  A vote tie goes to the tied label that ranks nearest.
    """
    df = {}
    for train_doc in docs:
        for t in train_doc:
            df[t] = df.get(t, 0) + 1
    idf = {t: math.log(len(docs) / n) for t, n in df.items()}
    query = _knn_vector(doc, idf)
    sims = [_knn_cosine(query, _knn_vector(train_doc, idf)) for train_doc in docs]
    if max(sims) <= 0.0:
        return min(set(labels), key=lambda c: (-labels.count(c), c))
    order = sorted(range(len(docs)), key=lambda i: (-sims[i], log_ids[i]))
    top = [labels[i] for i in order[:k_neighbors]]
    most = max(top.count(c) for c in top)
    for c in top:
        if top.count(c) == most:
            return c
