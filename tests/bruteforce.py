"""Independent naive references for lookup-table construction and matching.

``brute_force_rows`` loops over logs, events, and causes with plain list
scans: no pooling sets, no shared table code.  It reuses only the template
miner, replayed in the same deterministic order the pipeline uses (passed
then failed, sorted by log id), so both sides see identical event
sequences.

``scan_parse_line`` is the frozen lookup by a linear scan of the routed
leaf, the reference for the miner's indexed frozen match.
"""

import math

from ncchecker import abstraction
from ncchecker.abstraction import UNKNOWN_EVENT_ID, TemplateMiner, preprocess


def scan_parse_line(miner, line):
    """Frozen event id of ``line``: first template with the highest similarity."""
    tokens = preprocess(line, miner.config)
    if not tokens:
        return None
    leaf = miner._search_leaf(tokens)
    best, best_sim = None, -1.0
    for tid in leaf.template_ids if leaf is not None else ():
        # Looked up on the module so tests can count the calls.
        sim = abstraction.seq_similarity(tokens, miner.templates[tid])
        if sim > best_sim:
            best, best_sim = tid, sim
    if best is not None and best_sim >= miner.config.similarity_threshold:
        return best
    return UNKNOWN_EVENT_ID


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
        list(miner.parse_log(log.lines, log.log_id).events)
        for log in sorted(corpus.passed, key=lambda log: log.log_id)
    ]
    failed = [
        (list(miner.parse_log(log.lines, log.log_id).events), log.cause)
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
