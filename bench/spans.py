"""In-memory span recorder for the benchmark's traced run.

A span records its name, start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started (its parent) and a
trace id.  Spans of one log share the trace id of their root span.
Nothing is written until ``write`` is called at the end of the run.
"""

import gzip
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TRACE_ID = range(5)


class Tracer:
    """Single-threaded span stack; not safe to share between threads."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        parent = self._open[-1] if self._open else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent][TRACE_ID]
        record = [name, 0.0, 0.0, parent, trace_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def root_of(self, index: int) -> int:
        while self.spans[index][PARENT] is not None:
            index = self.spans[index][PARENT]
        return index

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append((span[START], span[END]))
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span[START]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, span[END])
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span[END] - span[START] - covered)
        return result

    def totals(self, root_name: str | None = None) -> dict[str, dict[str, float]]:
        """Count, total and self time per span name.

        With ``root_name``, only spans whose root span has that name count.
        """
        self_times = self.self_times()
        result: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if root_name is not None and self.spans[self.root_of(index)][NAME] != root_name:
                continue
            entry = result.setdefault(span[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span[END] - span[START]
            entry["self_s"] += self_times[index]
        return result

    def write(self, path, **header) -> None:
        """Write the header and every span as gzip-compressed JSON."""
        payload = dict(header)
        payload["fields"] = ["name", "start", "end", "parent", "trace_id"]
        payload["spans"] = self.spans
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
