"""In-memory spans recorded around calls into the program's layers.

A span has a name (`<layer>.<call>`), a tag (such as the pattern length),
a start, an end, its parent span and the id of the operation it belongs
to.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from time import perf_counter


@dataclass
class Span:
    name: str
    tag: str
    start: float
    end: float
    parent: int
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    def next_op(self) -> None:
        self.op += 1

    @contextlib.contextmanager
    def span(self, name: str, tag: object = ""):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, str(tag), 0.0, 0.0, parent, self.op))
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index].start, self.spans[index].end = start, end

    def best(self, name: str, tag_prefix: str = "") -> float:
        """Median over tags of the shortest span of `name` with that tag.

        A tag names one distinct input, so this is the best-of-N time of a
        typical input; tags are filtered by prefix.
        """
        shortest: dict[str, float] = {}
        for s in self.spans:
            if s.name == name and s.tag.startswith(tag_prefix):
                shortest[s.tag] = min(s.seconds, shortest.get(s.tag, s.seconds))
        return median(shortest.values())

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def layer_self_ms(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_seconds()):
            totals[span.layer] += own * 1e3
        return dict(totals)

    def dump(self, path) -> None:
        rows = [[s.name, s.tag, s.start, s.end, s.parent, s.op] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "tag", "start", "end", "parent", "op"],
                       "spans": rows}, fh)


class NullTracer:
    """Stands in for a Tracer in untraced operations; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, tag: object = ""):
        return self._null

    def next_op(self) -> None:
        pass
