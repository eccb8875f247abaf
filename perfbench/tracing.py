"""In-memory spans around the benchmark's calls into fuzzymin's modules.

A span records its name, start and end (``time.perf_counter`` seconds), the
span that was open when it started, the run id it belongs to (one id per
measured iteration, ``setup`` for instance generation) and the process's
high-water RSS when it ended.  A disabled tracer calls straight through, so
the untraced and traced runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional


def peak_rss_mb() -> float:
    """High-water resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    rss_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.run = "setup"
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1].id if self._open else None
        record = Span(len(self.spans), name, self.run, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            record.rss_mb = peak_rss_mb()
            self._open.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        The benchmark is single-threaded, so children of one span never
        overlap and their durations add up.
        """
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")
