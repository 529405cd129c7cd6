"""In-memory span recording for the traced benchmark run.

Spans are recorded around calls into shimguard's layers by replacing module
attributes (``shimguard.flowtable.extract`` and friends) with timing wrappers
for the duration of the traced pass, and restored afterwards. Spans live in
flat arrays until the run ends and are then written out as gzip-compressed
TSV. A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from pathlib import Path
from time import perf_counter

# A child span that times the tracer's own bookkeeping inside a traced call;
# it is subtracted from its parent's self time and never reported.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Nested spans of one thread: a name, a parent, a start and an end each."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name, in span order."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        grouped: dict[str, list[float]] = {name: [] for name in self.names}
        for nid, value in zip(self.name, own):
            grouped[self.names[nid]].append(value)
        return grouped

    def write_tsv(self, path: Path) -> None:
        """Write every span as gzip-compressed TSV, times in microseconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_us\tend_us\n")
            for index, (nid, parent, start, end) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{index}\t{parent}\t{self.names[nid]}\t{(start - origin) * 1e6:.3f}\t{(end - origin) * 1e6:.3f}\n")


def median_us(values: list[float]) -> float:
    """Median of a list of seconds, in microseconds; 0 for a layer that never ran."""
    return statistics.median(values) * 1e6 if values else 0.0


class Patch:
    """Replace module attributes for the lifetime of a ``with`` block."""

    def __init__(self, replacements: list[tuple[object, str, object]]) -> None:
        self._replacements = replacements
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        for module, attr, value in self._replacements:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def timed(tracer: Tracer, name: str, fn):
    """Wrap ``fn`` so that every call records one span called ``name``."""

    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(index)

    return wrapper


def timed_iter(tracer: Tracer, name: str, fn):
    """Wrap an iterator factory so that each ``next()`` on its result records a span."""

    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)

        def spans():
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.finish(index)
                    return
                tracer.finish(index)
                yield item

        return spans()

    return wrapper
