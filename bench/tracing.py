"""Spans around the benchmark's own calls into the library.

A span records the name ``module.function`` (with an optional qualifier
such as ``functions.tpow.int``), its start and end on the
``perf_counter`` clock, and the id of the operation that caused it
(-1 for the layer probe).  Spans live in compact arrays and are written
out once, when the run ends.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter

PROBE_OP = -1


class NoTrace:
    """Call-through used by untraced runs."""

    op = PROBE_OP

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.op = PROBE_OP
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")

    def call(self, name, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            i = self._ids.get(name)
            if i is None:
                i = self._ids[name] = len(self.names)
                self.names.append(name)
            self.name_id.append(i)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(self.op)

    def __len__(self) -> int:
        return len(self.name_id)

    def group(self) -> dict[tuple[str, bool], list[float]]:
        """Durations in seconds keyed by (name, came from the probe)."""
        out: dict[tuple[str, bool], list[float]] = {}
        names = self.names
        for i, t0, t1, op in zip(self.name_id, self.start, self.end, self.parent):
            out.setdefault((names[i], op == PROBE_OP), []).append(t1 - t0)
        return out

    def write(self, path: str, t_origin: float) -> None:
        """One CSV row per span: name, start and end in microseconds from
        ``t_origin``, parent operation."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_us,end_us,parent_op\n")
            for i, t0, t1, op in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(
                    f"{names[i]},{(t0 - t_origin) * 1e6:.3f},{(t1 - t_origin) * 1e6:.3f},{op}\n"
                )


def median_span(groups, name: str, min_spans: int) -> tuple[float, int, str]:
    """Median duration of ``name`` from the workload's spans when it made
    at least ``min_spans`` of them, else from the layer probe's."""
    d, source = groups.get((name, False), []), "workload"
    if len(d) < min_spans:
        d, source = groups.get((name, True), []), "probe"
    if not d:
        raise KeyError(f"no spans named {name}")
    return statistics.median(d), len(d), source
