"""Spans kept in memory, self-time arithmetic and the percentile rule.

A span is one timed interval recorded by the benchmark around its own call
into a library layer, or around a whole task.  Spans never go inside the
library: a layer's self time is the time of the benchmark's calls into it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

BENCH = "bench"  # layer of task spans: harness time not inside any call

# Percentile levels in per mille.  A level is reportable when at least ten
# samples lie beyond it, so p90 needs 100 samples and p99 needs 1000.
LEVELS = (500, 900, 990, 999)


class LayerFailure(Exception):
    """A call into a layer raised; ``layer`` names the layer it belongs to."""

    def __init__(self, layer: str, name: str):
        super().__init__(f"{layer}.{name} raised")
        self.layer = layer


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    layer: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    task: int | None
    bits: int = 0  # bit length of the task's p, 0 when the task has none
    terms: int = 0  # continued-fraction terms returned
    vertices: int = 0  # graph vertices, chain points or cycle length handled
    bytes: int = 0  # bytes of text returned or printed


class NullTracer:
    """Untraced mode: calls go straight through, only failures are tagged."""

    def call(self, layer: str, fn, *args, name: str | None = None):
        try:
            return fn(*args)
        except Exception as exc:
            raise LayerFailure(layer, name or fn.__name__) from exc

    def begin(self, name: str, layer: str, task: int | None = None, bits: int = 0):
        return None

    def end(self, span, nbytes: int = 0):
        pass


class Tracer(NullTracer):
    """Records a span for every call and every task, in memory.

    ``sizes(args, result)`` gives the (terms, vertices, bytes) attributes
    of a call span from the call's arguments and result.
    """

    def __init__(self, sizes):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._sizes = sizes

    def begin(self, name: str, layer: str, task: int | None = None, bits: int = 0) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(
            len(self.spans), name, layer, time.perf_counter_ns(), 0,
            parent.sid if parent else None,
            parent.task if parent and task is None else task,
            bits or (parent.bits if parent else 0),
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span, nbytes: int = 0):
        span.end = time.perf_counter_ns()
        span.bytes = nbytes
        self._open.pop()

    def call(self, layer: str, fn, *args, name: str | None = None):
        span = self.begin(name or fn.__name__, layer)
        try:
            result = fn(*args)
        except Exception as exc:
            raise LayerFailure(layer, span.name) from exc
        finally:
            span.end = time.perf_counter_ns()
            self._open.pop()
        span.terms, span.vertices, span.bytes = self._sizes(args, result)
        return result

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([
                    s.sid, s.name, s.layer, s.start, s.end, s.parent, s.task,
                    s.bits, s.terms, s.vertices, s.bytes,
                ]) + "\n")


def read_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(*json.loads(line)) for line in fh]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        reach = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.end - s.start) - covered
    return out


def percentile(values, per_mille: int):
    """Nearest-rank percentile of the values at the given level in per mille."""
    ordered = sorted(values)
    rank = -(-per_mille * len(ordered) // 1000)  # ceil
    return ordered[max(rank, 1) - 1]


def reportable(n: int, per_mille: int) -> bool:
    """Whether at least ten of n samples lie beyond the level."""
    return n * (1000 - per_mille) >= 10 * 1000


def tail_level(n: int) -> int | None:
    """The highest level in LEVELS with at least ten samples beyond it."""
    good = [lv for lv in LEVELS if reportable(n, lv)]
    return good[-1] if good else None
