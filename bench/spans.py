"""In-memory span tracer for the benchmark.

Spans are recorded around library functions by replacing each function
under the name its calling module looks it up by (for example
``rate.chi_kappa_tables``), so nothing inside the library is
instrumented. Spans stay in memory and are summarised per benchmark
operation when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an operation root
    op: int  # operation id shared by every span of one benchmark operation


class Tracer:
    """Records nested spans and per-operation counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)  # (op, key) -> value
        self._stack: list[int] = []
        self._patches: list = []
        self._op = -1

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _leave(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a traced version until restore().

        ``observe(result)`` may return a dict of counts to add to the
        current operation; it runs after the span has closed. A missing
        attribute is skipped, so its layer simply reports no calls.
        """
        original = getattr(module, attr, None)
        if original is None:
            return

        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(span)
            if observe is not None:
                for key, value in observe(result).items():
                    self.counts[(self._op, key)] += value
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def operation(self, op: int, name: str):
        """Root span of one benchmark operation."""
        self._op = op
        span = self._enter(name)
        try:
            yield
        finally:
            self._leave(span)

    def per_op(self):
        """Returns ({op: {name: [calls, inclusive_s, self_s]}},
        {op: seconds the root's direct children cover})."""
        child_s = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        covered = {}
        for index, span in enumerate(self.spans):
            total = span.end - span.start
            row = table[span.op][span.name]
            row[0] += 1
            row[1] += total
            row[2] += total - child_s[index]
            if span.parent < 0:
                covered[span.op] = child_s[index]
        return table, covered


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one traced call around a function doing nothing."""
    tracer = Tracer()

    class Target:
        @staticmethod
        def noop():
            return None

    tracer.wrap(Target, "noop", "noop")
    traced = Target.noop
    with tracer.operation(0, "root"):
        start = time.perf_counter()
        for _ in range(repeats):
            traced()
        traced_s = time.perf_counter() - start
    tracer.restore()
    plain = Target.noop
    start = time.perf_counter()
    for _ in range(repeats):
        plain()
    plain_s = time.perf_counter() - start
    return max(traced_s - plain_s, 0.0) / repeats
