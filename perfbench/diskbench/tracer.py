"""Spans and aggregate counters for the traced benchmark pass.

A span is (name, start, end, parent index). The benchmark opens spans around
its own calls into each layer, and `Tracer.wrap_span` / `Tracer.wrap_counter`
replace module attributes that the program calls through module globals, so
calls made inside the program are seen without changing a source file. Every
replaced attribute is put back by `Tracer.restore`.

Per-box prover functions run about a million times per run; they get
aggregate call and time counters instead of spans, so memory stays bounded.
"""

from __future__ import annotations

import collections
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence

_perf = time.perf_counter


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a reusable no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent]
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, _perf(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            spans[idx][2] = _perf()

    def wrap_span(
        self, module, attr: str, name: str, observe: Optional[Callable] = None
    ) -> None:
        """Record a span per call of module.attr; `observe(args, kwargs, out)`
        may add counters."""
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _perf(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _perf()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        self._patch(module, attr, orig, traced)

    def wrap_counter(
        self, module, attr: str, name: str, observe: Optional[Callable] = None
    ) -> None:
        """Count calls of module.attr and their inclusive time under
        `<name>_calls` and `<name>_s`, without spans."""
        orig = getattr(module, attr)
        counters = self.counters
        calls_key, time_key = name + "_calls", name + "_s"

        def counted(*args, **kwargs):
            t0 = _perf()
            out = orig(*args, **kwargs)
            counters[time_key] += _perf() - t0
            counters[calls_key] += 1
            if observe is not None:
                observe(args, kwargs, out)
            return out

        self._patch(module, attr, orig, counted)

    def _patch(self, module, attr: str, orig, replacement) -> None:
        self._patches.append((module, attr, orig))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of its interval that the union of
    its child spans covers (children are clipped to the parent)."""
    children: Dict[int, List[tuple]] = collections.defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out
