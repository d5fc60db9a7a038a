"""In-memory span recorder that times a program's layers from outside.

A span is opened around a call to a public function, looked up through the
module attribute its callers use, so patching ``module.attr`` is seen by every
caller in the package. Each span records its parent (the span open when it
started); a layer's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)

    def p50_ms(self) -> float:
        return statistics.median(self.durations) * 1e3 if self.durations else 0.0

    def max_ms(self) -> float:
        return max(self.durations) * 1e3 if self.durations else 0.0


class Recorder:
    """Wraps module attributes in spans while ``installed`` is active.

    ``observe(recorder, args, kwargs, result)`` runs after the span closes,
    so counters computed from arguments and results cost the span nothing.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name, fn, eager: bool, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, stack[-1] if stack else -1, time.perf_counter()))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    # Generators do their work while the caller iterates;
                    # drain inside the span so the work is attributed here.
                    result = iter(list(result))
            finally:
                stack.pop()
                spans[idx].end = time.perf_counter()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Patch each (module, attr, eager, observe) target; restore on exit."""
        saved = []
        try:
            for module, attr, eager, observe in targets:
                fn = getattr(module, attr)
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, eager, observe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layers(self) -> dict[str, LayerStats]:
        """Per-name calls, total time, self time and call durations."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        out: dict[str, LayerStats] = {}
        for span, children in zip(self.spans, child_s):
            st = out.setdefault(span.name, LayerStats())
            dur = span.end - span.start
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - children
            st.durations.append(dur)
        return out
