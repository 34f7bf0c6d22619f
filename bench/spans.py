"""In-memory span recorder for the traced benchmark run.

Wrappers are installed from outside the package: every ``barkspace.*``
module namespace that binds a traced function object is rebound, by
identity, to one wrapper. Names imported with ``from .x import f`` are
separate bindings, so this catches ``pipeline.log_mel`` as well as
``features.log_mel``. Each call records a span (name, start, end, parent);
a span's self time is its duration minus the part of it that its child
spans cover.
"""

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the recorder's span list

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


class Recorder:
    """The spans of one traced pass, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, observe=None):
        """Return a wrapper of ``fn`` recording one span per call.

        ``observe(args, kwargs, result)``, if given, is called after each
        call, outside the span, so that it can count work.
        """
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def summary(self) -> dict:
        """{name: {"calls", "ms", "self_ms"}} summed over the recorded spans."""
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[span.name]
            entry["calls"] += 1
            entry["ms"] += 1e3 * span.duration
            entry["self_ms"] += 1e3 * own
        return dict(out)


def install(recorder: Recorder, targets, package: str = "barkspace"):
    """Rebind every binding of each target function in the package's modules.

    ``targets`` holds (module, attribute, span name, observe-or-None). Returns
    ({span name: [bound "module.attr" names]}, restore), where ``restore()``
    puts the original objects back.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    undo = []
    bound = {}
    for module, attr, name, observe in targets:
        fn = getattr(module, attr)
        wrapper = recorder.wrap(name, fn, observe)
        bound[name] = []
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, fn))
                    bound[name].append(f"{mod.__name__}.{key}")

    def restore():
        for mod, key, fn in reversed(undo):
            setattr(mod, key, fn)

    return bound, restore
