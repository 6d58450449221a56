"""In-memory span tracer that times calls into bofsent's public functions from outside.

``Tracer.patch`` replaces a function on the module where its caller looks it
up, so ``pipeline`` sees a wrapped ``read_pcm`` and ``fit_gmm`` a wrapped
``em_step``. Each call then records a span: name, start, end, parent and
thread. Parents follow a per-thread stack. A span opened on a pool thread with
an empty stack takes the main thread's innermost open span as its parent,
because the main thread is blocked inside the call that submitted the work.
Spans stay in memory until ``write`` is called at the end of the run.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def _call(self, name, fn, args, kwargs, on_result):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name=name, parent=parent, thread=threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if on_result is not None:
            on_result(self, span, args, result)
        return result

    def patch(self, owner, attr: str, name: str, on_result=None, inner=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name`` until ``unpatch``.

        ``on_result(tracer, span, args, result)`` runs after the span closes;
        ``inner(fn)`` may wrap the original inside the span. A function the
        program no longer has is skipped, so its metrics read 0 rather than
        the traced run failing.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        timed = inner(original) if inner is not None else original

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, timed, args, kwargs, on_result)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def total(self, name: str, tag: str | None = None) -> float:
        return sum(s.duration for s in self.spans if s.name == name and (tag is None or s.tag == tag))

    def calls(self, name: str, tag: str | None = None) -> int:
        return sum(1 for s in self.spans if s.name == name and (tag is None or s.tag == tag))

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of its interval its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span.duration - covered)
        return result

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span (times relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
                record = {
                    "i": index,
                    "name": span.name,
                    "parent": span.parent,
                    "thread": span.thread,
                    "start": round(span.start - origin, 9),
                    "end": round(span.end - origin, 9),
                    "self": round(own, 9),
                }
                if span.tag:
                    record["tag"] = span.tag
                fh.write(json.dumps(record) + "\n")
