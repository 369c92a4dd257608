"""In-memory span recorder that traces a program from outside its source.

The recorder replaces module attributes (for example ``linalg.eigh_many``)
with wrappers for as long as it is installed, and restores them afterwards.
Callers inside the program look those functions up on the module at call
time, so every call is seen without any change to the program.

A span is one call: its name, start and end (``time.perf_counter``), the
index of the enclosing span, the benchmark job that caused it, and a small
dict of counts taken from the call's arguments or result. Spans stay in
memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, start, parent, job, info):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; installs and removes attribute wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self.job = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str, info=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.job, info)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None, optional=False, timed=True) -> bool:
        """Replace ``module.attr`` with a recording wrapper.

        ``before(args, kwargs)`` returns the span's info dict; ``after(span,
        result)`` may add to it. With ``timed=False`` no span is kept and
        ``after`` receives None. A missing attribute raises, unless
        ``optional``: then it is listed in ``absent`` and False returned.
        """
        orig = getattr(module, attr, None)
        qualified = f"{module.__name__}.{attr}"
        if orig is None:
            if not optional:
                raise AttributeError(f"{qualified} not found")
            self.absent[name] = f"{qualified} not found"
            return False
        tracer = self

        if timed:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                sp = tracer.open(name, before(args, kwargs) if before else None)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer.close(sp)
                if after:
                    after(sp, result)
                return result
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                after(None, result)
                return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, orig))
        return True

    def unwrap_all(self) -> None:
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    def write(self, path) -> None:
        """One JSON object per line: name, start, end, parent, job, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                            "parent": sp.parent,
                            "job": sp.job,
                            "info": sp.info,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.duration
    return out
