"""In-memory spans around the public calls into gnpmod's layers.

A span holds a name, start, end, parent and trial id.  Its layer is the
part of the name before the first dot (graph, modularity, bisection,
spectral, concentration); a span without a parent is the root of one
round (the CLI sweep, or the desk's list of calls).  Spans stay in
memory until the run ends and are then written out by run.py.

The benchmark places spans in two ways, both in its own code:
``Tracer.call`` wraps a call the benchmark makes itself, and
``traced_calls`` routes the calls that ``gnpmod.cli`` makes through the
same wrapper while a traced sweep runs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trial: str | None
    start: float = 0.0
    end: float = 0.0
    # the call itself, kept so the checks can re-derive its outputs;
    # dropped before the spans are written out
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; one tracer per traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, trial=None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = parent.trial
        s = Span(len(self.spans), name, parent.id if parent else None,
                 None if trial is None else str(trial))
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, trial, fn, *args, **kwargs):
        with self.span(name, trial) as s:
            s.result = fn(*args, **kwargs)
        s.args, s.kwargs = args, kwargs
        return s.result

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def drop_payloads(self) -> None:
        for s in self.spans:
            s.args, s.kwargs, s.result = (), {}, None


class NullTracer:
    """Tracing off: the same interface, no spans, no per-call records."""

    def span(self, name: str, trial=None):
        return contextlib.nullcontext()

    def call(self, name: str, trial, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()


@contextlib.contextmanager
def traced_calls(tracer, targets: dict):
    """Route every gnpmod module's reference to each target function
    through a span named by its key, and restore them afterwards.

    `targets` maps span name -> function object.  With tracing off this
    patches nothing.
    """
    if isinstance(tracer, NullTracer):
        yield
        return
    patched = []
    for name, fn in targets.items():
        wrapper = _spanned(tracer, name, fn)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "gnpmod":
                continue
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, fn))
    try:
        yield
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, None, fn, *args, **kwargs)
    return wrapper


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer (span duration minus the time its child spans
    cover), plus "root" for the self time of the parentless spans."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        key = "root" if s.parent is None else s.layer
        out[key] += s.duration - covered[s.id]
    return dict(out)


def total_time(spans: list[Span], name: str) -> float:
    return sum((s.duration for s in spans if s.name == name), 0.0)


def to_records(spans: list[Span]) -> list[dict]:
    t0 = min((s.start for s in spans), default=0.0)
    return [{"id": s.id, "name": s.name, "parent": s.parent, "trial": s.trial,
             "start_s": s.start - t0, "end_s": s.end - t0} for s in spans]
