"""Stage records, for a profiler that asks what a run did.

The library marks each stage once per call, never per node: sample (m),
components, score_definition, score_edge_form, heuristic (the winning
method and run), anneal (k, sweeps, batch size, and per run the moves of
the last hot sweep, the quench rounds and the quench steps that fell
back to a single move), bisection (the winning restart) and restart
(cut, gain-matrix fallbacks, swaps).  Inside `recording(sink)` a stage calls
`sink.begin(name)` as it starts and `sink.end(name, wall_s, details)` as
it ends or raises.  The library only writes details, so a sink never
changes a result.  The sink is set in this context only: `sweep --jobs`
workers record nothing.
"""

import contextlib
import contextvars
import time

_sink = contextvars.ContextVar("gnpmod_trace_sink", default=None)
# an unrecorded stage's details: written to, never read
_UNRECORDED = contextlib.nullcontext({})


@contextlib.contextmanager
def recording(sink):
    """Send the stages run in the block to `sink`."""
    token = _sink.set(sink)
    try:
        yield sink
    finally:
        _sink.reset(token)


def stage(name: str):
    """Mark one stage: a context manager yielding the dict its details
    are written to.  With no sink it costs one context variable read."""
    sink = _sink.get()
    return _UNRECORDED if sink is None else _recorded(sink, name)


@contextlib.contextmanager
def _recorded(sink, name: str):
    details: dict = {}
    sink.begin(name)
    t0 = time.perf_counter()
    try:
        yield details
    finally:
        sink.end(name, time.perf_counter() - t0, details)
