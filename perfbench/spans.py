"""Outside-in spans around the benchmark's calls into library layers.

A span records one call from the benchmark into a public function of a
``subelliptic`` module: its name (``<layer>.<function>``), start and end on
the ``time.perf_counter`` clock, the span that was open when it started, and
the query it belongs to.  Spans are kept in memory and written out once, when
the run ends.  A layer's self time is the duration of its spans minus the
part of each span covered by its child spans.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

LAYERS = ("fields", "geometry", "liftgroup", "kernels", "maximal",
          "estimates")


class LayerCallError(Exception):
    """A call into a layer raised; carries the layer for failure accounting."""

    def __init__(self, layer: str, name: str, exc: BaseException):
        super().__init__(f"{name} raised {type(exc).__name__}: {exc}")
        self.layer = layer
        self.name = name
        self.exc = exc


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    query: int | None
    phase: str               # "setup" or "loop"


class Tracer:
    """Calls layer functions, counting failures; records spans when enabled.

    With ``enabled`` false, ``call`` adds only a function call and a
    try/except around the library call, so untraced timings stay clean.
    """

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.query: int | None = None
        self.spans: list[Span] = []
        self.failed = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        layer = name.split(".", 1)[0]
        if not self.enabled:
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.failed[layer] += 1
                raise LayerCallError(layer, name, exc) from exc
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, layer, time.perf_counter(), 0.0, parent,
                    self.query, self.phase)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed[layer] += 1
            raise LayerCallError(layer, name, exc) from exc
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def open(self, name: str) -> int:
        """Start a span the benchmark owns (a query); close with ``close``."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, "bench", time.perf_counter(), 0.0,
                               parent, self.query, self.phase))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children.get(s.sid, ()))
            for s in spans}


def layer_totals(spans, phase: str) -> dict:
    """Per layer: self time and call count of its spans in one phase."""
    st = self_times(spans)
    out = {layer: {"busy_s": 0.0, "calls": 0} for layer in LAYERS}
    for s in spans:
        if s.phase == phase and s.layer in out:
            out[s.layer]["busy_s"] += st[s.sid]
            out[s.layer]["calls"] += 1
    return out
