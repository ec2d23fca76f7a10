"""Benchmark-side span tracer.

Spans live in memory as plain tuples and are written out once, at exit.
A span records its name, start, end, the span that caused it and -- on
root spans -- the round or request it belongs to; every span of one
round or request shares that root.  The parent of a new span is the top
of the calling thread's stack; two hand-offs cross threads and are
bridged explicitly:

* a served request: ``ServingFrontend.submit`` runs on the client
  thread, ``ApiGateway.get`` later on a worker.  :meth:`Tracer.link`
  remembers the submitting span under the identity of the ticket's
  params dict and the gateway wrapper claims it.
* sharded SPS materialization: worker threads have empty stacks, so
  they adopt :attr:`Tracer.ambient`, which the ``_materialize`` wrapper
  points at its own span for the duration of the call.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (a union, since children on different
threads may overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)


class Span(NamedTuple):
    id: int
    parent: int          # 0 = root
    name: str
    start: float
    end: float
    tag: Optional[object]  # round / request identifier (roots only)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: parent adopted by spans begun on a thread with an empty stack
        self.ambient = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._links: Dict[int, int] = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # -- recording -----------------------------------------------------------

    def current(self) -> int:
        """Id of the calling thread's innermost open span (0 if none)."""
        stack = self._stack()
        return stack[-1][0] if stack else 0

    def begin(self, name: str, parent: Optional[int] = None,
              tag: Optional[object] = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else self.ambient
        sid = next(self._ids)
        stack.append((sid, parent, name, self.clock(), tag))
        return sid

    def end(self, at: Optional[float] = None) -> None:
        sid, parent, name, start, tag = self._stack().pop()
        self.spans.append(Span(sid, parent, name, start,
                               self.clock() if at is None else at, tag))

    def detach(self) -> tuple:
        """Pop the innermost open span without closing it.

        For spans that end on another thread (an open-loop request is
        over when its ticket resolves); close with :meth:`finish`.
        """
        return self._stack().pop()

    def finish(self, opened: tuple, at: float) -> None:
        sid, parent, name, start, tag = opened
        self.spans.append(Span(sid, parent, name, start, at, tag))

    @contextmanager
    def root(self, name: str, tag: Optional[object] = None) -> Iterator[int]:
        """A root span (one round, one request, one phase)."""
        sid = self.begin(name, parent=0, tag=tag)
        try:
            yield sid
        finally:
            self.end()

    # -- cross-thread hand-off ----------------------------------------------

    def link(self, carrier: object) -> None:
        """Remember the current span under ``carrier``'s identity."""
        self._links[id(carrier)] = self.current()

    def claim(self, carrier: object) -> Optional[int]:
        """The span linked to ``carrier`` (once), or None."""
        return self._links.pop(id(carrier), None)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as a span called ``name``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return traced

    def wrap_ambient(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap`, and parentless spans on other threads adopt
        this span while ``fn`` runs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            previous = self.ambient
            self.ambient = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.ambient = previous
                self.end()
        return traced

    # -- output --------------------------------------------------------------

    def dump(self, path: str, **meta: object) -> None:
        """Write every span to ``path`` (one JSON document)."""
        payload = dict(meta)
        payload["columns"] = list(Span._fields)
        payload["spans"] = [list(span) for span in
                            sorted(self.spans, key=lambda s: s.id)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class NullTracer:
    """The untraced run's tracer: same calls, nothing recorded.

    Keeps the harness on one code path, so the traced and the untraced
    run differ only by the wrappers.
    """

    spans: Tuple[Span, ...] = ()
    _no_span = nullcontext(0)

    def root(self, name: str, tag: Optional[object] = None):
        return self._no_span

    def begin(self, name: str, parent: Optional[int] = None,
              tag: Optional[object] = None) -> int:
        return 0

    def end(self, at: Optional[float] = None) -> None:
        return None

    def detach(self) -> tuple:
        return ()

    def finish(self, opened: tuple, at: float) -> None:
        return None


# -- analysis -----------------------------------------------------------------

def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = start
    for lo, hi in sorted(intervals):
        lo = max(lo, edge)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total


class SpanTable:
    """Self times and root membership of a finished trace."""

    def __init__(self, spans: Iterable[Span]):
        self.spans: List[Span] = sorted(spans, key=lambda s: s.id)
        self.by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        #: span id -> duration minus child cover
        self.self_time: Dict[int, float] = {}
        #: span id -> id of the root span above it (itself for a root)
        self.root_of: Dict[int, int] = {}
        for span in self.spans:  # ids ascend, so parents come first
            duration = span.end - span.start
            kids = children.get(span.id)
            cover = covered(span.start, span.end, kids) if kids else 0.0
            self.self_time[span.id] = max(0.0, duration - cover)
            self.root_of[span.id] = (
                self.root_of.get(span.parent, span.parent)
                if span.parent else span.id)

    def roots(self, name: str, tagged: Optional[Callable[[object], bool]]
              = None) -> List[Span]:
        """Root spans called ``name`` (optionally filtered by tag)."""
        return [s for s in self.by_name.get(name, ())
                if not s.parent and (tagged is None or tagged(s.tag))]

    def self_by_root(self, name: str, roots: Iterable[Span]
                     ) -> Dict[int, float]:
        """Per root, the summed self time of spans called ``name``."""
        wanted = {r.id: 0.0 for r in roots}
        for span in self.by_name.get(name, ()):
            root = self.root_of[span.id]
            if root in wanted:
                wanted[root] += self.self_time[span.id]
        return wanted

    def self_samples(self, name: str, roots: Iterable[Span]) -> List[float]:
        """Self time of every span called ``name`` under ``roots``."""
        wanted = {r.id for r in roots}
        return [self.self_time[s.id] for s in self.by_name.get(name, ())
                if self.root_of[s.id] in wanted]

    def unattributed_share(self, roots: Iterable[Span]) -> float:
        """Root self time over root time: what no layer span explains."""
        roots = list(roots)
        total = sum(r.end - r.start for r in roots)
        if total <= 0.0:
            return 0.0
        return sum(self.self_time[r.id] for r in roots) / total


def span_cost(tracer_factory: Callable[[], Tracer] = Tracer,
              calls: int = 20000) -> float:
    """Seconds one wrapped call costs beyond the call itself (calibrated
    on an empty function; the basis of ``trace.overhead_share``)."""
    def noop() -> None:
        return None

    tracer = tracer_factory()
    traced = tracer.wrap(noop, "noop")
    clock = time.perf_counter
    started = clock()
    for _ in range(calls):
        noop()
    bare = clock() - started
    started = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - started - bare) / calls)
