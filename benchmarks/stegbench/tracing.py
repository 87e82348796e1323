"""Benchmark-owned spans: recorded around calls into each layer, in memory.

A span is ``[name, start, end, parent id, op id]``.  Spans of one op share
its id.  A span opened on a thread that has no open span of its own (an
executor worker, the server's event loop) is parented to the op's current
*cross-thread* span — the server-side request span when there is one, else
the op's root — which is sound because the traced run has one client and
therefore one op in flight.

:func:`attribute` turns one op's spans into milliseconds per span name that
sum to the op's wall time: at every instant the time goes to the innermost
open spans (a span's *self time* is its duration minus what its children
cover), split equally when several run in parallel (cluster legs).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Patches", "Tracer", "attribute"]

ROOT = "bench.op"
_MISSING = object()


class Patches:
    """Attribute patches that can be undone: how the benchmark times calls
    into the program without changing a file under ``src/``."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember how to undo it."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class _Span:
    """Context manager for one stack-parented span."""

    __slots__ = ("_tracer", "_record", "_stack")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._record = [name, 0.0, 0.0, None, None]

    def __enter__(self) -> int:
        tracer = self._tracer
        stack = self._stack = tracer.stack()
        record = self._record
        record[3] = stack[-1] if stack else tracer.cross_parent
        record[4] = tracer.op_id
        sid = next(tracer.ids)
        tracer.spans[sid] = record
        stack.append(sid)
        record[1] = time.perf_counter()
        return sid

    def __exit__(self, *exc_info: object) -> None:
        self._record[2] = time.perf_counter()
        self._stack.pop()


class Tracer:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: dict[int, list] = {}
        self.ids = itertools.count(1)
        self.op_id: int | None = None
        self.cross_parent: int | None = None
        self._local = threading.local()
        self.patches = Patches()

    def stack(self) -> list[int]:
        """This thread's open-span stack."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span(self, name: str) -> _Span:
        """A span parented to this thread's innermost open span."""
        return _Span(self, name)

    def record(self, name: str, start: float, end: float, parent: int | None) -> int:
        """Store a span measured by hand (across awaits, across threads)."""
        sid = next(self.ids)
        self.spans[sid] = [name, start, end, parent, self.op_id]
        return sid

    def run_op(self, outer: str | None, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one client op under a root span (and the client-layer span)."""
        with self.span(ROOT) as root:
            self.spans[root][4] = root
            self.op_id = self.cross_parent = root
            try:
                if outer is None:
                    return fn(*args)
                with self.span(outer) as sid:
                    self.cross_parent = sid
                    return fn(*args)
            finally:
                self.op_id = self.cross_parent = None

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a version that runs under a span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.op_id is None:
                return original(*args, **kwargs)
            with _Span(tracer, name):
                return original(*args, **kwargs)

        self.patches.set(owner, attr, traced)

    def by_op(self) -> dict[int, list[tuple[int, list]]]:
        """Finished spans grouped by op id."""
        ops: dict[int, list[tuple[int, list]]] = defaultdict(list)
        for sid, record in list(self.spans.items()):
            if record[4] is not None and record[2] > 0.0:
                ops[record[4]].append((sid, record))
        return ops


def attribute(spans: list[tuple[int, list]], root: int) -> dict[str, float]:
    """Seconds per span name for one op; the values sum to the root's duration."""
    records = dict(spans)
    lo, hi = records[root][1], records[root][2]
    events: list[tuple[float, int, int]] = []
    for sid, (_, start, end, _, _) in spans:
        start, end = max(start, lo), min(end, hi)
        if end > start or sid == root:
            events.append((start, 1, sid))
            events.append((end, 0, sid))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    out: dict[str, float] = defaultdict(float)
    clock = lo
    for when, opening, sid in events:
        if leaves and when > clock:
            share = (when - clock) / len(leaves)
            for leaf in leaves:
                out[records[leaf][0]] += share
        clock = when
        parent = records[sid][3]
        if opening:
            active.add(sid)
            if open_children[sid] == 0:
                leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in active:
                    leaves.add(parent)
    return out
