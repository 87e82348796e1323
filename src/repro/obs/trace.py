"""Span-tree tracing with ``contextvars`` propagation across every seam.

A *trace* is one client-visible operation; a *span* is one timed step of
it (a service op, a journal commit, one cluster fan-out leg, a device
batch).  Spans form a tree via parent ids; the active span travels
implicitly through a :data:`contextvars.ContextVar`, so instrumented
layers call :func:`maybe_span` without threading arguments through five
layers of signatures.

Cross-process: the client attaches ``(trace_id, span_id)`` to each
request as an optional wire-frame field (see :mod:`repro.net.protocol`);
the server re-roots its spans under that remote parent, so the client's
tree and the server's tree share one trace id and link into a single
tree when merged (the ``obs_trace`` admin op returns the server half).

One place needs explicit context plumbing because ``contextvars`` do not
cross thread boundaries on their own: ``AsyncServiceFront`` (and through
it ``StegFSServer`` and the cluster's embedded shards) dispatches ops via
``run_in_executor``, which runs the callable in a bare worker-thread
context — the front wraps the call with :meth:`Tracer.activate` / token
reset.  The cluster coordinator's fan-out legs are tasks, which copy the
caller's context on creation and so see the parent span unaided.

Deniability: spans live only in a bounded in-RAM ring; ids come from
``os.urandom`` (never the FS RNGs, so allocation patterns are identical
with tracing on or off); names and attributes are caller-chosen constants
(operation names, counts, durations) — never keys, levels or hidden
names.  Sampling of *root* spans uses a deterministically seeded RNG
under the tracer lock, mirroring the ``ServiceStats`` reservoir-RNG
invariant, so sampling tests are repeatable.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import random
import threading
import time
from collections import deque
from typing import Iterator

from repro.obs._state import enabled

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "current_context",
    "get_tracer",
    "maybe_span",
    "root_span",
]

#: Finished spans kept per process (oldest evicted first).
DEFAULT_SPAN_CAPACITY = 2048


def _new_id() -> str:
    """64-bit random id as 16 hex chars (os.urandom: never the FS RNGs)."""
    return os.urandom(8).hex()


class SpanRecord(dict):
    """A finished span as a plain dict (JSON-ready, wire-codec-free)."""

    __slots__ = ()


class Span:
    """One timed step of a trace; finished spans land in the tracer ring.

    Use as a context manager (via :func:`maybe_span` / :func:`root_span`);
    :meth:`annotate` attaches scrub-safe key/value attributes.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "_start",
        "start_unix",
        "duration_ms",
        "error",
    )

    def __init__(
        self,
        tracer: Tracer,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs: dict[str, object] = {}
        self._start = 0.0
        self.start_unix = 0.0
        self.duration_ms = 0.0
        self.error: str | None = None

    def annotate(self, **attrs: object) -> Span:
        """Attach attributes (names/sizes/counts only — never secrets)."""
        self.attrs.update(attrs)
        return self

    def context(self) -> tuple[str, str]:
        """``(trace_id, span_id)`` — what rides the wire to children."""
        return (self.trace_id, self.span_id)

    def record(self) -> SpanRecord:
        rec = SpanRecord(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_unix=self.start_unix,
            duration_ms=self.duration_ms,
        )
        if self.attrs:
            rec["attrs"] = dict(self.attrs)
        if self.error is not None:
            rec["error"] = self.error
        return rec


#: The active span for the current logical context (task or thread).
_ACTIVE: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)


def current_context() -> tuple[str, str] | None:
    """The active span's ``(trace_id, span_id)``, or None outside a trace."""
    span = _ACTIVE.get()
    return span.context() if span is not None else None


class Tracer:
    """Per-process span collector: bounded ring of finished spans.

    ``sample_rate`` applies to *root* spans only (children of an active
    or remote parent always record, so cross-process trees never lose
    their server half).  The sampling RNG is deterministically seeded and
    only touched under ``self._lock`` — same invariant as the
    ``ServiceStats`` reservoir RNG — so sampling is repeatable.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        sample_rate: float = 1.0,
        seed: int = 0x0B5,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._rng = random.Random(seed)
        self._sample_rate = float(sample_rate)

    @property
    def sample_rate(self) -> float:
        with self._lock:
            return self._sample_rate

    def set_sample_rate(self, rate: float) -> None:
        """Probability that a *new root* trace records (children always do)."""
        with self._lock:
            self._sample_rate = max(0.0, min(1.0, float(rate)))

    def _sampled(self) -> bool:
        with self._lock:
            if self._sample_rate >= 1.0:
                return True
            if self._sample_rate <= 0.0:
                return False
            return self._rng.random() < self._sample_rate

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        parent: tuple[str, str] | None = None,
        root: bool = False,
    ) -> Iterator[Span | None]:
        """Open a span under the active (or explicit ``parent``) context.

        Yields ``None`` (recording nothing) when tracing is disabled, or
        when there is no active context and neither ``root`` nor
        ``parent`` starts one — that is the fast path for instrumented
        layers: unsolicited spans cost one contextvar read.
        """
        if not enabled():
            yield None
            return
        active = _ACTIVE.get()
        if parent is not None:
            trace_id, parent_id = parent
        elif active is not None:
            trace_id, parent_id = active.trace_id, active.span_id
        elif root:
            if not self._sampled():
                yield None
                return
            trace_id, parent_id = _new_id(), None
        else:
            yield None
            return
        span = Span(self, trace_id, _new_id(), parent_id, name)
        token = _ACTIVE.set(span)
        span.start_unix = time.time()
        span._start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.duration_ms = (time.perf_counter() - span._start) * 1000.0
            _ACTIVE.reset(token)
            with self._lock:
                self._spans.append(span.record())

    def activate(self, context: tuple[str, str] | None) -> object | None:
        """Adopt a remote ``(trace_id, span_id)`` context in this thread.

        For executor worker threads, where contextvars don't propagate:
        the server calls this before running a dispatched op and
        :meth:`deactivate` after.  Returns an opaque token (or None when
        there is nothing to adopt).
        """
        if context is None or not enabled():
            return None
        trace_id, span_id = context
        ghost = Span(self, trace_id, span_id, None, "<remote>")
        return _ACTIVE.set(ghost)

    def deactivate(self, token: object | None) -> None:
        """Undo a previous :meth:`activate`."""
        if token is not None:
            _ACTIVE.reset(token)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    def spans(self, trace_id: str | None = None) -> list[SpanRecord]:
        """Finished spans, oldest first; optionally one trace only."""
        with self._lock:
            records = list(self._spans)
        if trace_id is not None:
            records = [r for r in records if r["trace_id"] == trace_id]
        return records

    def trace_ids(self) -> list[str]:
        """Distinct trace ids present in the ring, oldest first."""
        seen: dict[str, None] = {}
        for rec in self.spans():
            seen.setdefault(rec["trace_id"], None)
        return list(seen)

    def clear(self) -> None:
        """Drop all finished spans (tests)."""
        with self._lock:
            self._spans.clear()


#: The process-wide tracer every instrumented layer records into.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return TRACER


def maybe_span(name: str, **attrs: object):
    """Span under the active context, or a no-op outside any trace.

    The one-liner instrumented layers use::

        with maybe_span("journal.commit", blocks=n):
            ...

    Cost outside a trace: one enabled-check + one contextvar read.
    """
    if not enabled() or _ACTIVE.get() is None:
        return contextlib.nullcontext()
    return _span_with_attrs(name, attrs, root=False)


def root_span(name: str, **attrs: object):
    """Start (or continue, if a context is active) a trace at ``name``.

    Entry points use this: client calls, bench drivers, examples.
    """
    return _span_with_attrs(name, attrs, root=True)


@contextlib.contextmanager
def _span_with_attrs(name: str, attrs: dict[str, object], root: bool):
    with TRACER.span(name, root=root) as span:
        if span is not None and attrs:
            span.annotate(**attrs)
        yield span
