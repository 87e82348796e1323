"""Awaitable front over a blocking :class:`~repro.service.StegFSService`.

The service's operation surface is synchronous by design — crypto and
block I/O run on its worker pool, guarded by one reader–writer volume
lock.  Event-loop callers (the TCP server in :mod:`repro.net.server`,
the async cluster coordinator, application code on asyncio) need that
same surface *awaitable* without blocking the loop and without a second
dispatch table.  :class:`AsyncServiceFront` is that adapter:

* every call routes by name through the shared op registry
  (:mod:`repro.service.registry`), so the async surface can never drift
  from the blocking one;
* the blocking method runs on the service's own
  :class:`~concurrent.futures.ThreadPoolExecutor` via
  ``loop.run_in_executor`` — the pool that already bounds disk
  concurrency keeps bounding it, and the loop stays free;
* the caller's active trace span is re-activated inside the worker
  thread (``contextvars`` do not cross ``run_in_executor`` on their
  own), so service-level spans parent correctly under async callers.

The front holds no state beyond the service reference: it is safe to
create many fronts over one service, and safe to use one front from
many tasks on the same loop.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any

from repro.errors import ServiceClosedError
from repro.obs.trace import current_context, get_tracer
from repro.service.registry import lookup
from repro.service.service import StegFSService

__all__ = ["AsyncServiceFront"]


def _run_activated(ctx: tuple[str, str] | None, call: Any) -> Any:
    """Run ``call`` in a worker thread under the given trace context.

    ``run_in_executor`` does not propagate ``contextvars``, so the
    front re-activates the caller's span explicitly around the blocking
    call; with no active trace this is a plain invocation.
    """
    if ctx is None:
        return call()
    tracer = get_tracer()
    token = tracer.activate(ctx)
    try:
        return call()
    finally:
        tracer.deactivate(token)


class AsyncServiceFront:
    """Dispatch registered service ops from asyncio without blocking the loop.

    Args:
        service: the blocking service to front.  The front does not own
            it — closing the service is the creator's job.

    Thread-safety: the front itself is stateless apart from the service
    reference; any number of tasks on any loop may call it, and the
    underlying service's own locking applies unchanged.

    Raises:
        UnknownOperationError: :meth:`call` with a name the registry
            does not know.
        ServiceClosedError: ops dispatched after the service shut down.
    """

    def __init__(self, service: StegFSService) -> None:
        self._service = service

    @property
    def service(self) -> StegFSService:
        """The wrapped blocking service."""
        return self._service

    async def call(
        self,
        op: str,
        /,
        *args: Any,
        _span_name: str | None = None,
        _parent: tuple[str, str] | None = None,
        **kwargs: Any,
    ) -> Any:
        """Await one registered operation by name.

        Args:
            op: operation name from the service registry (e.g.
                ``"steg_read"``); positional and keyword arguments are
                passed through to the service method.
            _span_name: when set, the dispatch runs under a span of
                this name (the TCP server passes ``net.server.<op>``);
                when unset, the caller's current span context — if any
                — still propagates into the worker thread.
            _parent: explicit parent span context for ``_span_name``
                (a remote caller's ``(trace_id, span_id)``).

        Returns:
            whatever the blocking service method returns.

        Raises:
            UnknownOperationError: ``op`` is not a registered operation.
        """
        lookup(self._service.OPS, op)
        method = getattr(self._service, op)
        call: Any = functools.partial(method, *args, **kwargs)
        loop = asyncio.get_running_loop()
        if _span_name is not None:
            with get_tracer().span(_span_name, parent=_parent) as span:
                ctx = span.context() if span is not None else None
                return await self._submit(loop, ctx, call)
        return await self._submit(loop, current_context(), call)

    def _submit(
        self, loop: asyncio.AbstractEventLoop, ctx: tuple[str, str] | None, call: Any
    ) -> asyncio.Future[Any]:
        try:
            return loop.run_in_executor(
                self._service.executor, functools.partial(_run_activated, ctx, call)
            )
        except RuntimeError:
            # A closed service has shut its pool down, and the pool refuses
            # the work before the op's own closed check can run.
            if self._service.closed:
                raise ServiceClosedError("service has been shut down") from None
            raise

    def __getattr__(self, op: str) -> Any:
        """Attribute sugar: ``await front.steg_read(...)`` ≡ :meth:`call`.

        Only registered, non-underscore op names resolve; anything else
        raises :class:`AttributeError` so typos fail loudly.
        """
        if op.startswith("_") or op not in self._service.OPS:
            raise AttributeError(
                f"{type(self).__name__!s} has no attribute {op!r}"
            )

        async def bound(*args: Any, **kwargs: Any) -> Any:
            return await self.call(op, *args, **kwargs)

        bound.__name__ = op
        return bound
