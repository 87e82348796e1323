"""A private asyncio event loop on a daemon thread, for blocking facades.

:class:`~repro.net.client.StegFSClient` and
:class:`~repro.cluster.aio.BlockingClusterClient` are thread-safe blocking
fronts over async engines, and :func:`~repro.net.server.start_in_thread`
runs a server beside threaded code.  Each owns one :class:`LoopThread`:
every call is a coroutine submitted onto its loop, so the engine stays
confined to one thread and callers never adopt asyncio.  A submitted coroutine runs
in a copy of the submitting thread's ``contextvars`` context, so an active
trace span on the caller's side parents what the engine records.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Coroutine

__all__ = ["LoopThread"]


class LoopThread:
    """One event loop running forever on its own daemon thread."""

    def __init__(self, name: str) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    def run(self, coro: Coroutine[Any, Any, Any], timeout: float | None = None) -> Any:
        """Run ``coro`` on the loop from any other thread; return its result.

        With a ``timeout``, a coroutine still running when it expires is
        cancelled and :class:`TimeoutError` raised — without waiting for
        the cancellation to land.
        """
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except TimeoutError:
            if not future.cancel():  # it finished: the error, if any, is its own
                return future.result()
            raise TimeoutError(f"no result within {timeout} s") from None

    def close(self) -> None:
        """Wind the loop down as :func:`asyncio.run` does — cancel and await
        every task still pending, finalize open async generators — then
        stop it and join the thread."""
        self.run(self._wind_down(), timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    async def _wind_down(self) -> None:
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self._loop.shutdown_asyncgens()
