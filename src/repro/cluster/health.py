"""Shard health: failure marking, liveness probing, automatic recovery.

The coordinator treats a shard as a black box that either answers or
throws a transport error (:data:`~repro.cluster.backend.SHARD_FAILURES`).
This module turns those observations into a routing decision:

* every transport failure increments a consecutive-failure counter; at
  ``failure_threshold`` the shard is marked :attr:`ShardState.DEAD` and
  the coordinator stops sending it traffic (failover);
* any success resets the counter and revives the shard;
* :meth:`HealthMonitor.probe_all_async` pings dead shards so a restarted
  backend rejoins without operator action — call it once after a repair
  or run :meth:`HealthMonitor.probe_loop` as a task in long-lived
  deployments.

Logical errors (file not found, quorum refused, bad key) are *not*
health signals: a shard that answers "no such object" is alive and
honest, and counting it down would amplify client typos into outages.
"""

from __future__ import annotations

import asyncio
import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ClusterError
from repro.obs.slowlog import get_events

__all__ = ["HealthMonitor", "ShardHealth", "ShardState"]


class ShardState(enum.Enum):
    """Routing decision for one shard."""

    ALIVE = "alive"
    DEAD = "dead"


@dataclass
class ShardHealth:
    """Mutable health record for one shard (guarded by the monitor lock)."""

    state: ShardState = ShardState.ALIVE
    consecutive_failures: int = 0
    successes: int = 0
    failures: int = 0
    last_change: float = 0.0


class HealthMonitor:
    """Thread-safe shard state the coordinator routes by.

    The lock is for readers off the event loop (a telemetry collector
    thread, a :class:`~repro.cluster.aio.BlockingClusterClient` caller).
    """

    def __init__(
        self,
        failure_threshold: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ClusterError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self._threshold = failure_threshold
        self._clock = clock
        self._lock = threading.Lock()
        self._shards: dict[str, ShardHealth] = {}

    # ------------------------------------------------------------------
    # registration and queries
    # ------------------------------------------------------------------

    def register(self, shard_id: str) -> None:
        """Start tracking ``shard_id`` (idempotent, born ALIVE)."""
        with self._lock:
            self._shards.setdefault(shard_id, ShardHealth(last_change=self._clock()))

    def forget(self, shard_id: str) -> None:
        """Stop tracking a shard that left the cluster."""
        with self._lock:
            self._shards.pop(shard_id, None)

    def state_of(self, shard_id: str) -> ShardState:
        """Current routing state (unknown shards count as ALIVE)."""
        with self._lock:
            record = self._shards.get(shard_id)
            return record.state if record else ShardState.ALIVE

    def is_alive(self, shard_id: str) -> bool:
        """Whether the coordinator should route to ``shard_id``."""
        return self.state_of(shard_id) is ShardState.ALIVE

    def alive_of(self, shard_ids: tuple[str, ...] | list[str]) -> list[str]:
        """The subset of ``shard_ids`` currently routable, order kept."""
        with self._lock:
            return [
                shard_id
                for shard_id in shard_ids
                if (record := self._shards.get(shard_id)) is None
                or record.state is ShardState.ALIVE
            ]

    def snapshot(self) -> dict[str, ShardHealth]:
        """Copy of every record (for reports and tests)."""
        with self._lock:
            return {
                shard_id: ShardHealth(
                    state=record.state,
                    consecutive_failures=record.consecutive_failures,
                    successes=record.successes,
                    failures=record.failures,
                    last_change=record.last_change,
                )
                for shard_id, record in self._shards.items()
            }

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------

    def record_success(self, shard_id: str) -> None:
        """A call completed: reset failures, revive a dead shard."""
        revived = False
        with self._lock:
            record = self._shards.setdefault(shard_id, ShardHealth())
            record.successes += 1
            record.consecutive_failures = 0
            if record.state is not ShardState.ALIVE:
                record.state = ShardState.ALIVE
                record.last_change = self._clock()
                revived = True
        if revived:
            # Emit outside the lock: the event ring takes its own lock
            # and a state change is rare enough to narrate.
            get_events().emit("cluster.shard_state", shard=shard_id, state="alive")

    def record_failure(self, shard_id: str) -> None:
        """A transport error: mark DEAD once the threshold is crossed."""
        died = False
        with self._lock:
            record = self._shards.setdefault(shard_id, ShardHealth())
            record.failures += 1
            record.consecutive_failures += 1
            if (
                record.state is ShardState.ALIVE
                and record.consecutive_failures >= self._threshold
            ):
                record.state = ShardState.DEAD
                record.last_change = self._clock()
                died = True
        if died:
            get_events().emit("cluster.shard_state", shard=shard_id, state="dead")

    def mark_dead(self, shard_id: str) -> None:
        """Operator override: stop routing to ``shard_id`` immediately."""
        killed = False
        with self._lock:
            record = self._shards.setdefault(shard_id, ShardHealth())
            if record.state is not ShardState.DEAD:
                record.state = ShardState.DEAD
                record.last_change = self._clock()
                killed = True
        if killed:
            get_events().emit(
                "cluster.shard_state", shard=shard_id, state="dead", operator=True
            )

    def mark_alive(self, shard_id: str) -> None:
        """Operator override: resume routing to ``shard_id``."""
        self.record_success(shard_id)

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------

    async def probe_async(self, shard_id: str, backend: "object") -> bool:
        """Ping one backend; update its state from the outcome."""
        try:
            alive = bool(await backend.ping())
        except Exception:
            alive = False
        if alive:
            self.record_success(shard_id)
        else:
            self.record_failure(shard_id)
        return alive

    async def probe_all_async(
        self, backends: Mapping[str, "object"]
    ) -> dict[str, bool]:
        """Probe every **dead** shard concurrently (cheap recovery sweep).

        Contract: only shards currently marked DEAD are pinged, and only
        they appear in the returned ``{shard_id: alive}`` mapping — an
        empty dict means "every tracked shard was already alive", not
        "everything is down".  Alive shards are deliberately left alone:
        their liveness is continuously confirmed by real traffic, and
        probing them would add load for no information.  A dead shard
        that answers is revived immediately (:meth:`record_success`),
        so one sweep after a backend restart restores routing.  The
        pings run as parallel tasks, so one unreachable shard's timeout
        does not delay the others.
        """
        dead = [
            (shard_id, backend)
            for shard_id, backend in backends.items()
            if not self.is_alive(shard_id)
        ]
        if not dead:
            return {}
        outcomes = await asyncio.gather(
            *(self.probe_async(shard_id, backend) for shard_id, backend in dead)
        )
        results = {shard_id: alive for (shard_id, _), alive in zip(dead, outcomes)}
        get_events().emit(
            "cluster.probe_sweep",
            probed=len(results),
            revived=sum(1 for alive in results.values() if alive),
        )
        return results

    async def probe_loop(
        self, backends: Mapping[str, "object"], interval_s: float = 1.0
    ) -> None:
        """Run :meth:`probe_all_async` forever; cancel the task to stop."""
        while True:
            await asyncio.sleep(interval_s)
            await self.probe_all_async(backends)
