"""Cluster-wide dummy-churn scheduling: staggered phases, jittered gaps.

The paper's single-disk adversary sees one volume's dummy updates; a
multi-disk adversary sees *when* every shard's churn lands.  If each
shard ticks on its own fixed cadence — the naive reading of §3.1's
"updates periodically" — the fleet drums in lockstep, and the
cross-shard timing correlation measured by the deniability observatory
(:mod:`repro.obs.steg`) rides near 1.0: a maintenance signature no
amount of per-block indistinguishability hides.

:class:`DummyScheduler` is the knob the observatory validates.  It
drives ``dummy_tick`` across every shard from one place, with two
decorrelating levers:

* **stagger** — shards start phase-shifted across the base interval
  instead of all at once;
* **jitter** — every gap is drawn fresh from
  ``[base·(1-jitter), base·(1+jitter)]``.  Embedded shards draw from
  their *own volume RNG* (the ``dummy_interval`` hook, satisfying the
  replay-from-seed property), remote shards from the scheduler's seeded
  RNG under its lock — the same discipline the obs sampling code uses,
  so concurrent pollers never tear the stream.

Setting ``jitter=0, stagger=False`` reproduces the lockstep pathology
on purpose; the before/after benchmark and the acceptance test drive
both arms through :meth:`DummyScheduler.poll` with a fake clock.
Everything the scheduler keeps — due times, per-shard tick counts — is
RAM-only; the ticks themselves are ordinary volume mutations that
happen with or without it.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Mapping

from repro.cluster.backend import SHARD_FAILURES

__all__ = ["DummyScheduler"]


class DummyScheduler:
    """Stagger and jitter ``dummy_tick`` across a fleet of shards.

    Args:
        targets: shard id → anything with a blocking ``dummy_tick()``
            (a service, a net client, a raw facade).  A ``dummy_interval``
            method, when present, supplies that shard's jittered gaps
            from its own volume RNG.
        base_interval_s: mean seconds between one shard's ticks.
        jitter: half-width of the uniform gap distribution, as a
            fraction of the base (0 = fixed cadence, must be < 1).
        stagger: phase-shift shard start times across one base interval
            (`False` starts everyone together — the lockstep arm).
        seed: seed for the scheduler's own RNG (remote-shard gaps and
            stagger order); ``None`` draws from the process entropy.
        clock: monotonic time source (tests and benches inject a fake).
    """

    def __init__(
        self,
        targets: Mapping[str, Any],
        *,
        base_interval_s: float = 60.0,
        jitter: float = 0.5,
        stagger: bool = True,
        seed: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not targets:
            raise ValueError("a dummy scheduler needs at least one shard")
        if base_interval_s <= 0:
            raise ValueError(
                f"base interval must be positive, got {base_interval_s}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self._targets = dict(targets)
        self._base_s = float(base_interval_s)
        self._jitter = float(jitter)
        self._stagger = stagger
        self._clock = clock
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._ticks: dict[str, int] = {sid: 0 for sid in self._targets}
        self._failures: dict[str, int] = {sid: 0 for sid in self._targets}
        now = self._clock()
        order = sorted(self._targets)
        self._due: dict[str, float] = {}
        if stagger:
            for position, sid in enumerate(order):
                phase = (position / len(order)) * self._base_s
                self._due[sid] = now + phase + self._gap(sid)
        else:
            # Lockstep arm: everyone shares one first deadline.
            first = now + self._gap(order[0])
            self._due = {sid: first for sid in order}
        self._stop: threading.Event | None = None
        self._thread: threading.Thread | None = None

    # -- schedule derivation -------------------------------------------

    def _gap(self, shard_id: str) -> float:
        """Draw one inter-tick gap for ``shard_id``.

        Prefers the shard's own ``dummy_interval`` hook (the volume-RNG
        draw); remote shards and bare callables fall back to the
        scheduler RNG under the lock.
        """
        hook = getattr(self._targets[shard_id], "dummy_interval", None)
        if hook is not None:
            try:
                return float(hook(self._base_s, self._jitter))
            except SHARD_FAILURES:
                pass  # an unreachable shard still gets rescheduled
        if self._jitter == 0.0:
            return self._base_s
        with self._lock:
            return self._base_s * self._rng.uniform(
                1.0 - self._jitter, 1.0 + self._jitter
            )

    @property
    def jitter(self) -> float:
        """The configured gap half-width (fraction of the base)."""
        return self._jitter

    def due_times(self) -> dict[str, float]:
        """Shard id → next scheduled tick time (copy; for inspection)."""
        with self._lock:
            return dict(self._due)

    def tick_counts(self) -> dict[str, int]:
        """Shard id → completed ticks through this scheduler (RAM-only)."""
        with self._lock:
            return dict(self._ticks)

    # -- driving -------------------------------------------------------

    def poll(self, now: float | None = None) -> list[str]:
        """Tick every shard whose deadline has passed; reschedule each.

        The deterministic core: tests and benches call it directly with
        a fake clock, the background thread calls it with the real one.
        Returns the shard ids ticked this call (sorted).  A shard whose
        tick raises a transport failure is rescheduled anyway — churn
        must outlive shard outages — and counted in ``failures``.
        """
        now = self._clock() if now is None else now
        with self._lock:
            ready = sorted(sid for sid, due in self._due.items() if due <= now)
        ticked = []
        for sid in ready:
            try:
                self._targets[sid].dummy_tick()
            except SHARD_FAILURES:
                with self._lock:
                    self._failures[sid] += 1
            else:
                ticked.append(sid)
                with self._lock:
                    self._ticks[sid] += 1
            gap = self._gap(sid)
            with self._lock:
                self._due[sid] = now + gap
        return ticked

    def failure_counts(self) -> dict[str, int]:
        """Shard id → ticks lost to transport failures (RAM-only)."""
        with self._lock:
            return dict(self._failures)

    # -- background loop -----------------------------------------------

    def start(self, poll_interval_s: float | None = None) -> None:
        """Poll on a daemon thread every ``poll_interval_s`` seconds.

        Defaults to an eighth of the base interval, small enough that
        jittered deadlines are honoured at useful resolution.
        """
        if self._thread is not None:
            raise RuntimeError("scheduler already running")
        quantum = (
            max(0.01, self._base_s / 8.0)
            if poll_interval_s is None
            else poll_interval_s
        )
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(quantum):
                try:
                    self.poll()
                except Exception:
                    # One bad poll must not end churn for the fleet.
                    pass

        thread = threading.Thread(target=loop, name="dummy-sched", daemon=True)
        self._stop = stop
        self._thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop the background loop, if running."""
        if self._stop is not None:
            self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._stop = None
        self._thread = None

    def __enter__(self) -> "DummyScheduler":
        """Start the background loop on entry."""
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Stop the background loop on exit."""
        self.stop()
