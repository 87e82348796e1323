"""Live multi-client workload drivers: in-process threads and remote sockets.

Where :mod:`repro.workload.runner` *replays recorded traces* through the
disk model (the Figure 7–9 methodology), this module drives a StegFS
service with **real clients** issuing real operations — lock contention,
GIL scheduling and device latency all happen for real.  It is the
engine of the concurrency stress tests (``tests/service/test_stress.py``,
``tests/net/test_remote_driver.py``).

Two transports share one loop:

* :func:`run_live_clients` — threads calling a
  :class:`~repro.service.StegFSService` directly (PR 1's driver).
* :func:`run_remote_clients` — threads each owning a blocking
  :class:`~repro.net.client.StegFSClient` over a real TCP connection.

Each client owns a deterministic RNG and loops over an :class:`OpMix`
(read/write/create/delete weights) against a set of hidden objects.  The
per-op dispatch is a **table built from small op closures**
(:func:`build_client_ops`) rather than an if/else ladder, so local and
remote targets plug into the identical loop; all clients start together
on a barrier, and the run reports aggregate throughput plus per-op
latency percentiles.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.service.service import StegFSService

__all__ = [
    "ClientResult",
    "LiveRunResult",
    "OpMix",
    "populate_hidden_files",
    "run_live_clients",
    "run_remote_clients",
]


@dataclass(frozen=True)
class OpMix:
    """Relative operation weights for one client loop."""

    read: float = 1.0
    write: float = 0.0
    create: float = 0.0
    delete: float = 0.0

    def __post_init__(self) -> None:
        total = self.read + self.write + self.create + self.delete
        if total <= 0:
            raise ValueError("operation mix must have positive total weight")
        if min(self.read, self.write, self.create, self.delete) < 0:
            raise ValueError("operation weights must be non-negative")

    def choose(self, rng: random.Random) -> str:
        """Draw one op name according to the weights."""
        total = self.read + self.write + self.create + self.delete
        roll = rng.random() * total
        if roll < self.read:
            return "read"
        roll -= self.read
        if roll < self.write:
            return "write"
        roll -= self.write
        if roll < self.create:
            return "create"
        return "delete"

    @classmethod
    def read_heavy(cls) -> "OpMix":
        """The §5.3-style mix the drivers default to."""
        return cls(read=0.9, write=0.1)


@dataclass
class ClientResult:
    """One client's outcome."""

    client: int
    ops: int = 0
    errors: int = 0
    latencies_ms: list[float] = field(default_factory=list)


@dataclass
class LiveRunResult:
    """Aggregate outcome of one live run."""

    n_clients: int
    elapsed_s: float
    clients: list[ClientResult]

    @property
    def total_ops(self) -> int:
        """Completed operations across all clients."""
        return sum(c.ops for c in self.clients)

    @property
    def total_errors(self) -> int:
        """Operations that raised (should be zero in a healthy run)."""
        return sum(c.errors for c in self.clients)

    @property
    def ops_per_sec(self) -> float:
        """Aggregate throughput."""
        return self.total_ops / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_ms(self, percentile: float = 50.0) -> float:
        """Latency percentile across every operation (ms)."""
        samples = sorted(
            value for client in self.clients for value in client.latencies_ms
        )
        if not samples:
            return 0.0
        rank = min(len(samples) - 1, int(round(percentile / 100.0 * (len(samples) - 1))))
        return samples[rank]


# ---------------------------------------------------------------------------
# targets: the four primitive operations each transport must provide
# ---------------------------------------------------------------------------


class ClientTarget(Protocol):
    """What one workload client needs from its transport."""

    def read(self, name: str) -> bytes:  # pragma: no cover - protocol
        ...

    def write(self, name: str, data: bytes) -> None:  # pragma: no cover
        ...

    def create(self, name: str, data: bytes) -> None:  # pragma: no cover
        ...

    def delete(self, name: str) -> None:  # pragma: no cover
        ...


class ServiceTarget:
    """In-process transport: direct :class:`StegFSService` calls."""

    def __init__(self, service: StegFSService, uak: bytes) -> None:
        self._service = service
        self._uak = uak

    def read(self, name: str) -> bytes:
        """Read a hidden file through the service."""
        return self._service.steg_read(name, self._uak)

    def write(self, name: str, data: bytes) -> None:
        """Replace a hidden file through the service."""
        self._service.steg_write(name, self._uak, data)

    def create(self, name: str, data: bytes) -> None:
        """Create a hidden file through the service."""
        self._service.steg_create(name, self._uak, data=data)

    def delete(self, name: str) -> None:
        """Delete a hidden file through the service."""
        self._service.steg_delete(name, self._uak)


class RemoteTarget:
    """Network transport: a logged-in blocking remote client.

    The client holds a session token, so none of these calls carry a key.
    """

    def __init__(self, client: "object") -> None:
        # Typed loosely to keep repro.net an optional import for trace-
        # replay users; any object with the steg_* quartet works.
        self._client = client

    def read(self, name: str) -> bytes:
        """Read a hidden file over the wire."""
        return self._client.steg_read(name)

    def write(self, name: str, data: bytes) -> None:
        """Replace a hidden file over the wire."""
        self._client.steg_write(name, data)

    def create(self, name: str, data: bytes) -> None:
        """Create a hidden file over the wire."""
        self._client.steg_create(name, data=data)

    def delete(self, name: str) -> None:
        """Delete a hidden file over the wire."""
        self._client.steg_delete(name)


def build_client_ops(
    target: ClientTarget,
    names: list[str],
    rng: random.Random,
    payload_size: int,
    index: int,
) -> dict[str, Callable[[], None]]:
    """The per-client dispatch table: op name → zero-arg closure.

    Reads and writes target the shared ``names``; creates and deletes use
    per-client private names so clients never race on namespace
    existence.  Delete falls back to create when nothing private is live.
    """
    private_live: list[str] = []
    serial = iter(range(1 << 30))

    def do_read() -> None:
        target.read(rng.choice(names))

    def do_write() -> None:
        target.write(rng.choice(names), rng.randbytes(payload_size))

    def do_create() -> None:
        name = f"client{index}-{next(serial):04d}"
        target.create(name, rng.randbytes(payload_size))
        private_live.append(name)

    def do_delete() -> None:
        if private_live:
            target.delete(private_live.pop())
        else:
            do_create()

    return {"read": do_read, "write": do_write, "create": do_create, "delete": do_delete}


def run_client_loop(
    target: ClientTarget,
    names: list[str],
    ops_per_client: int,
    mix: OpMix,
    payload_size: int,
    seed: int,
    index: int,
) -> ClientResult:
    """Run one client's deterministic op loop; returns its counters.

    Transport-neutral: the same loop drives in-process services and
    remote sockets.
    """
    rng = random.Random((seed << 16) ^ index)
    ops = build_client_ops(target, names, rng, payload_size, index)
    result = ClientResult(client=index)
    for _ in range(ops_per_client):
        op = mix.choose(rng)
        start = time.perf_counter()
        try:
            ops[op]()
            result.ops += 1
        except Exception:
            result.errors += 1
        result.latencies_ms.append((time.perf_counter() - start) * 1000.0)
    return result


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def populate_hidden_files(
    service: StegFSService,
    uak: bytes,
    n_files: int,
    file_size: int,
    prefix: str = "bench",
    seed: int = 0,
) -> list[str]:
    """Create ``n_files`` hidden files with deterministic contents."""
    rng = random.Random(seed)
    names = []
    for index in range(n_files):
        name = f"{prefix}-{index:04d}"
        service.steg_create(name, uak, data=rng.randbytes(file_size))
        names.append(name)
    service.flush()
    return names


def _run_threads(
    n_clients: int,
    make_worker: Callable[[int, "threading.Barrier"], Callable[[], ClientResult]],
) -> LiveRunResult:
    """Start ``n_clients`` threads on a barrier; collect their results."""
    barrier = threading.Barrier(n_clients + 1)
    results: list[ClientResult | None] = [None] * n_clients

    def thread_main(index: int) -> None:
        worker = make_worker(index, barrier)
        results[index] = worker()

    threads = [
        threading.Thread(target=thread_main, args=(i,), name=f"client-{i}")
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    collected = [r if r is not None else ClientResult(client=i) for i, r in enumerate(results)]
    return LiveRunResult(n_clients=n_clients, elapsed_s=elapsed, clients=collected)


def run_live_clients(
    service: StegFSService,
    uak: bytes,
    names: list[str],
    n_clients: int,
    ops_per_client: int,
    mix: OpMix | None = None,
    payload_size: int = 2048,
    seed: int = 0,
) -> LiveRunResult:
    """Hammer ``service`` with ``n_clients`` real threads, in-process.

    Every client is deterministic given ``seed``; wall-clock spans the
    barrier release to the last thread's exit.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if not names:
        raise ValueError("names must not be empty")
    chosen_mix = mix or OpMix.read_heavy()

    def make_worker(index: int, barrier: threading.Barrier) -> Callable[[], ClientResult]:
        target = ServiceTarget(service, uak)

        def worker() -> ClientResult:
            barrier.wait()
            return run_client_loop(
                target, names, ops_per_client, chosen_mix, payload_size, seed, index
            )

        return worker

    return _run_threads(n_clients, make_worker)


def run_remote_clients(
    host: str,
    port: int,
    user_id: str,
    uak: bytes,
    names: list[str],
    n_clients: int,
    ops_per_client: int,
    mix: OpMix | None = None,
    payload_size: int = 2048,
    seed: int = 0,
) -> LiveRunResult:
    """Hammer a network server with ``n_clients`` threads, each owning its
    own TCP connection and authenticated session.

    Connection setup and the HMAC login handshake happen *before* the
    barrier, so the measured window contains only operations.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if not names:
        raise ValueError("names must not be empty")
    from repro.net.client import StegFSClient  # local import: optional dep direction

    chosen_mix = mix or OpMix.read_heavy()

    def make_worker(index: int, barrier: threading.Barrier) -> Callable[[], ClientResult]:
        def worker() -> ClientResult:
            try:
                client = StegFSClient(host, port)
                client.login(user_id, uak)
            except Exception:
                # A client that cannot even connect must still pass the
                # barrier, or it would deadlock every healthy client.
                barrier.wait()
                return ClientResult(client=index, errors=1)
            with client:
                target = RemoteTarget(client)
                barrier.wait()
                result = run_client_loop(
                    target, names, ops_per_client, chosen_mix, payload_size, seed, index
                )
                try:
                    client.logout()
                except Exception:
                    result.errors += 1
                return result

        return worker

    return _run_threads(n_clients, make_worker)
