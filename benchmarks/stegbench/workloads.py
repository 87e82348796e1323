"""The four workloads: what is built, what one op is, and why.

Each workload builds its system from public constructors only, on
:class:`~devices.RecordingDevice`-wrapped RAM devices, and drives it
closed-loop: every caller of this system — library user, blocking wire
client, cluster coordinator — waits for its reply.  ``plain_wire`` has two
client threads on two connections; the others have one client.

Flush policy, identical on every workload: journaled volume,
``auto_flush=True``, ``StegFSService`` default (``durable=True``: every acked
mutation's journal record is flushed before the ack).  Flushes are counted
and priced by the disk model, never slept.

The window is ``SLICES`` slices of a fixed op count, so the ops a run issues
are a function of ``--seed`` and ``--seconds`` only, never of how fast the
machine was.  Keys are uniform — shuffled batches, so every key comes up
equally often — and the read/write mix is exact per client per slice.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from devices import RecordingDevice

from repro.cluster.aio import AsyncClusterClient, AsyncServiceShard, BlockingClusterClient
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.crypto.kdf import derive_key
from repro.net.client import StegFSClient
from repro.net.server import start_in_thread
from repro.obs.metrics import get_registry
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice
from repro.storage.cache import CachedDevice

__all__ = ["SLICES", "WORKLOADS", "Op", "System", "Workload"]

KiB = 1024
MiB = 1024 * 1024
USER = "bench"
#: Slices per window; each reported timing is the median over them.
SLICES = 12


@dataclass(frozen=True)
class Op:
    """One generated operation: a full or extent read or write of one object."""

    kind: str  # "r" or "w"
    key: int
    offset: int = 0
    payload: bytes = b""


@dataclass
class System:
    """One built system under test and the handles the harness measures."""

    call: dict[str, Callable[..., Any]]
    devices: list[RecordingDevice]
    stegs: list[StegFS]
    services: list[StegFSService]
    closers: list[Callable[[], None]]
    #: Allocated blocks × block size right after mkfs, summed over volumes.
    mkfs_bytes: int
    shadow: dict[int, bytearray] = field(default_factory=dict)
    caches: list[CachedDevice] = field(default_factory=list)
    server: Any = None
    cluster: BlockingClusterClient | None = None
    legs: "LegRecorder | None" = None
    uaks: list[bytes] = field(default_factory=list)
    #: Per client count, each client's key stream: it runs on from the
    #: warm-up into the window, so a window's first keys are not the warm-up's.
    key_streams: dict[int, list[Iterator[int]]] = field(default_factory=dict)

    def close(self) -> None:
        """Stop every thread and release every device of this system."""
        for closer in self.closers:
            closer()

    def allocated_bytes(self) -> int:
        """Currently allocated blocks × block size, summed over volumes."""
        return sum(s.fs.bitmap.allocated_count * s.block_size for s in self.stegs)


def _volume(
    block_size: int, blocks: int, rng: random.Random, dummy_size: int, cache_blocks: int = 0
) -> tuple[StegFS, RecordingDevice, CachedDevice | None]:
    recorder = RecordingDevice(RamDevice(block_size, blocks))
    cache = CachedDevice(recorder, capacity_blocks=cache_blocks) if cache_blocks else None
    steg = StegFS.mkfs(
        cache or recorder,
        # Only a lookup that misses scans to the limit, and the only misses
        # are each user's first create, during set-up: at the default 2048
        # they were 60 % of hidden_small's set-up time, at 256 they are 15 %.
        params=StegFSParams(dummy_count=4, dummy_avg_size=dummy_size, locator_scan_limit=256),
        rng=rng,
        auto_flush=True,
    )
    return steg, recorder, cache


class Workload:
    """Base: sizes, op mix, and the generator shared by all four."""

    name = ""
    why = ""
    n_objects = 0
    object_size = 0
    read_share = 0.5
    #: Closed-loop client threads; each owns a disjoint share of the keys.
    clients = 1
    #: Users (UAKs, so hidden directories) the hidden objects are dealt to.
    #: Every op reads its user's directory, so with one user one directory's
    #: place on the disk decides the modelled seek time of the whole run:
    #: 4 % between seeds on ``hidden_small``, against 0.1 % for the traffic.
    n_users = 1
    #: Sizing only: ops per second this sandbox manages on an ordinary
    #: stretch, so that ``--seconds`` worth of ops takes about that long.
    ops_per_second = 0.0
    #: One ``dummy_tick`` after every this many ops (0: none).
    tick_every = 0
    hidden = True
    durability_check = False

    def build(self, seed: int, pace: Callable[[], None]) -> System:
        """mkfs + populate + start servers; ``pace`` runs between steps."""
        raise NotImplementedError

    def outer_layer(self) -> str | None:
        """Span name of the client-side layer wrapping each op (traced run)."""
        return None

    # -- op generation -------------------------------------------------

    def slices(
        self, system: System, rng: random.Random, seconds: float, slices: int, clients: int
    ) -> Iterator[list[list[Op]]]:
        """``seconds`` worth of ops in ``slices`` equal slices, each a list of
        ops per client.

        Payloads are drawn when a slice is asked for, outside the clock.
        """
        per_client = max(2, round(seconds * self.ops_per_second / (slices * clients)))
        n_reads = max(1, min(per_client - 1, round(per_client * self.read_share)))
        keys = system.key_streams.get(clients)
        if keys is None:
            keys = system.key_streams[clients] = [
                self.key_stream(rng, range(c, self.n_objects, clients)) for c in range(clients)
            ]
        for _ in range(slices):
            plan = []
            for stream in keys:
                kinds = ["r"] * n_reads + ["w"] * (per_client - n_reads)
                rng.shuffle(kinds)
                plan.append([self.make_op(kind, next(stream), rng) for kind in kinds])
            yield plan

    def key_stream(self, rng: random.Random, keys: range) -> Iterator[int]:
        """Uniform keys, each equally often: shuffled batches, without end."""
        while True:
            batch = list(keys)
            rng.shuffle(batch)
            yield from batch

    def make_op(self, kind: str, key: int, rng: random.Random) -> Op:
        """A whole-object read or overwrite (extent workloads override)."""
        return Op(kind, key, 0, rng.randbytes(self.object_size) if kind == "w" else b"")

    # -- op execution --------------------------------------------------

    def objname(self, key: int) -> str:
        return f"obj{key:03d}" if self.hidden else f"/file{key:03d}"

    def run_op(self, system: System, op: Op) -> bytes | None:
        """Issue one op against the system; returns what a read returned."""
        if op.kind == "r":
            return system.call["read"](self.objname(op.key))
        system.call["write"](self.objname(op.key), op.payload)
        return None

    def expected(self, system: System, op: Op) -> bytes:
        """What a read op must return, from the shadow copy."""
        return bytes(system.shadow[op.key])

    def apply(self, system: System, op: Op) -> None:
        """Record an acked write in the shadow copy."""
        system.shadow[op.key] = bytearray(op.payload)

    def read_all(self, system: System, key: int) -> bytes:
        """Full read-back of one object for the post-window check."""
        return system.call["read"](self.objname(key))

    def populate(self, system: System, rng: random.Random, pace: Callable[[], None]) -> None:
        """Create every object with seeded content, recording the shadow."""
        for key in range(self.n_objects):
            data = rng.randbytes(self.object_size)
            system.call["create"](self.objname(key), data)
            system.shadow[key] = bytearray(data)
            pace()


def _uaks(seed: int, n_users: int) -> list[bytes]:
    return [derive_key(f"stegbench-{seed}-{user}", iterations=8) for user in range(n_users)]


def _hidden_calls(target: Any, uaks: list[bytes]) -> dict[str, Callable]:
    """Create, read and write by object name, each under its user's key."""

    def uak(name: str) -> bytes:
        return uaks[int(name[3:]) % len(uaks)]

    return {
        "create": lambda name, data: target.steg_create(name, uak(name), data=data),
        "read": lambda name: target.steg_read(name, uak(name)),
        "write": lambda name, data: target.steg_write(name, uak(name), data),
    }


class HiddenSmall(Workload):
    """In-process service, 4 KiB hidden objects, read-heavy, dummy churn."""

    name = "hidden_small"
    why = (
        "256 hidden x 4 KiB, 32 users, 32 MiB/1 KiB blocks, in-process service, 1 client, 70% "
        "steg_read/30% steg_write, dummy_tick per 64 ops: locator probes, pure-Python SHA-256/"
        "HMAC; net, cluster, AES idle"
    )
    n_objects = 256
    object_size = 4 * KiB
    read_share = 0.7
    n_users = 32
    ops_per_second = 110
    tick_every = 64
    durability_check = True

    def build(self, seed: int, pace: Callable[[], None]) -> System:
        rng = random.Random(seed)
        steg, recorder, _ = _volume(KiB, 32 * KiB, rng, dummy_size=4 * KiB)
        mkfs_bytes = steg.fs.bitmap.allocated_count * steg.block_size
        pace()
        service = StegFSService(steg)
        uaks = _uaks(seed, self.n_users)
        system = System(
            call=_hidden_calls(service, uaks),
            devices=[recorder],
            stegs=[steg],
            services=[service],
            closers=[service.close],
            mkfs_bytes=mkfs_bytes,
            uaks=uaks,
        )
        system.call["tick"] = service.dummy_tick
        self.populate(system, rng, pace)
        return system


class _Wire(Workload):
    """Shared build for the two loopback-TCP workloads."""

    block_size = KiB
    blocks = 32 * KiB
    cache_blocks = 0
    dummy_size = 16 * KiB
    max_frame = 8 * MiB

    def outer_layer(self) -> str | None:
        return "net.client"

    def build(self, seed: int, pace: Callable[[], None]) -> System:
        rng = random.Random(seed)
        steg, recorder, cache = _volume(
            self.block_size, self.blocks, rng, self.dummy_size, self.cache_blocks
        )
        mkfs_bytes = steg.fs.bitmap.allocated_count * steg.block_size
        pace()
        service = StegFSService(steg)
        (uak,) = _uaks(seed, 1)
        handle = start_in_thread(service, credentials={USER: uak}, max_frame=self.max_frame)
        client = StegFSClient(
            handle.host, handle.port, pool_size=self.clients, max_frame=self.max_frame
        )
        client.login(USER, uak)
        system = System(
            call=self.client_calls(client),
            devices=[recorder],
            stegs=[steg],
            services=[service],
            closers=[client.close, handle.stop, service.close],
            mkfs_bytes=mkfs_bytes,
            caches=[cache] if cache else [],
            server=handle.server,
            uaks=[uak],
        )
        system.call["ping"] = client.ping
        self.populate(system, rng, pace)
        return system

    def client_calls(self, client: StegFSClient) -> dict[str, Callable]:
        raise NotImplementedError


class ExtentWire(_Wire):
    """Loopback client, 1 MiB hidden objects behind a cache a third their size."""

    name = "extent_wire"
    why = (
        "12 hidden x 1 MiB (3x the 4 MiB block cache) on 64 MiB/4 KiB blocks, loopback TCP, 256 "
        "KiB frames, 1 client, 50% whole steg_read_extent/50% 256 KiB steg_write_extent: AES "
        "batches, chunked streaming"
    )
    n_objects = 12
    object_size = MiB
    extent = 256 * KiB
    ops_per_second = 9
    block_size = 4 * KiB
    blocks = 16 * KiB
    cache_blocks = 1024
    dummy_size = 64 * KiB
    max_frame = 256 * KiB

    def client_calls(self, client: StegFSClient) -> dict[str, Callable]:
        return {
            "create": lambda name, data: client.steg_create(name, data=data),
            "read": client.steg_read,
            "read_extent": client.steg_read_extent,
            "write_extent": client.steg_write_extent,
        }

    def key_stream(self, rng: random.Random, keys: range) -> Iterator[int]:
        # In turn, not shuffled: with 12 objects a shuffled order leaves it to
        # luck how often one comes up again while still cached (read_amp 0.90
        # to 0.99 between seeds).  In turn, every data block is a miss.
        return itertools.cycle(keys)

    def make_op(self, kind: str, key: int, rng: random.Random) -> Op:
        if kind == "r":
            return Op("r", key)
        slots = (self.object_size - self.extent) // (4 * KiB) + 1
        return Op("w", key, rng.randrange(slots) * 4 * KiB, rng.randbytes(self.extent))

    def run_op(self, system: System, op: Op) -> bytes | None:
        if op.kind == "r":
            return bytes(system.call["read_extent"](self.objname(op.key), 0, self.object_size))
        system.call["write_extent"](self.objname(op.key), op.offset, op.payload)
        return None

    def apply(self, system: System, op: Op) -> None:
        system.shadow[op.key][op.offset : op.offset + len(op.payload)] = op.payload


class PlainWire(_Wire):
    """Loopback, two clients, 4 KiB plain files, write-heavy: no crypto at all."""

    name = "plain_wire"
    why = (
        "256 plain x 4 KiB on 32 MiB/1 KiB blocks, loopback TCP, 2 client threads, 30% read/70% "
        "write: no crypto; wire round trip, codec, executor hand-off, locks, journal commit, fs; "
        "the one with contention"
    )
    n_objects = 256
    object_size = 4 * KiB
    read_share = 0.3
    clients = 2
    ops_per_second = 800
    hidden = False
    durability_check = True

    def client_calls(self, client: StegFSClient) -> dict[str, Callable]:
        return {"create": client.create, "read": client.read, "write": client.write}


class LegRecorder:
    """Benchmark-owned wrapper around each shard backend: counts and times legs."""

    def __init__(self) -> None:
        self.read_legs = 0
        self.write_legs = 0
        self.leg_s: list[float] = []
        self.clock: Callable[[], float] | None = None

    def wrap(self, backend: AsyncServiceShard) -> "_RecordedShard":
        return _RecordedShard(backend, self)


class _RecordedShard:
    """Awaitable pass-through to one shard that reports to a LegRecorder."""

    def __init__(self, backend: AsyncServiceShard, recorder: LegRecorder) -> None:
        self._backend = backend
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._backend, name)

    async def _leg(self, kind: str, coro: Any) -> Any:
        rec = self._recorder
        if kind == "r":
            rec.read_legs += 1
        else:
            rec.write_legs += 1
        started = rec.clock() if rec.clock else 0.0
        try:
            return await coro
        finally:
            if rec.clock:
                rec.leg_s.append(rec.clock() - started)

    async def steg_put(self, objname: str, uak: bytes, data: bytes) -> None:
        await self._leg("w", self._backend.steg_put(objname, uak, data))

    async def steg_read(self, objname: str, uak: bytes) -> bytes:
        return await self._leg("r", self._backend.steg_read(objname, uak))

    async def steg_read_extent(self, objname: str, uak: bytes, offset: int, length: int) -> bytes:
        return await self._leg(
            "r", self._backend.steg_read_extent(objname, uak, offset, length)
        )


class ClusterRF3(Workload):
    """Blocking cluster client over four in-process shards, replicate N=3 W=2."""

    name = "cluster_rf3"
    why = (
        "32 hidden x 16 KiB, BlockingClusterClient over 4 in-process shards (8 MiB/1 KiB "
        "blocks), replicate N=3 W=2, 1 client, 50% steg_read/50% steg_write: only here fan-out, "
        "first-ack reads, early acks"
    )
    n_objects = 32
    object_size = 16 * KiB
    ops_per_second = 30
    n_shards = 4

    def outer_layer(self) -> str | None:
        return "cluster.coordinator"

    def build(self, seed: int, pace: Callable[[], None]) -> System:
        rng = random.Random(seed)
        stegs, recorders, services = [], [], []
        for index in range(self.n_shards):
            steg, recorder, _ = _volume(
                KiB, 8 * KiB, random.Random(seed * 1000 + index), dummy_size=16 * KiB
            )
            stegs.append(steg)
            recorders.append(recorder)
            services.append(StegFSService(steg))
            pace()
        mkfs_bytes = sum(s.fs.bitmap.allocated_count * s.block_size for s in stegs)
        legs = LegRecorder()
        shards = {
            f"shard-{i}": legs.wrap(AsyncServiceShard(service))
            for i, service in enumerate(services)
        }
        cluster = BlockingClusterClient(
            lambda: AsyncClusterClient(shards, mode="replicate", replication=3, write_quorum=2)
        )
        uaks = _uaks(seed, self.n_users)
        system = System(
            call=_hidden_calls(cluster, uaks),
            devices=recorders,
            stegs=stegs,
            services=services,
            closers=[cluster.close] + [service.close for service in services],
            mkfs_bytes=mkfs_bytes,
            cluster=cluster,
            legs=legs,
            uaks=uaks,
        )
        self.populate(system, rng, pace)
        return system


def stragglers_pending() -> float:
    """Early-acked write legs still draining (0 outside the cluster workload)."""
    return get_registry().gauge("cluster.async.stragglers.pending").value


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (HiddenSmall(), ExtentWire(), PlainWire(), ClusterRF3())
}
