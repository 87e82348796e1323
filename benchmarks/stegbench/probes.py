"""Kernel probes: each layer's public function called directly on fixed inputs.

A probe answers "how fast is this kernel by itself" independently of any
workload, so a change to one kernel shows here first.  Every probe is the
raw median of a few repeats.
"""

from __future__ import annotations

import random
import socket
import statistics
import threading
import time
from typing import Callable

from repro.cluster.fragment import Fragment, decode_fragment, digest_of, encode_fragment
from repro.cluster.ring import HashRing
from repro.crypto.ida import disperse, reconstruct
from repro.crypto.sha256 import sha256
from repro.crypto.vector_aes import ctr_xor_many
from repro.net.protocol import (
    FrameReceiver,
    Response,
    encode_message_vectored,
    sendmsg_all,
)
from repro.obs.metrics import MetricRegistry
from repro.storage.block_device import RamDevice
from repro.storage.journal import Journal

__all__ = ["run_all"]

KiB = 1024
MiB = 1024 * 1024
_FRAME = 128 * KiB


def _median_s(fn: Callable[[], object], repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _sha256() -> float:
    data = random.Random(1).randbytes(4 * KiB)
    return _median_s(lambda: sha256(data), 5) * 1000 / 4


def _ctr() -> float:
    rng = random.Random(2)
    key = rng.randbytes(32)
    nonces = [rng.randbytes(8) for _ in range(256)]
    bodies = [rng.randbytes(4 * KiB - 8) for _ in range(256)]
    return _median_s(lambda: ctr_xor_many(key, nonces, bodies)) * 1000


def _ida() -> tuple[float, float]:
    data = random.Random(3).randbytes(256 * KiB)
    shares = disperse(data, 2, 4)
    spread = _median_s(lambda: disperse(data, 2, 4)) * 1000 * 4
    rebuilt = _median_s(lambda: reconstruct(shares[1:3], 2)) * 1000 * 4
    return spread, rebuilt


def _journal_append() -> float:
    device = RamDevice(KiB, 2048)
    journal = Journal(device, 8, 1024, KiB)
    journal.format()
    rng = random.Random(4)
    writes = [(1200 + i, rng.randbytes(KiB)) for i in range(8)]

    def commits() -> None:
        for _ in range(50):
            journal.append(writes)
        journal.reset()

    return _median_s(commits) * 1000 / 50


def _codec() -> tuple[float, float]:
    payload = random.Random(5).randbytes(MiB)
    frame = Response(request_id=7, value=payload)
    encode = _median_s(lambda: encode_message_vectored(frame, max_frame=_FRAME), 5) * 1000
    left, right = socket.socketpair()
    try:
        receiver = FrameReceiver(max_frame=_FRAME)
        wire = encode_message_vectored(frame, max_frame=_FRAME)

        def send() -> None:
            for buffers in wire:
                sendmsg_all(left, buffers)

        def receive() -> None:
            sender = threading.Thread(target=send)
            sender.start()
            got = receiver.recv_message(right)
            sender.join()
            if len(got.value) != MiB:
                raise AssertionError("codec probe lost bytes")

        decode = _median_s(receive) * 1000
    finally:
        left.close()
        right.close()
    return encode, decode


def _ring() -> float:
    ring = HashRing([f"shard-{i}" for i in range(4)])
    keys = [f"h:0123456789abcdef:obj{i:03d}" for i in range(500)]
    return _median_s(lambda: [ring.nodes_for(key, 3) for key in keys]) * 1e6 / len(keys)


def _fragment() -> float:
    payload = random.Random(6).randbytes(256 * KiB)

    def round_trip() -> None:
        blob = encode_fragment(
            Fragment("replicate", 1, 0, 1, 3, digest_of(payload), payload)
        )
        decode_fragment(blob)

    return _median_s(round_trip) * 1000 * 4


def _registry_inc() -> float:
    counter = MetricRegistry().counter("probe.events")

    def bump() -> None:
        for _ in range(20_000):
            counter.inc()

    return _median_s(bump) * 1e9 / 20_000


def run_all() -> dict[str, tuple[float, str]]:
    """Every probe, by per-layer metric name."""
    spread, rebuilt = _ida()
    encode, decode = _codec()
    return {
        "crypto.sha256_ms_per_kib": (_sha256(), "ms"),
        "crypto.ctr_ms_per_mib": (_ctr(), "ms"),
        "crypto.ida_disperse_ms_per_mib": (spread, "ms"),
        "crypto.ida_reconstruct_ms_per_mib": (rebuilt, "ms"),
        "storage.journal_append_ms_per_commit": (_journal_append(), "ms"),
        "net.encode_ms_per_mib": (encode, "ms"),
        "net.decode_ms_per_mib": (decode, "ms"),
        "cluster.ring_lookup_us": (_ring(), "us"),
        "cluster.fragment_codec_ms_per_mib": (_fragment(), "ms"),
        "obs.registry_inc_ns": (_registry_inc(), "ns"),
    }
