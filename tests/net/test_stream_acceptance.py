"""Acceptance: a hidden file of 4 × ``max_frame`` end to end.

The bar for the streaming data path: one payload four times the
wire-frame cap must write and read back byte-identical through every
client — blocking, async, and IDA-mode cluster — while the obs spans
emitted along the way still stitch into a single trace tree.  Every
server and client is handed a 256 KiB cap, so 1 MiB crosses as the same
CHUNK runs 32 MiB does at the default; the default-cap boundary sizes
are ``test_stream_roundtrip.py``'s and ``test_stream_protocol.py``'s.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np

from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.net.client import AsyncStegFSClient, StegFSClient
from repro.net.server import start_in_thread
from repro.obs.cluster import stitch_trace
from repro.obs.trace import root_span
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

USER = "alice"
UAK = b"A" * 32

MAX_FRAME = 256 * 1024
SIZE = 4 * MAX_FRAME  # 1 MiB


def _payload() -> bytes:
    rng = np.random.default_rng(20030217)  # ICDE 2003, why not
    return rng.integers(0, 256, SIZE, dtype=np.uint8).tobytes()


def _make_service(seed: int, *, total_blocks: int) -> StegFSService:
    steg = StegFS.mkfs(
        RamDevice(block_size=8192, total_blocks=total_blocks),
        params=StegFSParams.for_tests(),
        inode_count=64,
        rng=random.Random(seed),
        auto_flush=False,
    )
    return StegFSService(steg, max_workers=4)


def _assert_one_tree(stitched: dict, trace_id: str) -> None:
    spans = stitched["spans"]
    assert spans, "the workload must have produced spans"
    assert stitched["trace_id"] == trace_id
    ids = {s["span_id"] for s in spans}
    roots = [s for s in spans if not s.get("parent_id")]
    assert len(roots) == 1, f"expected one root, got {[s['name'] for s in roots]}"
    for span in spans:
        parent = span.get("parent_id")
        assert parent is None or parent in ids, (
            f"span {span['name']} dangles from unknown parent {parent}"
        )


def _serve(service: StegFSService):
    return start_in_thread(service, credentials={USER: UAK}, max_frame=MAX_FRAME)


def test_four_frame_roundtrip_through_every_client():
    payload = _payload()

    # Three independent volumes: one per client flavor, plus four shard
    # volumes for the IDA legs (each holds a two-frame share).
    sync_svc = _make_service(101, total_blocks=512)
    async_svc = _make_service(102, total_blocks=512)
    shard_svcs = [_make_service(200 + i, total_blocks=256) for i in range(4)]
    handles = []
    try:
        sync_srv = _serve(sync_svc)
        handles.append(sync_srv)
        async_srv = _serve(async_svc)
        handles.append(async_srv)
        shard_srvs = []
        for svc in shard_svcs:
            h = _serve(svc)
            handles.append(h)
            shard_srvs.append(h)

        with root_span("acceptance.stream4") as span:
            trace_id = span.trace_id

            # -- blocking client ---------------------------------------
            with StegFSClient(*sync_srv.address, max_frame=MAX_FRAME) as sync_client:
                sync_client.login(USER, UAK)
                sync_client.steg_create("big", data=payload)
                assert sync_client.steg_read("big") == payload
                streamed = b"".join(sync_client.steg_read_stream("big"))
                assert streamed == payload

            # -- async client ------------------------------------------
            async def async_leg():
                host, port = async_srv.address
                async with AsyncStegFSClient(host, port, max_frame=MAX_FRAME) as c:
                    await c.login(USER, UAK)
                    await c.steg_create("big", data=payload)
                    return await c.steg_read("big")

            assert asyncio.run(async_leg()) == payload

            # -- IDA-mode cluster client -------------------------------
            async def cluster_leg():
                from repro.cluster.aio import (
                    MODE_IDA,
                    AsyncClusterClient,
                    AsyncRemoteShard,
                )

                shards = {}
                for i, h in enumerate(shard_srvs):
                    client = AsyncStegFSClient(*h.address, max_frame=MAX_FRAME)
                    await client.open()
                    await client.login(USER, UAK)
                    shards[f"s{i}"] = AsyncRemoteShard(client, UAK)
                cluster = AsyncClusterClient(
                    shards, mode=MODE_IDA, ida_m=2, ida_n=4, owns_backends=True
                )
                try:
                    await cluster.steg_create("big", UAK, data=payload)
                    return await cluster.steg_read("big", UAK)
                finally:
                    await cluster.close()

            assert asyncio.run(cluster_leg()) == payload

        # -- spans stitch to one tree ----------------------------------
        # Every server runs in this process, but the stitch pulls over
        # the wire anyway — the same path a real deployment uses.
        obs_clients = [StegFSClient(*h.address, max_frame=MAX_FRAME) for h in handles]
        try:
            stitched = stitch_trace(trace_id, obs_clients)
            _assert_one_tree(stitched, trace_id)
        finally:
            for c in obs_clients:
                c.close()
    finally:
        for h in handles:
            h.stop()
        for svc in [sync_svc, async_svc, *shard_svcs]:
            if not svc.closed:
                svc.close()
