"""Acceptance: the telemetry plane over a live mixed-transport cluster.

A four-shard cluster — two shards behind real TCP ``StegFSServer``
instances via :class:`AsyncRemoteShard`, two embedded via
:class:`AsyncServiceShard` — serves a hidden-file workload while a
:class:`TelemetryCollector` scrapes every shard plus the coordinator's
own process through ``BlockingClusterClient.scrape_targets()``.  Three
claims:

* **attribution** — per-shard labeled read rates, integrated over the
  scrape window, sum exactly to the coordinator's own read counter
  (replication=1, so each cluster read is exactly one shard leg);
* **alerting** — stopping a real server raises a ``dead_shard`` alert
  within two scrape sweeps, and restarting it on the same port clears
  the alert;
* **stitching** — one traced cluster write assembles into a single span
  tree whose only root is the client's root span, with coordinator
  fan-out legs and shard-side service spans all parenting into it.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.aio import (
    AsyncClusterClient,
    AsyncRemoteShard,
    AsyncServiceShard,
    BlockingClusterClient,
)
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.net.server import start_in_thread
from repro.obs.cluster import TelemetryCollector
from repro.obs.trace import get_tracer, root_span
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

USER = "alice"
UAK = b"A" * 32


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, by: float) -> None:
        self.now += by


def _service(seed: int) -> StegFSService:
    steg = StegFS.mkfs(
        RamDevice(block_size=512, total_blocks=8192),
        params=StegFSParams.for_tests(),
        inode_count=128,
        rng=random.Random(seed),
        auto_flush=False,
    )
    return StegFSService(steg, max_workers=4)


@pytest.fixture
def telemetry_cluster():
    """(cluster, collector, clock, handles, services) over 4 mixed shards."""
    get_tracer().set_sample_rate(1.0)
    services = [_service(61 + i) for i in range(4)]
    handles = [
        start_in_thread(services[0], credentials={USER: UAK}),
        start_in_thread(services[1], credentials={USER: UAK}),
    ]

    async def factory() -> AsyncClusterClient:
        shards = {
            "remote-0": await AsyncRemoteShard.connect(
                *handles[0].address, user_id=USER, uak=UAK
            ),
            "remote-1": await AsyncRemoteShard.connect(
                *handles[1].address, user_id=USER, uak=UAK
            ),
            "local-0": AsyncServiceShard(services[2], owns_service=True),
            "local-1": AsyncServiceShard(services[3], owns_service=True),
        }
        return AsyncClusterClient(
            shards, replication=1, write_quorum=1, owns_backends=True
        )

    cluster = BlockingClusterClient(factory)
    clock = FakeClock()
    collector = TelemetryCollector(
        cluster.scrape_targets(),
        interval_s=1.0,
        health=cluster.health,
        clock=clock,
    )
    yield cluster, collector, clock, handles, services
    cluster.close()
    for handle in handles:
        handle.stop()
    for service in services:
        if not service.closed:
            service.close()


@pytest.mark.slow
class TestClusterTelemetryE2E:
    def test_labeled_shard_rates_sum_to_coordinator_op_count(
        self, telemetry_cluster
    ):
        cluster, collector, clock, _handles, _services = telemetry_cluster
        collector.scrape_once()  # baseline sweep at t0

        for i in range(10):
            cluster.steg_create(f"obj-{i}", UAK, data=f"payload {i}".encode() * 16)
        for i in range(10):
            cluster.steg_read(f"obj-{i}", UAK)
        for i in range(0, 10, 2):
            cluster.steg_read(f"obj-{i}", UAK)

        window = 10.0
        clock.advance(window)
        view = collector.scrape_once()

        # All five targets answered (4 shards + the coordinator process).
        assert set(view.states()) == {
            "remote-0",
            "remote-1",
            "local-0",
            "local-1",
            "_coordinator",
        }
        assert all(state == "alive" for state in view.states().values())

        coordinator_reads = cluster.stats.snapshot()["async.reads"]
        assert coordinator_reads == 15
        summed = sum(
            collector.ring(sid).rate("shard.op.steg_read.count") * window
            for sid in collector.shard_ids
        )
        # replication=1: every cluster read is exactly one shard steg_read,
        # so the per-shard labeled rates integrate back to the
        # coordinator's own op count.
        assert summed == pytest.approx(coordinator_reads)

        # The traffic really was spread across transports: at least one
        # remote and one embedded shard served reads.
        per_shard = {
            sid: collector.ring(sid).rate("shard.op.steg_read.count") * window
            for sid in collector.shard_ids
        }
        assert sum(v for s, v in per_shard.items() if s.startswith("remote")) > 0
        assert sum(v for s, v in per_shard.items() if s.startswith("local")) > 0

    def test_dead_shard_alert_fires_within_two_sweeps_and_clears_on_revival(
        self, telemetry_cluster
    ):
        cluster, collector, clock, handles, services = telemetry_cluster
        collector.scrape_once()
        assert collector.alerts() == []

        # Kill one real server process mid-flight.
        dead_port = handles[0].address[1]
        handles[0].stop()

        fired_after = None
        for sweep in range(1, 3):
            clock.advance(1.0)
            view = collector.scrape_once()
            dead = [
                a for a in view.alerts
                if a.rule == "dead_shard" and a.shard == "remote-0"
            ]
            if dead:
                fired_after = sweep
                break
        assert fired_after is not None and fired_after <= 2, (
            "dead_shard alert did not fire within two scrape intervals"
        )
        assert view.states()["remote-0"] in ("unreachable", "dead")

        # Revive the server on the same port; the shard's pooled client
        # redials, and the alert must clear.
        handles[0] = start_in_thread(
            services[0], port=dead_port, credentials={USER: UAK}
        )
        for _ in range(4):
            clock.advance(1.0)
            view = collector.scrape_once()
            if not view.alerts:
                break
        assert view.alerts == [], [a.to_dict() for a in view.alerts]
        assert view.states()["remote-0"] == "alive"

    def test_traced_cluster_write_stitches_into_one_tree(
        self, telemetry_cluster
    ):
        cluster, collector, _clock, _handles, _services = telemetry_cluster
        with root_span("client.request") as root:
            cluster.steg_create("traced-obj", UAK, data=b"traced payload " * 32)
            trace_id = root.trace_id

        document = collector.stitch_trace(trace_id)
        spans = document["spans"]
        assert document["trace_id"] == trace_id
        assert spans, "the stitched trace is empty"

        ids = [span["span_id"] for span in spans]
        assert len(ids) == len(set(ids)), "stitching did not deduplicate"

        by_id = {span["span_id"]: span for span in spans}
        roots = [
            span
            for span in spans
            if span["parent_id"] is None or span["parent_id"] not in by_id
        ]
        assert [span["name"] for span in roots] == ["client.request"]

        names = {span["name"] for span in spans}
        assert any(name.startswith("cluster.") for name in names), names
        assert any(name.startswith("service.") for name in names), names

        # Every shard leg's parent chain bottoms out at the client root.
        root_id = roots[0]["span_id"]
        for span in spans:
            node = span
            hops = 0
            while node["parent_id"] is not None and node["parent_id"] in by_id:
                node = by_id[node["parent_id"]]
                hops += 1
                assert hops < 64, "parent cycle"
            assert node["span_id"] == root_id, (
                f"span {span['name']} does not reach the client root"
            )
