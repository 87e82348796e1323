"""Durable remote acks: an acknowledged write survives server death.

The end-to-end promise the op registry + group commit give `repro.net`
clients for free: once the server acknowledges a mutation, the write is in
the fsynced journal — killing the server process (no shutdown, no flush)
and remounting the *durable-only* disk state must still produce the data.
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.net.client import StegFSClient
from repro.net.server import start_in_thread
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice
from repro.storage.crash import CrashInjectionDevice

USER = "carol"
UAK = b"K" * 32
BS = 512
TOTAL = 4096


@pytest.fixture
def crash_device() -> CrashInjectionDevice:
    return CrashInjectionDevice(BS, TOTAL, seed=17)


@pytest.fixture
def durable_service(crash_device):
    steg = StegFS.mkfs(
        crash_device,
        params=StegFSParams.for_tests(),
        inode_count=64,
        rng=random.Random(13),
        auto_flush=True,  # durable volume → service defaults to group commit
    )
    service = StegFSService(steg, max_workers=4)
    yield service
    if not service.closed:
        service.close()


class TestDurableAckOverLiveSocket:
    def test_acked_remote_write_survives_server_kill_and_remount(
        self, crash_device, durable_service
    ):
        payload = random.Random(99).randbytes(3000)
        plain_payload = random.Random(98).randbytes(1200)
        with start_in_thread(
            durable_service, credentials={USER: UAK}
        ) as handle:
            with StegFSClient(*handle.address, pool_size=1) as client:
                client.login(USER, UAK)
                client.steg_create("wal-proof", data=payload)
                client.create("/plain-proof", plain_payload)
                # The acks above are durable: capture what is on "disk"
                # *right now*, counting only fsynced bytes — exactly what a
                # kill -9 of the server host would leave behind.
                durable = crash_device.durable_image()
            handle.stop(timeout=5.0)  # abrupt: no service close, no flush

        twin = RamDevice(BS, TOTAL)
        twin._data[:] = durable
        recovered = StegFS.mount(
            twin, params=StegFSParams.for_tests(), rng=random.Random(14)
        )
        assert recovered.steg_read("wal-proof", UAK) == payload
        assert recovered.read("/plain-proof") == plain_payload

    def test_service_close_restores_volume_durability(self, durable_service):
        """A durable service borrows the manager (sync_on_commit=False);
        close() must hand the auto-flush volume back fsync-per-mutation."""
        steg = durable_service.steg
        assert steg.txn.sync_on_commit is False  # group-commit mode
        durable_service.close()
        assert steg.txn.sync_on_commit is True  # auto_flush contract back

    def test_journal_metrics_flow_to_snapshot(self, durable_service):
        with start_in_thread(
            durable_service, credentials={USER: UAK}
        ) as handle:
            with StegFSClient(*handle.address, pool_size=1) as client:
                client.login(USER, UAK)
                client.steg_create("metered", data=b"m" * 600)
        journal = durable_service.steg.txn.stats.snapshot()
        assert journal.commits >= 1
        assert journal.fsyncs >= 1  # the durable ack forced a barrier
        assert durable_service.stats.snapshot()["steg_create"].count == 1
