"""The package roots export what they say, and nothing that is gone."""

from __future__ import annotations

import importlib

import pytest

import repro
import repro.cluster
import repro.net.client
import repro.net.protocol
import repro.storage


@pytest.mark.parametrize("package", [repro, repro.cluster], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing
    assert len(set(package.__all__)) == len(package.__all__)


def test_threaded_cluster_plane_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.cluster.coordinator")
    for name in ("ClusterClient", "RemoteShard", "ServiceShard", "ShardBackend"):
        assert not hasattr(repro, name)
        assert not hasattr(repro.cluster, name)


def test_one_wire_client():
    for name in (
        "write_message",
        "iter_wire_frames",
        "recv_frame",
        "send_frame",
        "send_message",
        "_recv_exactly",
    ):
        assert not hasattr(repro.net.protocol, name)
    client = repro.net.client
    assert not hasattr(client.StegFSClient, "_exchange")
    assert not hasattr(client.AsyncStegFSClient, "_reader_task")
    for verb in (n for n, spec in repro.StegFSService.OPS.items() if spec.remote):
        assert verb in vars(client._WireVerbs)
        assert verb not in vars(client.StegFSClient)
        assert verb not in vars(client.AsyncStegFSClient)


def test_retired_measurement_estate_is_gone():
    for module in (
        "batch_io",
        "stream_path",
        "durability",
        "service_throughput",
        "net_throughput",
        "cluster_throughput",
        "obs_overhead",
        "collector_overhead",
        "detectability",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.bench.{module}")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.storage.latency")
    assert not hasattr(repro, "LatencyDevice")
    assert not hasattr(repro.storage, "LatencyDevice")
