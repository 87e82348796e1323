"""The package roots export what they say, and nothing that is gone."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro
import repro.cluster
import repro.cluster.aio
import repro.cluster.rebalance
import repro.core.blockio
import repro.core.dummy
import repro.core.keys
import repro.core.session
import repro.crypto.kdf
import repro.crypto.modes
import repro.crypto.prng
import repro.crypto.vector_aes
import repro.net.client
import repro.net.protocol
import repro.obs.metrics
import repro.service
import repro.service.locks
import repro.service.service
import repro.storage
import repro.util.serialization
import repro.workload
from repro.errors import InvalidKeyError


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


def test_orphan_packages_are_gone():
    for module in (
        "repro.vfs",
        "repro.db",
        "repro.workload.live",
        "repro.workload.metrics",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    for name in (
        "VFS",
        "HiddenKVStore",
        "run_live_clients",
        "run_remote_clients",
        "OpMix",
        "summarize",
    ):
        assert not hasattr(repro, name)
        assert not hasattr(repro.workload, name)
    # An instance attribute, so ask the class body: one session table.
    assert "_tokens" not in inspect.getsource(repro.StegFSServer)
    assert "durable" not in inspect.signature(repro.StegFSService).parameters


def test_one_lock_per_volume():
    assert not hasattr(repro.service, "LockStripes")
    assert not hasattr(repro.service.locks, "LockStripes")
    assert "n_stripes" not in inspect.signature(repro.StegFSService).parameters
    for name in ("_plain_key", "_hidden_key", "_session_key", "_durable_window", "dispatch"):
        assert not hasattr(repro.StegFSService, name)
    # One route to each number, and no name without a caller.
    assert not hasattr(repro.service.service, "StatsSnapshot")
    assert not hasattr(repro.service.ServiceStats, "total_ops")
    assert "journal_source" not in inspect.getsource(repro.service.ServiceStats)
    assert not hasattr(repro.service.SessionManager, "register_user")
    assert not hasattr(repro.service.SessionManager, "active_ids")
    assert not hasattr(repro.core.session.Session, "is_connected")
    assert not hasattr(repro.core.session.Session, "listdir")
    assert not hasattr(repro.obs.metrics, "median")
    assert not hasattr(repro.util.serialization.Reader, "position")
    for purpose in ("directory", "pool", "level", "share", "backup"):
        with pytest.raises(InvalidKeyError):
            repro.crypto.kdf.subkey(bytes(32), purpose)


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


def test_one_object_path_through_the_cluster():
    aio = repro.cluster.aio
    for name in (
        "fetch_plain",
        "fetch_hidden",
        "store_plain_at",
        "store_hidden_at",
        "purge_plain",
        "purge_hidden",
        "_plain_put",
        "_hidden_put",
        "_plain_probe",
        "_hidden_probe",
        "_store_hidden",
    ):
        assert not hasattr(aio.AsyncClusterClient, name)
    for name in ("plain", "hidden", "fetch", "store_at", "purge"):
        assert name in vars(aio.AsyncClusterClient)
    # The coordinator's ``exists`` is a read; no shard verb backs it.
    assert not hasattr(aio.AsyncShardBackend, "exists")
    assert not hasattr(aio._ShardVerbs, "exists")
    # Definition + one call: the write path is written once.
    assert inspect.getsource(aio).count("_resolve_write_version(") == 2
    assert "uak is None" not in inspect.getsource(repro.cluster.rebalance)


def test_dead_crypto_modes_are_gone():
    for name in (
        "BlockSealer",
        "cbc_decrypt",
        "cbc_encrypt",
        "ctr_decrypt",
        "ctr_encrypt",
        "pkcs7_pad",
        "pkcs7_unpad",
    ):
        assert not hasattr(repro.crypto, name)
        assert not hasattr(repro.crypto.modes, name)
    assert repro.crypto.modes.__all__ == ["random_looking"]


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


def test_one_digest_policy():
    """SHA-256 / HMAC reach product code through ``repro.crypto`` only.

    The compiled digests sit behind ``repro.crypto.sha256`` and
    ``repro.crypto.hmac``; the from-scratch ``SHA256`` class and RFC 2104
    construction are references for the tests.  Nothing selects between them.
    """
    package = Path(repro.__file__).parent
    references = {"SHA256", "_compress", "reference_hmac_sha256"}
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        where = path.relative_to(package).as_posix()
        assert "REPRO_CRYPTO" not in source, where
        if where.startswith("crypto/"):
            assert "backend" not in source.lower(), where
            assert "environ" not in source and "getenv" not in source, where
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules, names = [alias.name for alias in node.names], []
            elif isinstance(node, ast.ImportFrom):
                modules, names = [node.module or ""], [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("hashlib", "hmac"), (where, node.lineno)
                if module.startswith("repro.crypto"):
                    assert not references & set(names), (where, node.lineno)
    assert not hasattr(repro, "SHA256")
    assert not hasattr(repro.crypto.vector_aes.VectorAES, "_mix_columns")


def test_stegbench_patch_sites_resolve_and_bite(monkeypatch):
    # benchmarks/stegbench/layers.py times these by replacing the attribute
    # at the importing module, so each must exist there and be called
    # through that module's globals.
    blockio, kdf, prng = repro.core.blockio, repro.crypto.kdf, repro.crypto.prng
    for module, name in (
        (blockio, "ctr_xor"),
        (blockio, "ctr_xor_many"),
        (blockio, "ctr_xor_pad"),
        (blockio, "ctr_xor_concat"),
        (repro.core.keys, "subkey"),
        (repro.core.dummy, "subkey"),
        (kdf, "hmac_sha256"),
        (prng, "sha256"),
        # The package re-exports the function over the submodule's name.
        (importlib.import_module("repro.crypto.sha256"), "sha256"),
        (repro.crypto.vector_aes, "ctr_xor_many"),
    ):
        assert callable(vars(module)[name]), (module.__name__, name)
    calls: list[str] = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for module, name in ((kdf, "hmac_sha256"), (prng, "sha256")):
        monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    repro.core.keys.ObjectKeys.derive("owner:name", bytes(32))
    prng.HashChainPRNG(b"seed").read(64)
    assert calls.count("hmac_sha256") == 3 and calls.count("sha256") >= 2
