"""Unit coverage: the failure detector and the fragment envelope codec."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.fragment import (
    HEADER_LEN,
    MODE_IDA,
    MODE_REPLICATE,
    Fragment,
    decode_fragment,
    decode_header,
    digest_of,
    encode_fragment,
)
from repro.cluster.health import HealthMonitor, ShardState
from repro.errors import ClusterError, FragmentFormatError


class TestHealthMonitor:
    def test_unknown_shards_default_alive(self):
        monitor = HealthMonitor()
        assert monitor.is_alive("anything")

    def test_threshold_marks_dead(self):
        monitor = HealthMonitor(failure_threshold=3)
        monitor.register("s")
        monitor.record_failure("s")
        monitor.record_failure("s")
        assert monitor.is_alive("s")
        monitor.record_failure("s")
        assert not monitor.is_alive("s")

    def test_success_resets_streak_and_revives(self):
        monitor = HealthMonitor(failure_threshold=2)
        monitor.register("s")
        monitor.record_failure("s")
        monitor.record_success("s")
        monitor.record_failure("s")
        assert monitor.is_alive("s")
        monitor.record_failure("s")
        assert not monitor.is_alive("s")
        monitor.record_success("s")
        assert monitor.is_alive("s")

    def test_alive_of_preserves_order(self):
        monitor = HealthMonitor()
        for sid in ("a", "b", "c"):
            monitor.register(sid)
        monitor.mark_dead("b")
        assert monitor.alive_of(("c", "b", "a")) == ["c", "a"]

    def test_probe_all_only_touches_dead_shards(self):
        calls: list[str] = []

        class Pingable:
            def __init__(self, name: str, ok: bool) -> None:
                self.name, self.ok = name, ok

            async def ping(self) -> bool:
                calls.append(self.name)
                if not self.ok:
                    raise ConnectionError("down")
                return True

        monitor = HealthMonitor()
        backends = {"up": Pingable("up", True), "down": Pingable("down", False)}
        monitor.register("up")
        monitor.register("down")
        monitor.mark_dead("down")
        results = asyncio.run(monitor.probe_all_async(backends))
        assert calls == ["down"]
        assert results == {"down": False}
        assert monitor.state_of("down") is ShardState.DEAD

    def test_probe_revives_recovered_shard(self):
        class Pingable:
            async def ping(self) -> bool:
                return True

        monitor = HealthMonitor()
        monitor.register("s")
        monitor.mark_dead("s")
        assert asyncio.run(monitor.probe_all_async({"s": Pingable()})) == {"s": True}
        assert monitor.is_alive("s")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ClusterError):
            HealthMonitor(failure_threshold=0)

    def test_snapshot_counts(self):
        monitor = HealthMonitor()
        monitor.register("s")
        monitor.record_success("s")
        monitor.record_failure("s")
        snap = monitor.snapshot()
        assert snap["s"].successes == 1
        assert snap["s"].failures == 1


class TestFragmentCodec:
    def test_roundtrip_replicate(self):
        fragment = Fragment(
            mode=MODE_REPLICATE,
            version=7,
            index=0,
            m=1,
            n=3,
            digest=digest_of(b"data"),
            payload=b"data",
        )
        assert decode_fragment(encode_fragment(fragment)) == fragment

    def test_roundtrip_ida_share(self):
        fragment = Fragment(
            mode=MODE_IDA,
            version=1 << 40,
            index=3,
            m=2,
            n=4,
            digest=digest_of(b"whole object"),
            payload=b"\x01\x02\x03",
        )
        decoded = decode_fragment(encode_fragment(fragment))
        assert decoded.mode == MODE_IDA
        assert decoded.version == 1 << 40
        assert decoded.index == 3
        assert (decoded.m, decoded.n) == (2, 4)

    def test_header_probe_carries_declared_length(self):
        blob = encode_fragment(
            Fragment(
                mode=MODE_REPLICATE,
                version=2,
                index=0,
                m=1,
                n=2,
                digest=digest_of(b"x" * 100),
                payload=b"x" * 100,
            )
        )
        header = decode_header(blob[:HEADER_LEN])
        assert header.declared_length == 100
        assert header.version == 2
        assert header.payload == b""

    def test_bad_magic_rejected(self):
        blob = bytearray(
            encode_fragment(
                Fragment(MODE_REPLICATE, 1, 0, 1, 1, digest_of(b""), b"")
            )
        )
        blob[0] ^= 0xFF
        with pytest.raises(FragmentFormatError):
            decode_header(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = encode_fragment(
            Fragment(MODE_REPLICATE, 1, 0, 1, 1, digest_of(b"abcd"), b"abcd")
        )
        with pytest.raises(FragmentFormatError):
            decode_fragment(blob[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(FragmentFormatError):
            decode_header(b"SFC1")

    def test_unknown_mode_rejected_both_ways(self):
        with pytest.raises(FragmentFormatError):
            encode_fragment(Fragment("mirror", 1, 0, 1, 1, digest_of(b""), b""))
        blob = bytearray(
            encode_fragment(Fragment(MODE_IDA, 1, 0, 2, 2, digest_of(b""), b""))
        )
        blob[4] = 0x5A
        with pytest.raises(FragmentFormatError):
            decode_header(bytes(blob))
