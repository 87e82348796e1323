"""Service op registry, name dispatch, and latency-percentile stats."""

from __future__ import annotations

import pytest

from repro.errors import UnknownOperationError
from repro.service.registry import OpSpec, build_registry, lookup, service_op
from repro.service.service import ServiceStats, StegFSService


class TestRegistryContents:
    def test_every_public_op_registered(self, service):
        expected = {
            "create", "read", "write", "append", "unlink", "mkdir", "rmdir",
            "listdir", "exists", "stat",
            "steg_create", "steg_read", "steg_read_extent", "steg_write",
            "steg_write_extent", "steg_update", "steg_delete", "steg_list",
            "steg_hide", "steg_unhide", "steg_revoke",
            "open_session", "close_session", "connect", "disconnect",
            "connected_names", "session_read", "session_write",
            "flush", "dummy_tick",
            "obs_metrics", "obs_slowlog", "obs_trace", "obs_events",
            "obs_snapshot", "obs_deniability",
        }
        assert set(StegFSService.OPS) == expected

    def test_hidden_ops_inject_uak_and_hide_it_from_the_wire(self):
        for name, spec in StegFSService.OPS.items():
            if spec.kind == "hidden":
                assert spec.injects == "uak", name
                assert "uak" not in spec.params, name

    def test_session_ops_inject_session_id(self):
        for name, spec in StegFSService.OPS.items():
            if spec.kind == "session" and name != "open_session":
                assert spec.injects == "session_id", name
                assert "session_id" not in spec.params, name

    def test_raw_credential_ops_are_local_only(self):
        # steg_update carries a callable, open_session a raw UAK: neither
        # may be callable over the wire.
        assert not StegFSService.OPS["steg_update"].remote
        assert not StegFSService.OPS["open_session"].remote
        assert not StegFSService.OPS["close_session"].remote

    def test_params_preserve_signature_order(self):
        assert StegFSService.OPS["steg_create"].params == (
            "objname", "objtype", "data", "owner",
        )
        assert StegFSService.OPS["steg_hide"].params == ("pathname", "objname")
        # uak is first in the real signature; injection must not shift
        # what the wire sends.
        assert StegFSService.OPS["steg_list"].params == ("objname",)


class TestDispatch:
    def test_dispatch_routes_by_name(self, service, uak):
        service.submit("steg_create", "doc", uak, data=b"via registry").result()
        assert service.submit("steg_read", "doc", uak).result() == b"via registry"

    def test_dispatch_unknown_op_is_typed_error(self, service):
        with pytest.raises(UnknownOperationError):
            service.submit("stegg_read", "doc")

    def test_submit_rejects_unregistered_names(self, service):
        # A private method is an attribute, but not an operation.
        with pytest.raises(UnknownOperationError):
            service.submit("_exclusive")

    def test_submit_still_accepts_callables(self, service):
        assert service.submit(lambda: 41 + 1).result() == 42

    def test_lookup_helper_names_known_ops(self):
        with pytest.raises(UnknownOperationError) as caught:
            lookup(StegFSService.OPS, "nope")
        assert "steg_read" in str(caught.value)


class TestDecorator:
    def test_build_registry_collects_markers(self):
        class Fake:
            @service_op("plain", mutates=True)
            def do_thing(self, path: str, data: bytes = b"") -> None:
                pass

            def unregistered(self) -> None:
                pass

        registry = build_registry(Fake)
        assert set(registry) == {"do_thing"}
        spec = registry["do_thing"]
        assert spec == OpSpec(
            name="do_thing", kind="plain", mutates=True, injects=None,
            params=("path", "data"), remote=True,
        )

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            service_op("bogus", mutates=False)

    def test_missing_inject_param_rejected(self):
        with pytest.raises(ValueError):
            class Broken:
                @service_op("hidden", mutates=False, injects="uak")
                def no_uak_here(self, objname: str) -> None:
                    pass

            build_registry(Broken)


class TestStatsPercentiles:
    def test_percentiles_from_known_samples(self):
        stats = ServiceStats()
        for ms in range(1, 101):                     # 1..100 ms, one each
            stats.record("op", ms / 1000.0, failed=False)
        snap = stats.snapshot()["op"]
        assert snap.count == 100
        assert snap.p50_ms == pytest.approx(50.0, abs=1.5)
        assert snap.p95_ms == pytest.approx(95.0, abs=1.5)
        assert snap.p99_ms == pytest.approx(99.0, abs=1.5)
        assert snap.p50_ms <= snap.p95_ms <= snap.p99_ms

    def test_empty_op_percentiles_are_zero(self):
        stats = ServiceStats()
        stats.record("op", 0.001, failed=False)
        snap = stats.snapshot()["op"]
        assert snap.percentile_ms(50.0) > 0
        from repro.service.service import OpStats

        empty = OpStats(count=0, errors=0, total_s=0.0)
        assert empty.p50_ms == 0.0 and empty.p99_ms == 0.0

    def test_reservoir_stays_bounded(self):
        stats = ServiceStats(reservoir_size=64)
        for i in range(10_000):
            stats.record("op", 0.001 * (i % 10 + 1), failed=False)
        snap = stats.snapshot()["op"]
        assert snap.count == 10_000
        assert len(snap.samples_ms) == 64
        assert snap.samples_ms == tuple(sorted(snap.samples_ms))
        # The reservoir is an unbiased sample of a 1..10 ms distribution.
        assert 1.0 <= snap.p50_ms <= 10.0

    def test_service_surfaces_percentiles(self, service, uak):
        service.steg_create("p", uak, data=b"x" * 2048)
        for _ in range(20):
            service.steg_read("p", uak)
        snap = service.stats.snapshot()["steg_read"]
        assert snap.count == 20
        assert 0 < snap.p50_ms <= snap.p95_ms <= snap.p99_ms
        assert snap.mean_ms > 0
