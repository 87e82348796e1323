"""StegFSService: operation surface, futures, sessions, stats."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    HiddenObjectNotFoundError,
    NotConnectedError,
    ServiceClosedError,
    SessionAuthError,
)
from repro.service.service import StegFSService


class TestPlainOps:
    def test_create_read_write_roundtrip(self, service):
        service.mkdir("/docs")
        service.create("/docs/a.txt", b"one")
        assert service.read("/docs/a.txt") == b"one"
        service.write("/docs/a.txt", b"two")
        service.append("/docs/a.txt", b" three")
        assert service.read("/docs/a.txt") == b"two three"
        assert service.listdir("/docs") == ["a.txt"]
        assert service.stat("/docs/a.txt").size == 9
        service.unlink("/docs/a.txt")
        service.rmdir("/docs")
        assert not service.exists("/docs")


class TestHiddenOps:
    def test_steg_lifecycle(self, service, uak):
        service.steg_create("secret", uak, data=b"payload")
        assert service.steg_read("secret", uak) == b"payload"
        service.steg_write("secret", uak, b"updated")
        assert service.steg_read("secret", uak) == b"updated"
        assert service.steg_list(uak) == ["secret"]
        service.steg_delete("secret", uak)
        with pytest.raises(HiddenObjectNotFoundError):
            service.steg_read("secret", uak)

    def test_steg_update_applies_function(self, service, uak):
        service.steg_create("counter", uak, data=b"41")
        written = service.steg_update(
            "counter", uak, lambda cur: str(int(cur) + 1).encode()
        )
        assert written == b"42"
        assert service.steg_read("counter", uak) == b"42"

    def test_steg_update_none_skips_write(self, service, uak):
        service.steg_create("doc", uak, data=b"keep")
        assert service.steg_update("doc", uak, lambda cur: None) is None
        assert service.steg_read("doc", uak) == b"keep"

    def test_hide_and_unhide_cross_namespace(self, service, uak):
        service.create("/visible.txt", b"sensitive")
        service.steg_hide("/visible.txt", "stashed", uak)
        assert not service.exists("/visible.txt")
        assert service.steg_read("stashed", uak) == b"sensitive"
        service.steg_unhide("/back.txt", "stashed", uak)
        assert service.read("/back.txt") == b"sensitive"
        with pytest.raises(HiddenObjectNotFoundError):
            service.steg_read("stashed", uak)

    def test_steg_revoke_rekeys_object(self, service, uak):
        service.steg_create("shared", uak, data=b"v1")
        service.steg_revoke("shared", uak)
        assert service.steg_read("shared", uak) == b"v1"

    def test_steg_update_is_atomic_against_a_write(self, service, uak, monkeypatch):
        """A write to the object arriving while ``fn`` computes waits for
        the update, then lands after it: both writes reach the volume."""
        service.steg_create("doc", uak, data=b"a")
        landed: list[bytes] = []
        facade_write = service.steg.steg_write

        def logged_write(objname, key, data):
            landed.append(data)
            facade_write(objname, key, data)

        monkeypatch.setattr(service.steg, "steg_write", logged_write)
        computing, release = threading.Event(), threading.Event()

        def append_b(current: bytes) -> bytes:
            computing.set()
            assert release.wait(timeout=10)
            return current + b"b"

        update = service.submit("steg_update", "doc", uak, append_b)
        assert computing.wait(timeout=10)
        write = service.submit("steg_write", "doc", uak, b"w")
        time.sleep(0.1)
        assert not write.done()                          # held off by the update
        release.set()
        assert update.result(timeout=10) == b"ab"
        write.result(timeout=10)
        assert landed == [b"ab", b"w"]
        assert service.steg_read("doc", uak) == b"w"


class TestVolumeLock:
    """Every object op takes the one volume lock exactly once, exclusive
    iff it mutates: the lock-mode contract a replayed trace relies on."""

    CALLS = {
        "mkdir": lambda s, u, sid: s.mkdir("/d"),
        "create": lambda s, u, sid: s.create("/d/f", b"x"),
        "read": lambda s, u, sid: s.read("/d/f"),
        "write": lambda s, u, sid: s.write("/d/f", b"y"),
        "append": lambda s, u, sid: s.append("/d/f", b"z"),
        "listdir": lambda s, u, sid: s.listdir("/d"),
        "exists": lambda s, u, sid: s.exists("/d/f"),
        "stat": lambda s, u, sid: s.stat("/d/f"),
        "steg_hide": lambda s, u, sid: s.steg_hide("/d/f", "hid", u),
        "steg_unhide": lambda s, u, sid: s.steg_unhide("/d/g", "hid", u),
        "unlink": lambda s, u, sid: s.unlink("/d/g"),
        "rmdir": lambda s, u, sid: s.rmdir("/d"),
        "steg_create": lambda s, u, sid: s.steg_create("doc", u, data=b"0"),
        "steg_read": lambda s, u, sid: s.steg_read("doc", u),
        "steg_read_extent": lambda s, u, sid: s.steg_read_extent("doc", u, 0, 1),
        "steg_write": lambda s, u, sid: s.steg_write("doc", u, b"1"),
        "steg_write_extent": lambda s, u, sid: s.steg_write_extent("doc", u, 0, b"2"),
        "steg_update": lambda s, u, sid: s.steg_update("doc", u, lambda cur: cur + b"3"),
        "steg_list": lambda s, u, sid: s.steg_list(u),
        "steg_revoke": lambda s, u, sid: s.steg_revoke("doc", u),
        "connect": lambda s, u, sid: s.connect(sid, "doc"),
        "session_read": lambda s, u, sid: s.session_read(sid, "doc"),
        "session_write": lambda s, u, sid: s.session_write(sid, "doc", b"4"),
        "steg_delete": lambda s, u, sid: s.steg_delete("doc", u),
    }

    def test_each_op_takes_the_volume_lock_once_in_its_mode(self, service, uak, monkeypatch):
        ops = StegFSService.OPS
        covered = {name for name, spec in ops.items() if spec.kind in ("plain", "hidden")}
        assert set(self.CALLS) == covered | {"connect", "session_read", "session_write"}
        sid = service.open_session("alice", uak)
        taken: list[str] = []

        def recorded(mode: str):
            acquire = getattr(service._volume_lock, f"acquire_{mode}")

            def wrapper() -> None:
                taken.append(mode)
                acquire()

            return wrapper

        for mode in ("read", "write"):
            monkeypatch.setattr(service._volume_lock, f"acquire_{mode}", recorded(mode))
        for name, call in self.CALLS.items():
            taken.clear()
            call(service, uak, sid)
            assert taken == ["write" if ops[name].mutates else "read"], name


class TestSessions:
    def test_session_connect_read_write(self, service, uak):
        service.steg_create("doc", uak, data=b"hello")
        sid = service.open_session("alice", uak)
        service.connect(sid, "doc")
        assert service.connected_names(sid) == ["doc"]
        assert service.session_read(sid, "doc") == b"hello"
        service.session_write(sid, "doc", b"goodbye")
        assert service.steg_read("doc", uak) == b"goodbye"
        service.disconnect(sid, "doc")
        with pytest.raises(NotConnectedError):
            service.session_read(sid, "doc")
        service.close_session(sid)

    def test_session_auth_enforced(self, service, uak):
        service.open_session("alice", uak)
        with pytest.raises(SessionAuthError):
            service.open_session("alice", b"Z" * 32)


class TestExecutor:
    def test_submit_by_name_and_callable(self, service, uak):
        service.steg_create("doc", uak, data=b"async")
        future = service.submit("steg_read", "doc", uak)
        assert future.result(timeout=10) == b"async"
        future = service.submit(lambda: service.exists("/"))
        assert future.result(timeout=10) is True

    def test_submit_propagates_exceptions(self, service, uak):
        future = service.submit("steg_read", "missing", uak)
        with pytest.raises(HiddenObjectNotFoundError):
            future.result(timeout=10)

    def test_many_concurrent_futures(self, service, uak):
        for i in range(4):
            service.steg_create(f"f{i}", uak, data=bytes([i]) * 64)
        futures = [service.submit("steg_read", f"f{i % 4}", uak) for i in range(32)]
        for i, future in enumerate(futures):
            assert future.result(timeout=30) == bytes([i % 4]) * 64


class TestLifecycleAndStats:
    def test_stats_count_operations(self, service, uak):
        service.steg_create("doc", uak, data=b"x")
        service.steg_read("doc", uak)
        service.steg_read("doc", uak)
        snapshot = service.stats.snapshot()
        assert snapshot["steg_create"].count == 1
        assert snapshot["steg_read"].count == 2
        assert snapshot["steg_read"].errors == 0
        assert snapshot["steg_read"].mean_ms >= 0.0

    def test_stats_count_errors(self, service, uak):
        with pytest.raises(HiddenObjectNotFoundError):
            service.steg_read("missing", uak)
        assert service.stats.snapshot()["steg_read"].errors == 1

    def test_flush_writes_cache_back(self, service, cached, backing):
        service.create("/f.txt", b"data")
        service.flush()
        for index, data in cached.snapshot().items():
            assert backing.read_block(index) == data

    def test_closed_service_rejects_operations(self, service, uak):
        service.close()
        with pytest.raises(ServiceClosedError):
            service.steg_read("doc", uak)
        with pytest.raises(ServiceClosedError):
            service.submit("exists", "/")

    def test_context_manager_closes(self, service):
        with service as svc:
            svc.create("/x", b"1")
        assert service.closed
