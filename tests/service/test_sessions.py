"""SessionManager: authentication, lifecycle, idle eviction."""

from __future__ import annotations

import pytest

from repro.errors import SessionAuthError, SessionNotFoundError
from repro.service.sessions import SessionManager


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def manager(service, clock) -> SessionManager:
    return SessionManager(service.steg, idle_timeout=60.0, clock=clock)


class TestAuthentication:
    def test_first_open_binds_credential(self, manager, uak):
        record = manager.open_session("alice", uak)
        assert record.user_id == "alice"
        assert manager.active_count() == 1

    def test_wrong_uak_rejected_after_binding(self, manager, uak):
        manager.open_session("alice", uak)
        with pytest.raises(SessionAuthError):
            manager.open_session("alice", b"W" * 32)

    def test_explicit_registration(self, manager, uak):
        """The first open registers the user; a rejected open neither
        rebinds the key nor leaves a session behind."""
        manager.open_session("bob", uak)
        with pytest.raises(SessionAuthError):
            manager.open_session("bob", b"X" * 32)
        assert manager.active_count() == 1
        manager.open_session("bob", uak)

    def test_users_are_independent(self, manager, uak):
        manager.open_session("alice", uak)
        manager.open_session("bob", b"Y" * 32)            # fresh user, fresh key

    def test_verifier_is_not_the_key(self, manager, uak):
        manager.open_session("alice", uak)
        assert uak not in manager._verifiers.values()


class TestLifecycle:
    def test_sessions_have_unique_ids(self, manager, uak):
        first = manager.open_session("alice", uak)
        second = manager.open_session("alice", uak)
        assert first.session_id != second.session_id
        assert manager.active_count() == 2

    def test_get_unknown_session_raises(self, manager):
        with pytest.raises(SessionNotFoundError):
            manager.get("nope")

    def test_close_session_disconnects(self, manager, service, uak):
        service.steg_create("doc", uak, data=b"hi")
        record = manager.open_session("alice", uak)
        service.steg.steg_connect("doc", uak, session=record.session)
        assert record.session.connected_names() == ["doc"]
        manager.close_session(record.session_id)
        assert record.session.connected_names() == []
        with pytest.raises(SessionNotFoundError):
            manager.get(record.session_id)

    def test_close_all(self, manager, uak):
        manager.open_session("alice", uak)
        manager.open_session("alice", uak)
        manager.close_all()
        assert manager.active_count() == 0


class TestIdleEviction:
    def test_idle_session_evicted(self, manager, clock, uak):
        record = manager.open_session("alice", uak)
        clock.advance(61.0)
        assert manager.evict_idle() == [record.session_id]
        with pytest.raises(SessionNotFoundError):
            manager.get(record.session_id)
        assert manager.evicted_total == 1

    def test_activity_resets_idle_clock(self, manager, clock, uak):
        record = manager.open_session("alice", uak)
        clock.advance(59.0)
        manager.get(record.session_id)                   # touch
        clock.advance(59.0)
        assert manager.evict_idle() == []
        manager.get(record.session_id)

    def test_eviction_runs_opportunistically(self, manager, clock, uak):
        stale = manager.open_session("alice", uak)
        clock.advance(61.0)
        fresh = manager.open_session("alice", uak)       # triggers the reap
        assert manager.active_count() == 1
        assert manager.get(fresh.session_id) is fresh
        with pytest.raises(SessionNotFoundError):
            manager.get(stale.session_id)

    def test_no_timeout_means_no_eviction(self, service, clock, uak):
        manager = SessionManager(service.steg, idle_timeout=None, clock=clock)
        manager.open_session("alice", uak)
        clock.advance(1e9)
        assert manager.evict_idle() == []
        assert manager.active_count() == 1


class TestPinnedUse:
    """The use() context manager closes the validate-then-evict race."""

    def test_use_yields_live_record_and_touches(self, manager, clock, uak):
        record = manager.open_session("alice", uak)
        clock.advance(59.0)
        with manager.use(record.session_id) as pinned:
            assert pinned is record
        clock.advance(59.0)
        assert manager.evict_idle() == []                # touched on exit too

    def test_use_unknown_session_raises_typed_error(self, manager):
        with pytest.raises(SessionNotFoundError):
            with manager.use("nope"):
                pass

    def test_pinned_session_survives_idle_sweep(self, manager, clock, uak):
        record = manager.open_session("alice", uak)
        with manager.use(record.session_id):
            clock.advance(61.0)
            # A concurrent sweep (another client's opportunistic reap)
            # must skip the in-use session instead of logging it out
            # under the operation's feet.
            assert manager.evict_idle() == []
            assert manager.get(record.session_id) is record
        assert record.pins == 0

    def test_unpinned_session_evicted_after_use(self, manager, clock, uak):
        record = manager.open_session("alice", uak)
        with manager.use(record.session_id):
            pass
        clock.advance(61.0)
        assert manager.evict_idle() == [record.session_id]

    def test_use_after_eviction_raises_typed_error(self, manager, clock, uak):
        record = manager.open_session("alice", uak)
        clock.advance(61.0)
        manager.evict_idle()
        with pytest.raises(SessionNotFoundError):
            with manager.use(record.session_id):
                pass

    def test_concurrent_use_and_sweep_never_disconnects_in_flight(
        self, manager, clock, uak, service
    ):
        import threading

        service.steg_create("pinned-doc", uak, data=b"alive")
        record = manager.open_session("alice", uak)
        service.steg.steg_connect("pinned-doc", uak, session=record.session)
        stop = threading.Event()

        def sweep_loop() -> None:
            while not stop.is_set():
                manager.evict_idle()

        sweeper = threading.Thread(target=sweep_loop)
        sweeper.start()
        try:
            for _ in range(200):
                with manager.use(record.session_id) as pinned:
                    # Expire the idle clock *while pinned*: the sweeper
                    # hammering on another thread must skip this session,
                    # so it stays connected under the operation's feet.
                    clock.advance(61.0)
                    assert pinned.session.connected_names() == ["pinned-doc"]
                # use() re-touches on exit, so the record is fresh again
                # before the next iteration can race the sweeper.
        finally:
            stop.set()
            sweeper.join()
