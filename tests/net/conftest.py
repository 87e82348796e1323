"""Fixtures for the network subsystem tests: a live localhost server."""

from __future__ import annotations

import random
import socket
import threading

import pytest

from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.net.server import start_in_thread
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

USER = "alice"
UAK = b"A" * 32


@pytest.fixture
def service():
    steg = StegFS.mkfs(
        RamDevice(block_size=512, total_blocks=8192),
        params=StegFSParams.for_tests(),
        inode_count=128,
        rng=random.Random(23),
        auto_flush=False,
    )
    svc = StegFSService(steg, max_workers=4)
    yield svc
    if not svc.closed:
        svc.close()


@pytest.fixture
def server(service):
    handle = start_in_thread(service, credentials={USER: UAK})
    yield handle
    handle.stop()


@pytest.fixture
def address(server):
    return server.address


class KillSwitchProxy:
    """TCP forwarder that can be armed to die after N more bytes.

    Until :meth:`arm` is called, it forwards transparently (so the
    handshake and setup traffic pass).  Once armed, a shared byte budget
    drains as traffic flows in the chosen direction; when it hits zero
    every proxied socket is torn down abruptly — including connections
    accepted after arming, until :meth:`disarm`.  Armed server→client
    with a budget of 0 it is the lost reply: the request reaches the
    server, is applied, and the connection dies before the answer.
    """

    def __init__(self, upstream: tuple[str, int]) -> None:
        self._upstream = upstream
        self._lock = threading.Lock()
        self._budget: int | None = None  # None = unlimited
        self._armed_c2s = False
        self._socks: list[socket.socket] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._threads: list[threading.Thread] = []
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    def arm(self, budget: int, *, client_to_server: bool) -> None:
        with self._lock:
            self._budget = budget
            self._armed_c2s = client_to_server

    def disarm(self) -> None:
        with self._lock:
            self._budget = None

    def _accept_loop(self) -> None:
        while True:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self._upstream, timeout=5.0)
            except OSError:
                downstream.close()
                continue
            with self._lock:
                self._socks += [downstream, upstream]
            for src, dst, c2s in (
                (downstream, upstream, True),
                (upstream, downstream, False),
            ):
                t = threading.Thread(
                    target=self._pump, args=(src, dst, c2s), daemon=True
                )
                t.start()
                self._threads.append(t)

    def _pump(self, src: socket.socket, dst: socket.socket, c2s: bool) -> None:
        try:
            while True:
                data = src.recv(4096)
                if not data:
                    break
                with self._lock:
                    if self._budget is not None and c2s == self._armed_c2s:
                        if self._budget <= 0:
                            self._kill_locked()
                            return
                        data = data[: self._budget]
                        self._budget -= len(data)
                        tripped = self._budget <= 0
                    else:
                        tripped = False
                dst.sendall(data)
                if tripped:
                    with self._lock:
                        self._kill_locked()
                    return
        except OSError:
            pass
        finally:
            for s in (src, dst):
                try:
                    s.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def _kill_locked(self) -> None:
        # shutdown(), not close(): a pump thread blocked in recv holds
        # the fd's kernel reference, so close() alone would defer the
        # FIN until that thread wakes — shutdown tears the connection
        # down immediately and wakes the blocked recv too.
        for s in self._socks:
            try:
                s.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                s.close()
            except OSError:
                pass
        self._socks.clear()

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            self._kill_locked()


@pytest.fixture
def kill_switch_proxy():
    """``kill_switch_proxy(upstream)`` starts a proxy; all close at teardown."""
    proxies: list[KillSwitchProxy] = []

    def start(upstream: tuple[str, int]) -> KillSwitchProxy:
        proxies.append(KillSwitchProxy(upstream))
        return proxies[-1]

    yield start
    for proxy in proxies:
        proxy.close()
