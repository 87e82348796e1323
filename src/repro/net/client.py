"""Remote StegFS clients: blocking with a connection pool, and asyncio.

Both clients speak the :mod:`repro.net.protocol` codec and mirror the
service surface one-to-one, with one deliberate difference: hidden and
session operations take **no key argument**.  The client proves knowledge
of the UAK once, during :meth:`login`'s HMAC challenge–response, receives
an opaque session token, and sends only that token afterwards — the raw
key is used locally as MAC-key material and never stored on the client
object, let alone written to a socket.

* :class:`StegFSClient` — synchronous, safe for many threads: a small
  LIFO connection pool hands each in-flight call a private socket, so
  callers never interleave frames.  ``pool_size`` bounds both sockets and
  concurrency.
* :class:`AsyncStegFSClient` — ``pool_size`` long-lived connections,
  fully pipelined: requests carry correlation ids, a background reader
  task per connection resolves each pending future as its response
  arrives, so ``asyncio.gather`` over many calls keeps every link
  saturated without a thread or socket per in-flight operation.

Typed errors raised inside the server arrive as the *same*
:mod:`repro.errors` class with the same message (see
:func:`~repro.net.protocol.error_to_exception`).
"""

from __future__ import annotations

import asyncio
import queue
import socket
import struct
import threading
from typing import Any, Callable, Iterator

from contextlib import contextmanager

from repro.errors import ConnectionClosedError, HandshakeError, ProtocolError
from repro.fs.filesystem import FileStat
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    DEFAULT_MAX_MESSAGE,
    ChunkFrame,
    ErrorFrame,
    FrameAssembler,
    FrameReceiver,
    Request,
    Response,
    _RESPONSE,
    _T_BYTES,
    auth_proof,
    encode_message_vectored,
    error_to_exception,
    read_message,
    send_message,
)
from repro.obs.trace import current_context, maybe_span

__all__ = ["AsyncStegFSClient", "StegFSClient", "fetch_hidden"]


def _check_response(frame: Any, request_id: int) -> Any:
    if isinstance(frame, ErrorFrame):
        raise error_to_exception(frame)
    if not isinstance(frame, Response):
        raise ProtocolError(f"expected a RESPONSE frame, got {type(frame).__name__}")
    if frame.request_id != request_id:
        raise ProtocolError(
            f"response correlation mismatch: sent {request_id}, got {frame.request_id}"
        )
    return frame.value


# A streamed RESPONSE body's fixed prefix when the value is bytes:
# kind(1) | request_id(4) | value tag(1) | value length(4).
_STREAM_HEAD = struct.Struct("<BIBI")


class _PooledConnection:
    """One socket plus its monotonically increasing request-id counter."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_message: int = DEFAULT_MAX_MESSAGE,
    ) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.max_frame = max_frame
        self.max_message = max_message
        # One reusable receive buffer + chunk reassembly per socket.
        self.receiver = FrameReceiver(max_frame=max_frame, max_message=max_message)
        self.next_id = 1
        #: Successful exchanges completed on this socket.  A connection
        #: with ``completed > 0`` that suddenly errors most likely died
        #: while idle in the pool (server restart, idle timeout) — the
        #: staleness signal the client's retry-once policy keys on.
        self.completed = 0
        #: Whether the most recent :meth:`stream` left the wire in a clean
        #: state (exchange fully consumed) — the pool's keep/evict signal.
        self.stream_clean = True

    def call(self, op: str, args: tuple[Any, ...]) -> Any:
        request_id = self.next_id
        self.next_id += 1
        # Inside a trace, the round-trip gets its own span and its context
        # rides the request's optional trace field, so the server's spans
        # hang off this one; outside a trace both are free no-ops.
        with maybe_span(f"net.client.{op}"):
            request = Request(
                request_id=request_id,
                op=op,
                args=args,
                trace_ctx=current_context(),
            )
            send_message(
                self.sock,
                request,
                max_frame=self.max_frame,
                max_message=self.max_message,
            )
            value = _check_response(
                self.receiver.recv_message(self.sock), request_id
            )
        self.completed += 1
        return value

    def stream(self, op: str, args: tuple[Any, ...]) -> Iterator[bytes]:
        """Issue one bytes-returning op and yield its payload incrementally.

        A streamed RESPONSE arrives as CHUNK frames; each chunk's data
        portion is yielded as soon as it is off the wire, so the full
        payload is never buffered client-side.  A small (unchunked)
        response yields its whole value once.  ``stream_clean`` is left
        False while frames may remain unread — the pool evicts on that.
        """
        self.stream_clean = False
        request_id = self.next_id
        self.next_id += 1
        with maybe_span(f"net.client.{op}"):
            request = Request(
                request_id=request_id,
                op=op,
                args=args,
                trace_ctx=current_context(),
            )
            send_message(
                self.sock,
                request,
                max_frame=self.max_frame,
                max_message=self.max_message,
            )
            head = bytearray()
            value_len: int | None = None
            got = 0
            next_seq = 0
            while True:
                frame = self.receiver.recv_wire(self.sock, zero_copy=True)
                if not isinstance(frame, ChunkFrame):
                    # Whole-frame reply: an error, or a payload small
                    # enough that the server never chunked it.
                    self.stream_clean = True
                    value = _check_response(frame, request_id)
                    if not isinstance(value, (bytes, bytearray, memoryview)):
                        raise ProtocolError(
                            f"streamed operation {op!r} returned "
                            f"{type(value).__name__}, expected bytes"
                        )
                    self.completed += 1
                    yield bytes(value)
                    return
                if frame.request_id != request_id:
                    raise ProtocolError(
                        f"chunk correlation mismatch: sent {request_id}, "
                        f"got {frame.request_id}"
                    )
                if frame.seq != next_seq:
                    raise ProtocolError(
                        f"chunk seq {frame.seq}, expected {next_seq}"
                    )
                next_seq += 1
                payload = memoryview(frame.payload)
                if value_len is None:
                    # Accumulate the fixed response prefix (spread over
                    # chunks only under absurdly small frame limits).
                    take = min(_STREAM_HEAD.size - len(head), len(payload))
                    head += payload[:take]
                    payload = payload[take:]
                    if len(head) < _STREAM_HEAD.size:
                        if frame.is_end:
                            raise ProtocolError(
                                "streamed response ended inside its header"
                            )
                        continue
                    kind, rid, tag, value_len = _STREAM_HEAD.unpack(head)
                    if kind != _RESPONSE:
                        raise ProtocolError(
                            f"streamed frame kind {kind}, expected RESPONSE"
                        )
                    if rid != request_id:
                        raise ProtocolError(
                            f"response correlation mismatch: sent "
                            f"{request_id}, got {rid}"
                        )
                    if tag != _T_BYTES:
                        raise ProtocolError(
                            f"streamed operation {op!r} returned value tag "
                            f"{tag}, expected bytes"
                        )
                got += len(payload)
                if got > value_len:
                    raise ProtocolError(
                        f"streamed response overran its declared "
                        f"{value_len}-byte value"
                    )
                if len(payload):
                    # Copy out: the view aliases the reusable receive
                    # buffer, which the next recv overwrites.
                    yield bytes(payload)
                if frame.is_end:
                    if got != value_len:
                        raise ProtocolError(
                            f"streamed response ended at {got} of "
                            f"{value_len} value bytes"
                        )
                    self.stream_clean = True
                    self.completed += 1
                    return

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class StegFSClient:
    """Blocking remote client with a connection pool for threaded callers.

    Each call checks a connection out of the pool, performs one
    request/response exchange on it, and returns it — so ``pool_size``
    threads can issue operations concurrently without sharing a socket.
    The session token obtained by :meth:`login` is shared by every pooled
    connection (tokens are server-global).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 1,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_message: int = DEFAULT_MAX_MESSAGE,
        timeout: float | None = 30.0,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self._host = host
        self._port = port
        self._pool_size = pool_size
        self._max_frame = max_frame
        self._max_message = max(max_message, max_frame)
        self._timeout = timeout
        self._idle: queue.LifoQueue[_PooledConnection] = queue.LifoQueue()
        self._created = 0
        self._pool_lock = threading.Lock()
        self._token: bytes | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # pool plumbing
    # ------------------------------------------------------------------

    def _acquire(self) -> _PooledConnection:
        """Check a connection out of the pool (creating up to the cap)."""
        if self._closed:
            raise ConnectionClosedError("client has been closed")
        try:
            return self._idle.get_nowait()
        except queue.Empty:
            pass
        create = False
        with self._pool_lock:
            if self._created < self._pool_size:
                self._created += 1
                create = True
        if create:
            try:
                return _PooledConnection(
                    self._host,
                    self._port,
                    self._timeout,
                    self._max_frame,
                    self._max_message,
                )
            except BaseException:
                with self._pool_lock:
                    self._created -= 1
                raise
        # Block *outside* the pool lock: a connection becomes free when
        # another thread returns or drops one, and that drop path needs
        # the lock itself.
        return self._idle.get()

    def _release(self, conn: _PooledConnection) -> None:
        """Return a healthy connection to the pool."""
        self._idle.put(conn)

    def _evict(self, conn: _PooledConnection) -> None:
        """Drop a desynchronized or dead connection from the pool."""
        conn.close()
        with self._pool_lock:
            self._created -= 1

    @contextmanager
    def _connection(self) -> Iterator[_PooledConnection]:
        conn = self._acquire()
        try:
            yield conn
        except (ProtocolError, ConnectionClosedError, OSError):
            # The stream is desynchronized (or gone): drop the socket
            # rather than return it to the pool.
            self._evict(conn)
            raise
        except BaseException:
            # Typed remote errors arrive as a complete, well-framed
            # exchange — the connection is still healthy, keep it.
            self._release(conn)
            raise
        else:
            self._release(conn)

    def _exchange(self, fn: "Callable[[_PooledConnection], Any]") -> Any:
        """Run ``fn`` on a pooled connection, retrying once on staleness.

        A socket that dies while idle in the LIFO pool (server restart,
        NAT timeout) only reveals itself on the next use.  When a
        *previously successful* connection raises a transport error, the
        broken socket has already been evicted by :meth:`_connection`, so
        one retry lands on a fresh connection.  A brand-new connection's
        failure is not retried — the server really is unreachable — and
        :class:`~repro.errors.ProtocolError` is never retried (a
        desynchronized stream is a bug, not staleness).

        The retry makes delivery at-least-once: if the old socket died
        *after* the server processed the request but before the reply
        arrived, the operation runs twice.  Reads, full-state writes and
        deletes are idempotent; a duplicated ``create`` surfaces as the
        same typed Exists error a real conflict would raise — callers
        that must upsert (the cluster's shard backends) catch it and
        fall back to a write.
        """
        for attempt in (0, 1):
            reused = False
            try:
                with self._connection() as conn:
                    reused = conn.completed > 0
                    return fn(conn)
            except (ConnectionClosedError, OSError):
                if attempt == 0 and reused and not self._closed:
                    continue
                raise

    def _call(self, op: str, *args: Any) -> Any:
        return self._exchange(lambda conn: conn.call(op, args))

    def _require_token(self) -> bytes:
        if self._token is None:
            raise HandshakeError("not authenticated: call login() first")
        return self._token

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return self._call("ping")

    def login(self, user_id: str, uak: bytes) -> None:
        """HMAC challenge–response handshake; stores only the token.

        Both legs run on one pooled connection (challenges are scoped to
        the connection that issued them); a stale pooled socket is
        retried once on a fresh connection like any other exchange.
        """

        def handshake(conn: _PooledConnection) -> bytes:
            nonce = conn.call("hello", (user_id,))
            proof = auth_proof(uak, nonce, user_id)
            return conn.call("authenticate", (user_id, proof))

        self._token = self._exchange(handshake)

    def logout(self) -> None:
        """Close the remote session and forget the token."""
        token = self._require_token()
        self._token = None
        self._call("close_session", token)

    def close(self) -> None:
        """Close every pooled socket (the remote session is left to idle
        eviction unless :meth:`logout` ran first)."""
        self._closed = True
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                break

    def __enter__(self) -> "StegFSClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # plain namespace
    # ------------------------------------------------------------------

    def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file."""
        self._call("create", path, data)

    def read(self, path: str) -> bytes:
        """Read a plain file."""
        return self._call("read", path)

    def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents."""
        self._call("write", path, data)

    def append(self, path: str, data: bytes) -> None:
        """Append to a plain file."""
        self._call("append", path, data)

    def unlink(self, path: str) -> None:
        """Delete a plain file."""
        self._call("unlink", path)

    def mkdir(self, path: str) -> None:
        """Create a plain directory."""
        self._call("mkdir", path)

    def rmdir(self, path: str) -> None:
        """Remove an empty plain directory."""
        self._call("rmdir", path)

    def listdir(self, path: str = "/") -> list[str]:
        """List a plain directory."""
        return self._call("listdir", path)

    def exists(self, path: str) -> bool:
        """Whether a plain path exists."""
        return self._call("exists", path)

    def stat(self, path: str) -> FileStat:
        """Plain file metadata."""
        return self._call("stat", path)

    def flush(self) -> None:
        """Persist dirty metadata and flush the server's device stack."""
        self._call("flush")

    def dummy_tick(self) -> int | None:
        """One round of server-side dummy-file churn."""
        return self._call("dummy_tick")

    # ------------------------------------------------------------------
    # hidden namespace (token-authenticated; the UAK stays server-side)
    # ------------------------------------------------------------------

    def steg_create(
        self,
        objname: str,
        data: bytes = b"",
        objtype: str = "f",
        owner: str | None = None,
    ) -> None:
        """Create a hidden file or directory under the session's key."""
        self._call(
            "steg_create", self._require_token(), objname, objtype, data, owner
        )

    def steg_read(self, objname: str) -> bytes:
        """Read a hidden file."""
        return self._call("steg_read", self._require_token(), objname)

    def steg_read_extent(self, objname: str, offset: int, length: int) -> bytes:
        """Read one extent of a hidden file."""
        return self._call(
            "steg_read_extent", self._require_token(), objname, offset, length
        )

    def steg_write(self, objname: str, data: bytes) -> None:
        """Replace a hidden file's contents."""
        self._call("steg_write", self._require_token(), objname, data)

    def steg_write_extent(self, objname: str, offset: int, data: bytes) -> None:
        """Write one extent of a hidden file in place."""
        self._call(
            "steg_write_extent", self._require_token(), objname, offset, data
        )

    def steg_read_stream(
        self, objname: str, offset: int = 0, length: int | None = None
    ) -> Iterator[bytes]:
        """Read a hidden file (or one extent) as an iterator of chunks.

        Yields payload pieces as they come off the wire — bounded by the
        connection's ``max_frame`` — so a multi-gigabyte hidden object
        never materializes client-side.  ``b"".join(...)`` of the pieces
        equals :meth:`steg_read` / :meth:`steg_read_extent` byte for byte.

        No retry-once here: once bytes have been yielded, replaying the
        request could silently duplicate a prefix.  A consumer that
        abandons the iterator mid-stream leaves unread frames on the
        socket, so the connection is dropped rather than pooled.
        """
        token = self._require_token()
        if length is None:
            if offset:
                raise ValueError("offset requires an explicit length")
            op, args = "steg_read", (token, objname)
        else:
            op, args = "steg_read_extent", (token, objname, offset, length)
        conn = self._acquire()
        try:
            yield from conn.stream(op, args)
        except (ProtocolError, ConnectionClosedError, OSError):
            self._evict(conn)
            raise
        except BaseException:
            # GeneratorExit (abandoned mid-stream) or a typed remote
            # error: keep the socket only when the exchange fully drained.
            if conn.stream_clean:
                self._release(conn)
            else:
                self._evict(conn)
            raise
        else:
            self._release(conn)

    def steg_delete(self, objname: str) -> None:
        """Delete a hidden object."""
        self._call("steg_delete", self._require_token(), objname)

    def steg_list(self, objname: str | None = None) -> list[str]:
        """List a hidden directory (the key's root by default)."""
        return self._call("steg_list", self._require_token(), objname)

    def steg_hide(self, pathname: str, objname: str) -> None:
        """Convert a plain object into a hidden one."""
        self._call("steg_hide", self._require_token(), pathname, objname)

    def steg_unhide(self, pathname: str, objname: str) -> None:
        """Convert a hidden object back into a plain one."""
        self._call("steg_unhide", self._require_token(), pathname, objname)

    def steg_revoke(self, objname: str) -> None:
        """Re-key a hidden object, invalidating outstanding shares."""
        self._call("steg_revoke", self._require_token(), objname)

    # ------------------------------------------------------------------
    # session namespace (steg_connect lifecycle, §4)
    # ------------------------------------------------------------------

    def connect(self, objname: str) -> None:
        """``steg_connect``: reveal a hidden object in the session."""
        self._call("connect", self._require_token(), objname)

    def disconnect(self, objname: str) -> None:
        """``steg_disconnect``: hide a connected object again."""
        self._call("disconnect", self._require_token(), objname)

    def connected_names(self) -> list[str]:
        """Names currently visible in the session."""
        return self._call("connected_names", self._require_token())

    def session_read(self, objname: str) -> bytes:
        """Read a connected object through the session."""
        return self._call("session_read", self._require_token(), objname)

    def session_write(self, objname: str, data: bytes) -> None:
        """Write a connected object through the session."""
        self._call("session_write", self._require_token(), objname, data)

    # ------------------------------------------------------------------
    # observability (read-only admin ops; no authentication required)
    # ------------------------------------------------------------------

    def obs_metrics(self) -> str:
        """Text exposition of the server process's metric registry."""
        return self._call("obs_metrics")

    def obs_slowlog(self, limit: int = 64) -> list[str]:
        """Newest-first server slow-op records as JSON strings."""
        return self._call("obs_slowlog", limit)

    def obs_trace(self, trace_id: str = "") -> str:
        """JSON span document for one server-side trace (or the id list)."""
        return self._call("obs_trace", trace_id)

    def obs_events(self, limit: int = 64) -> list[str]:
        """Newest-first server health/probe events as JSON strings."""
        return self._call("obs_events", limit)

    def obs_snapshot(self) -> str:
        """The server process's merge-ready telemetry document (JSON)."""
        return self._call("obs_snapshot")

    def obs_deniability(self) -> str:
        """The server process's RAM-only deniability stanza (JSON)."""
        return self._call("obs_deniability")


class _AsyncConn:
    """One pipelined connection: streams, reader task, pending futures.

    Not shared across event loops.  All coordination objects (the write
    lock, the pending futures) belong to the loop that opened it.
    """

    def __init__(
        self, max_frame: int, max_message: int = DEFAULT_MAX_MESSAGE
    ) -> None:
        self.max_frame = max_frame
        self.max_message = max_message
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reader_task: asyncio.Task | None = None
        self.write_lock = asyncio.Lock()
        self.pending: dict[int, asyncio.Future] = {}
        self.assembler = FrameAssembler(max_message=max_message)
        self.next_id = 1
        self.dead_error: Exception | None = None

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        self.reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        assert self.reader is not None
        error: Exception = ConnectionClosedError("server closed the connection")
        try:
            while True:
                # read_message reassembles streamed CHUNK runs — chunks of
                # different request ids may interleave; the assembler
                # demultiplexes before any future resolves.
                frame = await read_message(
                    self.reader, self.max_frame, assembler=self.assembler
                )
                if frame is None:
                    break
                future = self.pending.pop(frame.request_id, None)
                if future is None or future.done():
                    continue
                if isinstance(frame, ErrorFrame):
                    future.set_exception(error_to_exception(frame))
                elif isinstance(frame, Response):
                    future.set_result(frame.value)
                else:
                    future.set_exception(
                        ProtocolError(
                            f"expected a RESPONSE frame, got {type(frame).__name__}"
                        )
                    )
        except asyncio.CancelledError:
            error = ConnectionClosedError("client closed the connection")
        except Exception as exc:
            error = exc
        # Record the cause *before* failing the pending futures, so a
        # call racing this shutdown either finds its future failed here
        # or sees dead_error and fails fast instead of awaiting forever.
        self.dead_error = error
        for future in self.pending.values():
            if not future.done():
                future.set_exception(error)
        self.pending.clear()

    async def call(self, op: str, args: tuple[Any, ...]) -> Any:
        if self.dead_error is not None:
            # The reader task already exited: nothing will ever resolve a
            # newly registered future, so fail now with the original cause.
            raise type(self.dead_error)(str(self.dead_error))
        assert self.writer is not None
        request_id = self.next_id
        self.next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        with maybe_span(f"net.client.{op}"):
            wire = encode_message_vectored(
                Request(
                    request_id=request_id,
                    op=op,
                    args=args,
                    trace_ctx=current_context(),
                ),
                max_frame=self.max_frame,
                max_message=self.max_message,
            )
            for buffers in wire:
                # Lock per wire frame: chunks of a large streamed request
                # interleave with other calls instead of blocking them.
                async with self.write_lock:
                    self.writer.writelines(buffers)
                    await self.writer.drain()
            return await future

    async def close(self) -> None:
        if self.reader_task is not None:
            self.reader_task.cancel()
            try:
                await self.reader_task
            except asyncio.CancelledError:
                pass
            self.reader_task = None
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self.writer = None
            self.reader = None


class AsyncStegFSClient:
    """Asyncio remote client: pipelined request ids over a connection pool.

    Usage::

        client = AsyncStegFSClient(host, port)
        await client.open()
        await client.login("alice", uak)
        data = await client.steg_read("secret")
        await client.close()

    Many coroutines may call concurrently; responses are matched to
    callers by correlation id, so slow operations never head-of-line
    block fast ones beyond what the server's own scheduling imposes.
    ``pool_size`` (default 1) spreads calls round-robin over that many
    long-lived connections — useful when a single socket's in-order
    framing becomes the bottleneck under heavy fan-out, as in the
    cluster coordinator's pipelined shard legs.

    Like the blocking client's pool, this one survives a server restart:
    once every pooled connection has died, the next call redials the
    pool.  The call that was in flight when the connection died still
    fails, and a session token issued by the old server process does
    not carry over: :meth:`login` again.

    Not thread-safe: one instance belongs to one event loop.  Threaded
    callers want :class:`StegFSClient`.

    Raises:
        ConnectionClosedError: calling before :meth:`open`, after
            :meth:`close`, or once every pooled connection has died and
            the server cannot be redialled.
        HandshakeError: hidden/session ops before :meth:`login`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 1,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_message: int = DEFAULT_MAX_MESSAGE,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self._host = host
        self._port = port
        self._pool_size = pool_size
        self._max_frame = max_frame
        self._max_message = max(max_message, max_frame)
        self._conns: list[_AsyncConn] = []
        self._rr = 0
        self._redial_lock = asyncio.Lock()
        self._token: bytes | None = None

    @property
    def _reader_task(self) -> asyncio.Task | None:
        # Back-compat peek used by tests: the first connection's reader.
        return self._conns[0].reader_task if self._conns else None

    async def open(self) -> "AsyncStegFSClient":
        """Connect every pooled socket and start its dispatch task."""
        conns: list[_AsyncConn] = []
        try:
            for _ in range(self._pool_size):
                conn = _AsyncConn(self._max_frame, self._max_message)
                await conn.open(self._host, self._port)
                conns.append(conn)
        except BaseException:
            for conn in conns:
                await conn.close()
            raise
        self._conns = conns
        return self

    async def __aenter__(self) -> "AsyncStegFSClient":
        return await self.open()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def _pick(self) -> _AsyncConn | None:
        """Next live connection, round-robin; ``None`` when all have died."""
        if not self._conns:
            raise ConnectionClosedError("client is not connected: call open() first")
        start = self._rr
        self._rr = (self._rr + 1) % len(self._conns)
        for offset in range(len(self._conns)):
            conn = self._conns[(start + offset) % len(self._conns)]
            if conn.dead_error is None:
                return conn
        return None

    async def _live_conn(self) -> _AsyncConn:
        """A live connection, redialling the pool if every one has died.

        A server that cannot be reached surfaces as the error that
        killed the old connections, so callers keep seeing one cause.
        """
        conn = self._pick()
        if conn is not None:
            return conn
        async with self._redial_lock:
            conn = self._pick()  # a concurrent caller may have redialled
            if conn is not None:
                return conn
            dead = self._conns
            try:
                await self.open()
            except OSError:
                cause = dead[0].dead_error
                assert cause is not None
                raise type(cause)(str(cause)) from None
            for conn in dead:
                await conn.close()
            return self._conns[0]

    async def _call(self, op: str, *args: Any) -> Any:
        return await (await self._live_conn()).call(op, args)

    def _require_token(self) -> bytes:
        if self._token is None:
            raise HandshakeError("not authenticated: call login() first")
        return self._token

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def ping(self) -> bool:
        """Round-trip liveness check."""
        return await self._call("ping")

    async def login(self, user_id: str, uak: bytes) -> None:
        """HMAC challenge–response handshake; stores only the token.

        Both legs run on one pooled connection — the server scopes
        handshake challenges to the connection that issued them.  The
        resulting token is server-global, so every pooled connection
        shares it afterwards.
        """
        conn = await self._live_conn()
        nonce = await conn.call("hello", (user_id,))
        proof = auth_proof(uak, nonce, user_id)
        self._token = await conn.call("authenticate", (user_id, proof))

    async def logout(self) -> None:
        """Close the remote session and forget the token."""
        token = self._require_token()
        self._token = None
        await self._call("close_session", token)

    async def close(self) -> None:
        """Tear every connection down; pending calls fail with a typed error."""
        conns, self._conns = self._conns, []
        for conn in conns:
            await conn.close()

    # ------------------------------------------------------------------
    # plain namespace
    # ------------------------------------------------------------------

    async def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file."""
        await self._call("create", path, data)

    async def read(self, path: str) -> bytes:
        """Read a plain file."""
        return await self._call("read", path)

    async def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents."""
        await self._call("write", path, data)

    async def append(self, path: str, data: bytes) -> None:
        """Append to a plain file."""
        await self._call("append", path, data)

    async def unlink(self, path: str) -> None:
        """Delete a plain file."""
        await self._call("unlink", path)

    async def mkdir(self, path: str) -> None:
        """Create a plain directory."""
        await self._call("mkdir", path)

    async def rmdir(self, path: str) -> None:
        """Remove an empty plain directory."""
        await self._call("rmdir", path)

    async def listdir(self, path: str = "/") -> list[str]:
        """List a plain directory."""
        return await self._call("listdir", path)

    async def exists(self, path: str) -> bool:
        """Whether a plain path exists."""
        return await self._call("exists", path)

    async def stat(self, path: str) -> FileStat:
        """Plain file metadata."""
        return await self._call("stat", path)

    async def flush(self) -> None:
        """Persist dirty metadata and flush the server's device stack."""
        await self._call("flush")

    async def dummy_tick(self) -> int | None:
        """One round of server-side dummy-file churn."""
        return await self._call("dummy_tick")

    # ------------------------------------------------------------------
    # hidden namespace
    # ------------------------------------------------------------------

    async def steg_create(
        self,
        objname: str,
        data: bytes = b"",
        objtype: str = "f",
        owner: str | None = None,
    ) -> None:
        """Create a hidden file or directory under the session's key."""
        await self._call(
            "steg_create", self._require_token(), objname, objtype, data, owner
        )

    async def steg_read(self, objname: str) -> bytes:
        """Read a hidden file."""
        return await self._call("steg_read", self._require_token(), objname)

    async def steg_read_extent(self, objname: str, offset: int, length: int) -> bytes:
        """Read one extent of a hidden file."""
        return await self._call(
            "steg_read_extent", self._require_token(), objname, offset, length
        )

    async def steg_write(self, objname: str, data: bytes) -> None:
        """Replace a hidden file's contents."""
        await self._call("steg_write", self._require_token(), objname, data)

    async def steg_write_extent(self, objname: str, offset: int, data: bytes) -> None:
        """Write one extent of a hidden file in place."""
        await self._call(
            "steg_write_extent", self._require_token(), objname, offset, data
        )

    async def steg_delete(self, objname: str) -> None:
        """Delete a hidden object."""
        await self._call("steg_delete", self._require_token(), objname)

    async def steg_list(self, objname: str | None = None) -> list[str]:
        """List a hidden directory (the key's root by default)."""
        return await self._call("steg_list", self._require_token(), objname)

    async def steg_hide(self, pathname: str, objname: str) -> None:
        """Convert a plain object into a hidden one."""
        await self._call("steg_hide", self._require_token(), pathname, objname)

    async def steg_unhide(self, pathname: str, objname: str) -> None:
        """Convert a hidden object back into a plain one."""
        await self._call("steg_unhide", self._require_token(), pathname, objname)

    async def steg_revoke(self, objname: str) -> None:
        """Re-key a hidden object, invalidating outstanding shares."""
        await self._call("steg_revoke", self._require_token(), objname)

    # ------------------------------------------------------------------
    # session namespace
    # ------------------------------------------------------------------

    async def connect(self, objname: str) -> None:
        """``steg_connect``: reveal a hidden object in the session."""
        await self._call("connect", self._require_token(), objname)

    async def disconnect(self, objname: str) -> None:
        """``steg_disconnect``: hide a connected object again."""
        await self._call("disconnect", self._require_token(), objname)

    async def connected_names(self) -> list[str]:
        """Names currently visible in the session."""
        return await self._call("connected_names", self._require_token())

    async def session_read(self, objname: str) -> bytes:
        """Read a connected object through the session."""
        return await self._call("session_read", self._require_token(), objname)

    async def session_write(self, objname: str, data: bytes) -> None:
        """Write a connected object through the session."""
        await self._call("session_write", self._require_token(), objname, data)

    # ------------------------------------------------------------------
    # observability (read-only admin ops; no authentication required)
    # ------------------------------------------------------------------

    async def obs_metrics(self) -> str:
        """Text exposition of the server process's metric registry."""
        return await self._call("obs_metrics")

    async def obs_slowlog(self, limit: int = 64) -> list[str]:
        """Newest-first server slow-op records as JSON strings."""
        return await self._call("obs_slowlog", limit)

    async def obs_trace(self, trace_id: str = "") -> str:
        """JSON span document for one server-side trace (or the id list)."""
        return await self._call("obs_trace", trace_id)

    async def obs_events(self, limit: int = 64) -> list[str]:
        """Newest-first server health/probe events as JSON strings."""
        return await self._call("obs_events", limit)

    async def obs_snapshot(self) -> str:
        """The server process's merge-ready telemetry document (JSON)."""
        return await self._call("obs_snapshot")

    async def obs_deniability(self) -> str:
        """The server process's RAM-only deniability stanza (JSON)."""
        return await self._call("obs_deniability")


def fetch_hidden(host: str, port: int, user_id: str, uak: bytes, objname: str) -> bytes:
    """One-shot convenience: login, read one hidden file, logout.

    Importable entry point for subprocess-based readers (benchmark
    workers, cross-process tests).
    """
    with StegFSClient(host, port) as client:
        client.login(user_id, uak)
        try:
            return client.steg_read(objname)
        finally:
            client.logout()
