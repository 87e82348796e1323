"""Remote StegFS clients: one transport, and a thread-safe facade over it.

Both clients speak the :mod:`repro.net.protocol` codec and mirror the
service surface one-to-one, with one deliberate difference: hidden and
session operations take **no key argument**.  The client proves knowledge
of the UAK once, during :meth:`login`'s HMAC challenge–response, receives
an opaque session token, and sends only that token afterwards — the raw
key is used locally as MAC-key material and never stored on the client
object, let alone written to a socket.

Everything a caller can observe is written once: the verbs
(:class:`_WireVerbs`), how a request is built (:meth:`_AsyncConn._request`)
and what a reply means (:func:`settle`).  Bytes move one way:

* :class:`AsyncStegFSClient` — ``pool_size`` long-lived connections,
  fully pipelined: requests carry correlation ids, a background reader
  task per connection resolves each pending future as its response
  arrives, so ``asyncio.gather`` over many calls keeps every link
  saturated without a thread or socket per in-flight operation.  Its
  one receive path is :func:`~repro.net.protocol.read_message` with a
  :class:`~repro.net.protocol.FrameAssembler`; a streamed read runs on
  a private connection that receives one frame, into one reusable
  buffer, per piece the consumer asks for.
* :class:`StegFSClient` — the same client for threaded callers: each
  call is the async verb, submitted onto a private event loop thread
  (:class:`~repro.util.loop_thread.LoopThread`), with ``timeout``
  bounding it from the caller's side.

**Delivery is at most once.**  A dead connection is found *before* a
request is sent — the pool skips connections whose reader has exited and
redials once all have — so a connection that died idle costs the caller
nothing.  A call whose connection dies or times out *in flight* raises
its typed error once and is never replayed: the client cannot know
whether the server applied it, so the caller decides.  A late reply is
dropped by its request id.

Typed errors raised inside the server arrive as the *same*
:mod:`repro.errors` class with the same message (see
:func:`~repro.net.protocol.error_to_exception`).
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, AsyncIterator, Coroutine, Iterator

from repro.errors import ConnectionClosedError, HandshakeError, ProtocolError
from repro.fs.filesystem import FileStat
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    DEFAULT_MAX_MESSAGE,
    ChunkFrame,
    ErrorFrame,
    FrameAssembler,
    Request,
    Response,
    _RESPONSE,
    _T_BYTES,
    auth_proof,
    error_to_exception,
    read_message,
)
from repro.obs.trace import current_context, maybe_span
from repro.util.loop_thread import LoopThread

__all__ = ["AsyncStegFSClient", "StegFSClient", "fetch_hidden"]


def settle(frame: Any, request_id: int) -> tuple[Any, Exception | None]:
    """What a decoded frame means to the call that sent ``request_id``.

    *Returns* when the exchange is complete and well-framed, so the
    connection stays usable: ``(value, None)`` for the call's RESPONSE,
    ``(None, error)`` for its ERROR frame — the typed exception the
    server raised, for the caller to raise in turn.  *Raises* when the
    stream is finished: a local :class:`ProtocolError` for a frame that
    answers nothing this call sent, or the server's connection-level
    refusal (an ERROR frame under another id, sent just before it hangs
    up).
    """
    if isinstance(frame, ErrorFrame):
        error = error_to_exception(frame)
        if frame.request_id != request_id:
            raise error
        return None, error
    if not isinstance(frame, Response):
        raise ProtocolError(f"expected a RESPONSE frame, got {type(frame).__name__}")
    if frame.request_id != request_id:
        raise ProtocolError(
            f"response correlation mismatch: sent {request_id}, got {frame.request_id}"
        )
    return frame.value, None


# A streamed RESPONSE body's fixed prefix when the value is bytes:
# kind(1) | request_id(4) | value tag(1) | value length(4).
_STREAM_HEAD = struct.Struct("<BIBI")


class _FrameStream(asyncio.BufferedProtocol):
    """The receive half of a streamed read's connection.

    :meth:`get_buffer` hands out the unread rest of the current length
    prefix, or of the body in one reusable, grow-only frame buffer: no
    read crosses a frame boundary and nothing is copied on the way in.  A
    finished frame waits for the consumer with the socket paused, so TCP
    backpressure holds the server and the stream holds one frame.
    """

    def __init__(self, max_frame: int) -> None:
        self._max_frame = max_frame
        self._prefix = memoryview(bytearray(4))
        self._frame = bytearray(min(max_frame, 64 * 1024))
        self._target, self._filled = self._prefix, 0
        self._body: memoryview | None = None
        self._end: Exception | None = None
        self._ready = asyncio.Event()
        self.transport: Any = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._target[self._filled :]

    def buffer_updated(self, nbytes: int) -> None:
        self._filled += nbytes
        if self._filled < len(self._target):
            return
        self._filled = 0
        if self._target is not self._prefix:
            self._body, self._target = self._target, self._prefix
            self.transport.pause_reading()
            self._ready.set()
            return
        length = protocol._LEN.unpack(self._prefix)[0]
        try:
            protocol._check_length(length, self._max_frame)
        except ProtocolError as exc:
            self._end = exc
            self.transport.abort()
            return
        if length > len(self._frame):
            self._frame = bytearray(length)
        self._target = memoryview(self._frame)[:length]

    def connection_lost(self, exc: Exception | None) -> None:
        if self._end is None:
            mid_frame = self._filled or self._target is not self._prefix
            self._end = exc or (
                ProtocolError("connection dropped mid-frame")
                if mid_frame
                else ConnectionClosedError("server closed the connection")
            )
        self._ready.set()

    async def next_body(self) -> memoryview:
        """The next frame's body, valid until the next call; the stream's
        end raises its cause."""
        while self._body is None:
            if self._end is not None:
                raise self._end
            self._ready.clear()
            await self._ready.wait()
        body, self._body = self._body, None
        self.transport.resume_reading()
        return body


class _WireVerbs:
    """The remote service operations, written once for both clients.

    One method per ``remote=True`` op of ``StegFSService.OPS``, each a
    single ``return self._call(op, ...)`` that sends the session token
    first where the op injects a credential, then the op's wire
    arguments in registry order.  :meth:`AsyncStegFSClient._call`
    returns the awaitable of the exchange; :meth:`StegFSClient._call`
    runs that awaitable on its loop thread and returns the value — so
    ``client.steg_read(x)`` and ``await aclient.steg_read(x)`` run the
    same line, and the annotated return types read "awaitable of" on the
    async client.
    """

    _token: bytes | None

    def _call(self, op: str, *args: Any) -> Any:
        raise NotImplementedError

    def _require_token(self) -> bytes:
        if self._token is None:
            raise HandshakeError("not authenticated: call login() first")
        return self._token

    # ------------------------------------------------------------------
    # plain namespace
    # ------------------------------------------------------------------

    def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file."""
        return self._call("create", path, data)

    def read(self, path: str) -> bytes:
        """Read a plain file."""
        return self._call("read", path)

    def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents."""
        return self._call("write", path, data)

    def append(self, path: str, data: bytes) -> None:
        """Append to a plain file."""
        return self._call("append", path, data)

    def unlink(self, path: str) -> None:
        """Delete a plain file."""
        return self._call("unlink", path)

    def mkdir(self, path: str) -> None:
        """Create a plain directory."""
        return self._call("mkdir", path)

    def rmdir(self, path: str) -> None:
        """Remove an empty plain directory."""
        return self._call("rmdir", path)

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
        return self._call("flush")

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
        return self._call(
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
        return self._call("steg_write", self._require_token(), objname, data)

    def steg_write_extent(self, objname: str, offset: int, data: bytes) -> None:
        """Write one extent of a hidden file in place."""
        return self._call(
            "steg_write_extent", self._require_token(), objname, offset, data
        )

    def steg_delete(self, objname: str) -> None:
        """Delete a hidden object."""
        return self._call("steg_delete", self._require_token(), objname)

    def steg_list(self, objname: str | None = None) -> list[str]:
        """List a hidden directory (the key's root by default)."""
        return self._call("steg_list", self._require_token(), objname)

    def steg_hide(self, pathname: str, objname: str) -> None:
        """Convert a plain object into a hidden one."""
        return self._call("steg_hide", self._require_token(), pathname, objname)

    def steg_unhide(self, pathname: str, objname: str) -> None:
        """Convert a hidden object back into a plain one."""
        return self._call("steg_unhide", self._require_token(), pathname, objname)

    def steg_revoke(self, objname: str) -> None:
        """Re-key a hidden object, invalidating outstanding shares."""
        return self._call("steg_revoke", self._require_token(), objname)

    # ------------------------------------------------------------------
    # session namespace (steg_connect lifecycle, §4)
    # ------------------------------------------------------------------

    def connect(self, objname: str) -> None:
        """``steg_connect``: reveal a hidden object in the session."""
        return self._call("connect", self._require_token(), objname)

    def disconnect(self, objname: str) -> None:
        """``steg_disconnect``: hide a connected object again."""
        return self._call("disconnect", self._require_token(), objname)

    def connected_names(self) -> list[str]:
        """Names currently visible in the session."""
        return self._call("connected_names", self._require_token())

    def session_read(self, objname: str) -> bytes:
        """Read a connected object through the session."""
        return self._call("session_read", self._require_token(), objname)

    def session_write(self, objname: str, data: bytes) -> None:
        """Write a connected object through the session."""
        return self._call("session_write", self._require_token(), objname, data)

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
    """One connection: its streams, its reader task, its pending futures.

    A pool connection (:meth:`open`) is pipelined: requests carry ids and
    its reader task resolves each pending future as the reply arrives.  A
    stream connection (:meth:`stream`) carries one streamed read and is
    closed with it.  Not shared across event loops: the write lock and
    the futures belong to the loop that opened it.
    """

    def __init__(
        self, max_frame: int, max_message: int = DEFAULT_MAX_MESSAGE
    ) -> None:
        self.max_frame = max_frame
        self.max_message = max_message
        self.next_id = 1
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reader_task: asyncio.Task | None = None
        self.write_lock = asyncio.Lock()
        self.pending: dict[int, asyncio.Future] = {}
        self.assembler = FrameAssembler(max_message=max_message)
        self.dead_error: Exception | None = None

    def _request(self, op: str, args: tuple[Any, ...]) -> tuple[int, list[list]]:
        """Allocate an id and encode one request into its wire frames.

        Runs before anything is registered or sent, so a request refused
        locally (``FrameTooLargeError``) leaves no state behind.  Callers
        hold the ``net.client.<op>`` span open around it: inside a trace
        that span's context rides the request's optional trace field, so
        the server's spans hang off the round trip; outside a trace both
        are free no-ops.
        """
        request_id = self.next_id
        self.next_id += 1
        request = Request(
            request_id=request_id, op=op, args=args, trace_ctx=current_context()
        )
        # Through the module, not an imported name: instrumentation that
        # wraps the codec in repro.net.protocol must see the client's share.
        wire = protocol.encode_message_vectored(
            request, max_frame=self.max_frame, max_message=self.max_message
        )
        return request_id, wire

    @property
    def alive(self) -> bool:
        """Whether a request sent now could still be answered: the reader
        task runs and the socket has not delivered the peer's FIN."""
        assert self.reader is not None
        return self.dead_error is None and not self.reader.at_eof()

    async def _send(self, wire: list[list]) -> None:
        assert self.writer is not None
        written = 0
        try:
            for buffers in wire:
                # Lock per wire frame: chunks of a large streamed request
                # interleave with other calls instead of blocking them.
                async with self.write_lock:
                    self.writer.writelines(buffers)
                    written += 1
                    await self.writer.drain()
        except asyncio.CancelledError:
            if 0 < written < len(wire):
                # The server holds this id's partial message for as long
                # as the connection lives; only dropping it frees that.
                self.dead_error = ConnectionClosedError(
                    "a cancelled call left its request half-sent"
                )
                self.writer.transport.abort()
            raise

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
                try:
                    value, failure = settle(frame, frame.request_id)
                except ProtocolError as exc:
                    value, failure = None, exc
                if failure is None:
                    future.set_result(value)
                else:
                    future.set_exception(failure)
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
        with maybe_span(f"net.client.{op}"):
            request_id, wire = self._request(op, args)
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self.pending[request_id] = future
            try:
                await self._send(wire)
                return await future
            finally:
                # A cancelled or timed-out caller takes its entry along: a
                # reply may never come, and a late one is dropped by its id.
                self.pending.pop(request_id, None)

    async def stream(
        self, host: str, port: int, op: str, args: tuple[Any, ...]
    ) -> AsyncIterator[bytes]:
        """Dial, send one bytes-returning request, yield its value piecewise.

        The connection carries this one exchange and closes with the
        generator.  Each piece is one CHUNK's share of the value, read
        when the consumer asks for it: nothing is read ahead, so while
        the consumer lags TCP backpressure holds the server and the
        stream buffers about one ``max_frame``.  A whole-frame reply (an
        error, or a value small enough that the server never chunked it)
        is settled and yielded in one piece.  The socket is read into
        one frame's buffer at a time (:class:`_FrameStream`).
        """
        loop = asyncio.get_running_loop()
        transport, frames = await loop.create_connection(
            lambda: _FrameStream(self.max_frame), host, port
        )
        try:
            with maybe_span(f"net.client.{op}"):
                request_id, wire = self._request(op, args)
                for buffers in wire:
                    transport.writelines(buffers)
            head = bytearray()
            value_len: int | None = None
            got = 0
            next_seq = 0
            while True:
                # Zero-copy views of the reusable frame buffer: every piece
                # is copied out before the next frame is read over them.
                frame = protocol.decode_frame(await frames.next_body(), zero_copy=True)
                if not isinstance(frame, ChunkFrame):
                    value, error = settle(frame, request_id)
                    if error is not None:
                        raise error
                    if not isinstance(value, (bytes, bytearray, memoryview)):
                        raise ProtocolError(
                            f"streamed operation {op!r} returned "
                            f"{type(value).__name__}, expected bytes"
                        )
                    yield bytes(value)
                    return
                if frame.request_id != request_id:
                    raise ProtocolError(
                        f"chunk correlation mismatch: sent {request_id}, "
                        f"got {frame.request_id}"
                    )
                if frame.seq != next_seq:
                    raise ProtocolError(f"chunk seq {frame.seq}, expected {next_seq}")
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
                if frame.is_end and got != value_len:
                    raise ProtocolError(
                        f"streamed response ended at {got} of "
                        f"{value_len} value bytes"
                    )
                if len(payload):
                    yield bytes(payload)
                if frame.is_end:
                    return
        finally:
            transport.close()

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


class AsyncStegFSClient(_WireVerbs):
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

    The pool survives a server restart: once every pooled connection
    has died, the next call redials the pool.  The call that was in
    flight when the connection died still fails — nothing is
    replayed — and a session token issued by the old
    server process does not carry over: :meth:`login` again.

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
        # Set by StegFSClient: the first call dials the pool, not open().
        self._dial_lazily = False
        self._token: bytes | None = None

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
        """Next live connection, round-robin; ``None`` when none is."""
        if not self._conns and not self._dial_lazily:
            raise ConnectionClosedError("client is not connected: call open() first")
        start = self._rr
        for offset in range(len(self._conns)):
            conn = self._conns[(start + offset) % len(self._conns)]
            if conn.alive:
                self._rr = (start + offset + 1) % len(self._conns)
                return conn
        return None

    async def _live_conn(self) -> _AsyncConn:
        """A live connection, dialling the pool if every one has died (or,
        dialling lazily, none was opened yet).

        A server that cannot be redialled surfaces as the error that
        killed the old connections, so callers keep seeing one cause.
        """
        conn = self._pick()
        if conn is not None:
            return conn
        async with self._redial_lock:
            conn = self._pick()  # a concurrent caller may have dialled
            if conn is not None:
                return conn
            dead = self._conns
            try:
                await self.open()
            except OSError:
                if not dead:
                    raise
                cause = dead[0].dead_error or ConnectionClosedError(
                    "server closed the connection"
                )
                raise type(cause)(str(cause)) from None
            for conn in dead:
                await conn.close()
            return self._conns[0]

    async def _call(self, op: str, *args: Any) -> Any:
        return await (await self._live_conn()).call(op, args)

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

    def steg_read_stream(
        self, objname: str, offset: int = 0, length: int | None = None
    ) -> AsyncIterator[bytes]:
        """Read a hidden file (or one extent) as an async iterator of pieces.

        Yields payload pieces as they come off the wire — each at most
        ``max_frame`` — so a multi-gigabyte hidden object never
        materializes client-side.  ``b"".join(...)`` of the pieces equals
        :meth:`steg_read` / :meth:`steg_read_extent` byte for byte.

        Not an op of its own but a second reading of ``steg_read`` /
        ``steg_read_extent``: the pool reassembles whole replies, so each
        stream dials a private connection, and closing the iterator
        (or abandoning it) closes that connection.
        """
        token = self._require_token()
        if length is None:
            if offset:
                raise ValueError("offset requires an explicit length")
            op, args = "steg_read", (token, objname)
        else:
            op, args = "steg_read_extent", (token, objname, offset, length)
        conn = _AsyncConn(self._max_frame, self._max_message)
        return conn.stream(self._host, self._port, op, args)


class StegFSClient(_WireVerbs):
    """Blocking remote client, safe for many threads.

    A facade over an :class:`AsyncStegFSClient` that lives on a private
    event loop thread (:class:`~repro.util.loop_thread.LoopThread`): each
    call is the async client's verb, submitted onto that loop, so threads
    share ``pool_size`` pipelined connections instead of holding one
    socket each.  The pool is dialled by the first call, not by the
    constructor.

    ``timeout`` bounds each call, the first dial included, from the
    caller's side: on expiry the call is cancelled and raises
    :class:`TimeoutError` once.  It is never replayed — the server may
    have applied it — and its reply, should it come, is dropped by its
    request id, so the connection stays in the pool.  Only a call
    cancelled between the frames of a chunked request costs its
    connection: the server would hold the partial message for as long as
    that lived.  A connection that dies is skipped, and the pool
    redialled once all have died, exactly as on the async client.
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
        self._aio = AsyncStegFSClient(
            host,
            port,
            pool_size=pool_size,
            max_frame=max_frame,
            max_message=max_message,
        )
        self._aio._dial_lazily = True
        self._timeout = timeout
        self._closed = False
        self._loop = LoopThread("stegfs-client-aio")

    @property
    def _token(self) -> bytes | None:
        return self._aio._token

    @_token.setter
    def _token(self, token: bytes | None) -> None:
        self._aio._token = token

    def _run(self, call: Coroutine[Any, Any, Any]) -> Any:
        """Await ``call`` on the loop thread, bounded by ``timeout``."""
        if self._closed:
            call.close()
            raise ConnectionClosedError("client has been closed")
        return self._loop.run(call, self._timeout)

    def _call(self, op: str, *args: Any) -> Any:
        return self._run(self._aio._call(op, *args))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open(self) -> "StegFSClient":
        """Dial the pool now rather than at the first call."""
        self._run(self._aio._live_conn())
        return self

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return self._call("ping")

    def login(self, user_id: str, uak: bytes) -> None:
        """HMAC challenge–response handshake; stores only the token."""
        self._run(self._aio.login(user_id, uak))

    def logout(self) -> None:
        """Close the remote session and forget the token."""
        self._run(self._aio.logout())

    def close(self) -> None:
        """Close every connection and stop the loop thread (the remote
        session is left to idle eviction unless :meth:`logout` ran first)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.run(self._aio.close(), self._timeout)
        finally:
            self._loop.close()

    def __enter__(self) -> "StegFSClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def steg_read_stream(
        self, objname: str, offset: int = 0, length: int | None = None
    ) -> Iterator[bytes]:
        """:meth:`AsyncStegFSClient.steg_read_stream`, one piece per ``next``.

        ``timeout`` bounds each piece.  Closing the iterator early closes
        the stream's private connection.
        """
        stream = self._aio.steg_read_stream(objname, offset, length)
        while True:
            # A piece that fails or times out has already ended the
            # stream, and with it the connection; only an abandoned one
            # needs closing from here.
            try:
                piece = self._run(anext(stream))
            except StopAsyncIteration:
                return
            try:
                yield piece
            except GeneratorExit:
                if not self._closed:
                    self._loop.run(stream.aclose())
                raise


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
