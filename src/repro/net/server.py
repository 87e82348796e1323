"""Asyncio TCP server exposing a :class:`StegFSService` to remote clients.

The event loop owns the sockets; the service's worker pool owns the disk.
Every decoded request is dispatched with ``loop.run_in_executor`` onto the
service's :class:`~concurrent.futures.ThreadPoolExecutor`, so the loop
never blocks on crypto or block I/O and many connections make progress
while operations are in flight.

**Routing** is table-driven: the server walks the shared op registry
(:data:`StegFSService.OPS <repro.service.service.StegFSService>`), binds
wire arguments to parameter names from each :class:`~repro.service.
registry.OpSpec`, and *injects* the credential parameter itself — the
``uak`` for hidden ops, the service ``session_id`` for session ops — from
the connection's authenticated session.  There is no per-op if/else, and
the wire has no way to supply a raw key positionally.

**Authentication** is an HMAC-SHA256 challenge–response built on
:mod:`repro.crypto.hmac`:

1. ``hello(user_id)`` → server returns a fresh 32-byte nonce;
2. client computes ``proof = HMAC(uak, AUTH_CONTEXT || nonce || user_id)``
   and sends ``authenticate(user_id, proof)``;
3. the server recomputes the proof from its registered credential,
   compares in constant time, opens a service session and returns an
   opaque 16-byte **session token**.

The raw UAK therefore never crosses the wire, in either direction; every
subsequent hidden/session operation carries only the token.  The token
*is* the service session's id (16 random bytes; the id is their hex), so
the :class:`~repro.service.sessions.SessionManager` is the only session
table: a token lives exactly as long as its session (logout, idle
eviction), is server-global (not per-connection) so a pooled client can
spread one logical session over several sockets, and is never echoed in
an error.  The server is the machine that already performs all
hidden-object cryptography, so it is trusted with registered UAKs —
exactly as the in-process service is.

**Backpressure** — each connection may have at most ``max_inflight``
requests executing; beyond that the read loop stops pulling frames off
the socket, letting TCP flow control push back on the client.  Frames
over ``max_frame`` are refused on both encode and decode.

**Streaming** — logical frames larger than ``max_frame`` travel as CHUNK
runs (see :mod:`repro.net.protocol`).  Inbound chunks reassemble through
a per-connection :class:`~repro.net.protocol.FrameAssembler` bounded by
``max_message``; only operations whose :class:`~repro.service.registry.
OpSpec` declares ``streams=True`` accept a streamed request — a chunked
``mkdir`` is refused after reassembly, before dispatch.  Outbound
responses to streaming ops are sent vectored and chunk-by-chunk, the
write lock taken per wire frame so a long stream never starves pings or
unrelated responses on the same connection.

For tests, benches and examples, :func:`start_in_thread` runs a server
(and its private event loop) on a daemon thread and returns a handle with
the bound address and a thread-safe ``stop()``.
"""

from __future__ import annotations

import asyncio
import functools
import secrets
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.crypto.hmac import constant_time_equal
from repro.errors import (
    FrameTooLargeError,
    HandshakeError,
    ProtocolError,
    ReproError,
    SessionAuthError,
    SessionNotFoundError,
    UnknownOperationError,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    DEFAULT_MAX_MESSAGE,
    ChunkFrame,
    ErrorFrame,
    FrameAssembler,
    Request,
    Response,
    auth_proof,
    decode_frame,
    encode_message_vectored,
    exception_to_frame,
    read_frame,
)
from repro.obs.metrics import get_registry
from repro.service.aio import AsyncServiceFront
from repro.service.registry import OpSpec
from repro.service.service import StegFSService
from repro.service.sessions import ServiceSession

__all__ = ["ServerHandle", "ServerStats", "StegFSServer", "start_in_thread"]

#: Default cap on concurrently-executing requests per connection.
DEFAULT_MAX_INFLIGHT = 32

#: Cap on outstanding handshake challenges per connection: a client that
#: sends endless ``hello`` frames without authenticating only recycles
#: these slots instead of growing server memory.
MAX_PENDING_CHALLENGES = 16

#: The one answer to a token with no live session behind it (never
#: opened, logged out, idle-evicted): fixed text, the token not in it.
_BAD_TOKEN = "invalid or expired session token; authenticate again"


@dataclass
class ServerStats:
    """Event-loop-side counters (read them via :attr:`StegFSServer.stats`).

    Every increment also lands on the process metric registry as
    ``net.server.*`` (``connections_open`` as a gauge — it goes down).
    """

    connections_total: int = 0
    connections_open: int = 0
    frames_in: int = 0
    frames_out: int = 0
    errors_out: int = 0
    auth_failures: int = 0
    sessions_opened: int = 0

    def bump(self, name: str, by: int = 1) -> None:
        """Adjust one counter here and mirror it onto the registry."""
        setattr(self, name, getattr(self, name) + by)
        if name == "connections_open":
            get_registry().gauge("net.server.connections_open").add(by)
        else:
            get_registry().counter(f"net.server.{name}").inc(by)


@dataclass(eq=False)  # identity-hashed: connections live in a set
class _Connection:
    """Per-connection state: streams, handshake nonces, write serialization."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    assembler: FrameAssembler = field(default_factory=FrameAssembler)
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    challenges: dict[str, bytes] = field(default_factory=dict)
    tasks: set[asyncio.Task] = field(default_factory=set)


class StegFSServer:
    """Serve one :class:`StegFSService` over length-prefixed TCP frames."""

    def __init__(
        self,
        service: StegFSService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        credentials: Mapping[str, bytes] | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_message: int = DEFAULT_MAX_MESSAGE,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._service = service
        self._front = AsyncServiceFront(service)
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._max_message = max(max_message, max_frame)
        self._max_inflight = max_inflight
        self._credentials: dict[str, bytes] = dict(credentials or {})
        self._credentials_lock = threading.Lock()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._stopped = asyncio.Event()
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def service(self) -> StegFSService:
        """The wrapped concurrent service."""
        return self._service

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server has not been started")
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def register_user(self, user_id: str, uak: bytes) -> None:
        """Register (or re-register) a user's access key for handshakes.

        Keys live only in server RAM, like the in-process service's
        session verifiers — nothing about users touches the disk image.
        """
        with self._credentials_lock:
            self._credentials[user_id] = uak

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def wait_stopped(self) -> None:
        """Block until :meth:`request_stop` has been called."""
        await self._stopped.wait()

    def request_stop(self) -> None:
        """Ask the accept loop to shut down (safe from loop callbacks)."""
        self._stopped.set()

    async def stop(self) -> None:
        """Stop accepting, tear down live connections, keep the service up."""
        self._stopped.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            for task in list(conn.tasks):
                task.cancel()
            conn.writer.close()
        self._connections.clear()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(
            reader=reader,
            writer=writer,
            assembler=FrameAssembler(max_message=self._max_message),
        )
        self._connections.add(conn)
        self.stats.bump("connections_total")
        self.stats.bump("connections_open")
        inflight = asyncio.Semaphore(self._max_inflight)
        try:
            while True:
                # zero_copy is safe here: every asyncio frame body is a
                # fresh buffer, and chunk payloads are copied out by the
                # assembler before the next read.
                frame = await read_frame(reader, self._max_frame, zero_copy=True)
                if frame is None:
                    break
                self.stats.bump("frames_in")
                chunked = False
                if isinstance(frame, ChunkFrame):
                    assembled = conn.assembler.add(frame)
                    if assembled is None:
                        continue
                    frame = decode_frame(assembled, zero_copy=True)
                    chunked = True
                if not isinstance(frame, Request):
                    raise ProtocolError(
                        f"expected a REQUEST frame, got {type(frame).__name__}"
                    )
                # Backpressure: when max_inflight requests are executing,
                # stop reading until one completes — TCP does the rest.
                await inflight.acquire()
                task = asyncio.ensure_future(
                    self._serve_request(conn, frame, chunked=chunked)
                )
                conn.tasks.add(task)
                task.add_done_callback(
                    lambda t, c=conn, s=inflight: (c.tasks.discard(t), s.release())
                )
        except (ProtocolError, FrameTooLargeError) as exc:
            # A malformed stream is unrecoverable: report once, then close.
            await self._send(conn, exception_to_frame(0, exc))
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Abrupt shutdown with this connection mid-read: exit cleanly
            # so asyncio's stream callback finds a result instead of
            # logging a spurious unretrieved-exception traceback — server
            # kills with live clients are routine under cluster failover.
            pass
        finally:
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            self._connections.discard(conn)
            self.stats.bump("connections_open", -1)
            writer.close()

    async def _send(
        self,
        conn: _Connection,
        frame: Response | ErrorFrame,
        *,
        allow_stream: bool = False,
    ) -> None:
        # Responses to streaming ops may exceed one frame and go out as a
        # CHUNK run; everything else must fit in max_frame as before.
        max_message = self._max_message if allow_stream else self._max_frame
        try:
            wire = encode_message_vectored(
                frame, max_frame=self._max_frame, max_message=max_message
            )
        except FrameTooLargeError as exc:
            # The *result* did not fit; the error about that always will.
            frame = exception_to_frame(frame.request_id, exc)
            wire = encode_message_vectored(frame, max_frame=self._max_frame)
        if isinstance(frame, ErrorFrame):
            self.stats.bump("errors_out")
        for buffers in wire:
            # Lock per wire frame, not per message: chunks of a long
            # stream interleave with other requests' responses (the
            # client's assembler demultiplexes by request id).
            async with conn.write_lock:
                try:
                    conn.writer.writelines(buffers)
                    await conn.writer.drain()
                    self.stats.bump("frames_out")
                except (ConnectionResetError, BrokenPipeError):
                    return

    async def _serve_request(
        self, conn: _Connection, request: Request, *, chunked: bool = False
    ) -> None:
        spec = self._service.OPS.get(request.op)
        streams = spec is not None and spec.remote and spec.streams
        if chunked and not streams:
            # A streamed control-plane request is refused after reassembly,
            # before any dispatch: only bulk-payload ops opt into CHUNK.
            exc = FrameTooLargeError(
                f"operation {request.op!r} does not accept streamed requests"
            )
            await self._send(conn, exception_to_frame(request.request_id, exc))
            return
        try:
            value = await self._execute(conn, request)
        except ReproError as exc:
            await self._send(conn, exception_to_frame(request.request_id, exc))
            return
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # non-repro bug: surface as RemoteError
            await self._send(conn, exception_to_frame(request.request_id, exc))
            return
        await self._send(
            conn,
            Response(request_id=request.request_id, value=value),
            allow_stream=streams,
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def _execute(self, conn: _Connection, request: Request) -> Any:
        op, args = request.op, request.args
        if op == "ping":
            return True
        if op == "hello":
            return self._hello(conn, args)
        if op == "authenticate":
            return await self._authenticate(conn, args)
        if op == "close_session":
            return await self._close_session(args)
        spec = self._service.OPS.get(op)
        if spec is None or not spec.remote:
            raise UnknownOperationError(
                f"operation {op!r} is not available over the wire"
            )
        kwargs = self._bind_args(spec, args)
        # Continue the client's trace: the net.server span covers queueing
        # plus execution, and the front re-activates its context inside the
        # worker thread (contextvars do not cross run_in_executor alone).
        return await self._front.call(
            op,
            _span_name=f"net.server.{op}",
            _parent=request.trace_ctx,
            **kwargs,
        )

    def _bind_args(self, spec: OpSpec, args: tuple[Any, ...]) -> dict[str, Any]:
        if spec.injects is not None:
            if not args or not isinstance(args[0], bytes):
                raise HandshakeError(
                    f"operation {spec.name!r} requires a session token as its "
                    f"first argument; authenticate first"
                )
            session = self._resolve_token(args[0])
            args = args[1:]
            credential = session.uak if spec.injects == "uak" else session.session_id
            injected: dict[str, Any] = {spec.injects: credential}
        else:
            injected = {}
        if len(args) > len(spec.params):
            raise ProtocolError(
                f"operation {spec.name!r} takes at most {len(spec.params)} "
                f"argument(s) on the wire, got {len(args)}"
            )
        if not spec.streams:
            # Streaming ops are audited end-to-end for bytes-like inputs;
            # everything else gets real bytes, as it always has.
            args = tuple(
                bytes(arg) if isinstance(arg, memoryview) else arg for arg in args
            )
        kwargs = dict(zip(spec.params, args))
        kwargs.update(injected)
        return kwargs

    def _resolve_token(self, token: bytes) -> ServiceSession:
        # The token is the service session's id, so it is exactly as alive
        # as that session: logout or idle eviction (§4's logout semantics)
        # kills it, and the UAK it would inject, in the one table there is.
        try:
            return self._service.sessions.get(token.hex())
        except SessionNotFoundError:
            raise SessionAuthError(_BAD_TOKEN) from None

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------

    def _hello(self, conn: _Connection, args: tuple[Any, ...]) -> bytes:
        if len(args) != 1 or not isinstance(args[0], str):
            raise ProtocolError("hello takes exactly one string argument (user_id)")
        nonce = secrets.token_bytes(32)
        conn.challenges[args[0]] = nonce
        while len(conn.challenges) > MAX_PENDING_CHALLENGES:
            conn.challenges.pop(next(iter(conn.challenges)))  # oldest first
        return nonce

    async def _authenticate(self, conn: _Connection, args: tuple[Any, ...]) -> bytes:
        if (
            len(args) != 2
            or not isinstance(args[0], str)
            or not isinstance(args[1], bytes)
        ):
            raise ProtocolError(
                "authenticate takes exactly (user_id: str, proof: bytes)"
            )
        user_id, proof = args
        nonce = conn.challenges.pop(user_id, None)
        if nonce is None:
            raise HandshakeError("authenticate without a preceding hello")
        with self._credentials_lock:
            uak = self._credentials.get(user_id)
        # Unknown user and wrong key fail identically: the server must not
        # reveal which users exist (the same deniability stance as
        # HiddenObjectNotFoundError).
        expected = auth_proof(uak, nonce, user_id) if uak is not None else None
        if expected is None or not constant_time_equal(proof, expected):
            self.stats.bump("auth_failures")
            raise SessionAuthError(f"authentication failed for user {user_id!r}")
        loop = asyncio.get_running_loop()
        session_id = await loop.run_in_executor(
            self._service.executor,
            functools.partial(self._service.open_session, user_id, uak),
        )
        self.stats.bump("sessions_opened")
        return bytes.fromhex(session_id)

    async def _close_session(self, args: tuple[Any, ...]) -> None:
        if len(args) != 1 or not isinstance(args[0], bytes):
            raise ProtocolError("close_session takes exactly one token argument")
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                self._service.executor,
                functools.partial(self._service.close_session, args[0].hex()),
            )
        except SessionNotFoundError:
            raise SessionAuthError(_BAD_TOKEN) from None


# ---------------------------------------------------------------------------
# background-thread runner
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on its own daemon thread with a private event loop."""

    def __init__(
        self,
        server: StegFSServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        address: tuple[str, int],
    ) -> None:
        self.server = server
        self.address = address
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        """The bound host."""
        return self.address[0]

    @property
    def port(self) -> int:
        """The bound port."""
        return self.address[1]

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_thread(
    service: StegFSService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    credentials: Mapping[str, bytes] | None = None,
    max_frame: int = DEFAULT_MAX_FRAME,
    max_message: int = DEFAULT_MAX_MESSAGE,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    startup_timeout: float = 10.0,
) -> ServerHandle:
    """Run a :class:`StegFSServer` on a daemon thread; returns its handle.

    The thread owns a private event loop: ``handle.stop()`` shuts the
    server down and joins the thread.  Port ``0`` binds an ephemeral port,
    reported in ``handle.address``.
    """
    started = threading.Event()
    holder: dict[str, Any] = {}

    def runner() -> None:
        async def main() -> None:
            server = StegFSServer(
                service,
                host,
                port,
                credentials=credentials,
                max_frame=max_frame,
                max_message=max_message,
                max_inflight=max_inflight,
            )
            try:
                await server.start()
            except Exception as exc:
                holder["error"] = exc
                started.set()
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            holder["address"] = server.address
            started.set()
            await server.wait_stopped()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="stegfs-net", daemon=True)
    thread.start()
    if not started.wait(startup_timeout):
        raise RuntimeError("server failed to start within the timeout")
    if "error" in holder:
        thread.join(startup_timeout)
        raise holder["error"]
    return ServerHandle(
        server=holder["server"],
        loop=holder["loop"],
        thread=thread,
        address=holder["address"],
    )
