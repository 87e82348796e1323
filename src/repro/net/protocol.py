"""Length-prefixed binary wire protocol for remote StegFS access.

Every message on the wire is one **frame**::

    u32 body_len | body
    body := u8 kind | u32 request_id | payload

with all integers little-endian and unsigned (matching the on-disk codec
in :mod:`repro.util.serialization`).  Four frame kinds:

* ``REQUEST``  — ``str op | value-list args``; one service operation.
* ``RESPONSE`` — ``value result``; the operation's return value.
* ``ERROR``    — ``str error_class | str message``; a typed failure.
* ``CHUNK``    — ``u32 seq | u8 flags | payload``; one bounded slice of a
  logical REQUEST/RESPONSE whose encoded body exceeds ``max_frame``.

``request_id`` correlates responses with requests, so a client may
pipeline many requests on one connection and a server may complete them
out of order.

A ``REQUEST`` body may end with one **optional trace-context field**:
marker byte ``0x54`` (``'T'``) followed by two fixed 8-byte ids —
``trace_id`` and the caller's ``span_id``.  It keys off the existing
correlation machinery (one request, one remote parent span) so a traced
client op and the server work it triggers form a single cross-process
span tree.  The field carries only opaque random ids — never names,
keys or levels — and decoders that predate it reject it loudly rather
than misparse (it sits after the argument list, inside the length-
checked body).  Requests without the field decode exactly as before.

**Values** are a small tagged union covering everything the service API
speaks: ``None``, booleans, signed 64-bit integers, floats, bytes, UTF-8
strings, homogeneous-or-not lists, and :class:`~repro.fs.filesystem.
FileStat` records.  The codec is transport-neutral; the asyncio server,
the async client and the blocking socket client all share it.

**Typed errors** round-trip the :mod:`repro.errors` hierarchy: an
``ERROR`` frame carries the exception's class name and message, and
:func:`error_to_exception` reconstructs the same class on the far side
(exceptions outside the registry surface as
:class:`~repro.errors.RemoteError`, never silently).

**Streaming** — a logical frame whose body exceeds ``max_frame`` travels
as a run of ``CHUNK`` frames, each itself under ``max_frame``::

    CHUNK body := u8 kind=4 | u32 request_id | u32 seq | u8 flags | payload

``seq`` starts at 0 and increments per chunk; flag bit ``0x01`` marks the
final chunk.  The chunk payloads, concatenated in sequence order, are
exactly the logical frame's encoded body, so a streamed transfer is
byte-identical to a whole-frame transfer after reassembly.  Chunks of
*different* request ids may interleave on one connection (pipelined
clients); :class:`FrameAssembler` keys partial messages by id, enforces
sequence order, and bounds both the per-message total (``max_message``)
and the number of simultaneously open partials.  Chunk payloads carry
opaque slices of the already-encoded body — streaming adds no plaintext
structure to the wire beyond the 10-byte chunk header.

**Zero-copy discipline** — the encode side never copies large payloads:
:func:`encode_frame_vectored` / :func:`encode_message_vectored` return
lists of buffers (small header bytes plus ``memoryview`` slices of the
caller's payload) for ``socket.sendmsg`` / ``StreamWriter.writelines``.
The receive side reads into preallocated buffers (``recv_into``; one
reusable buffer per :class:`FrameReceiver`) and can expose decoded bytes
values as ``memoryview`` slices (``zero_copy=True``) when the backing
buffer's lifetime allows it.

**Limits** — both sides enforce ``max_frame`` on encode *and* decode, so
neither a hostile peer nor an oversized payload can balloon memory; a
body length of zero or beyond the limit is a protocol error.  Streamed
messages are additionally bounded by ``max_message`` during reassembly.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from dataclasses import dataclass
from typing import Any

import repro.errors as errors_mod
from repro.crypto.hmac import hmac_sha256
from repro.errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
    RemoteError,
    ReproError,
)
from repro.fs.filesystem import FileStat
from repro.fs.inode import FileType
from repro.util.serialization import CodecError

__all__ = [
    "CHUNK_FLAG_END",
    "DEFAULT_MAX_FRAME",
    "DEFAULT_MAX_MESSAGE",
    "ERROR_REGISTRY",
    "AUTH_CONTEXT",
    "ChunkFrame",
    "ErrorFrame",
    "FrameAssembler",
    "FrameReceiver",
    "Request",
    "Response",
    "auth_proof",
    "decode_frame",
    "encode_frame",
    "encode_frame_vectored",
    "encode_message_vectored",
    "error_to_exception",
    "exception_to_frame",
    "read_frame",
    "read_message",
    "sendmsg_all",
]

#: Default per-frame ceiling (8 MiB): bounds a connection's buffering per
#: wire frame; logical payloads beyond it stream as CHUNK frames.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: Default per-*message* ceiling (128 MiB): the reassembled size one
#: streamed REQUEST/RESPONSE may reach.  Bounds what one request id can
#: pin in memory during reassembly, exactly as ``max_frame`` bounds one
#: wire frame.
DEFAULT_MAX_MESSAGE = 128 * 1024 * 1024

#: Domain-separation prefix for the HMAC challenge–response handshake
#: (see :mod:`repro.net.server`): proof = HMAC-SHA256(uak, context ||
#: nonce || user_id).  Versioned so a future handshake can coexist.
AUTH_CONTEXT = b"repro.net.hmac-auth.v1"

_LEN = struct.Struct("<I")


def auth_proof(uak: bytes, nonce: bytes, user_id: str) -> bytes:
    """The handshake proof for ``nonce``: HMAC over the challenge, never
    the key itself — this is the only place the UAK touches the protocol,
    and it does so only as MAC-key material."""
    return hmac_sha256(uak, AUTH_CONTEXT + nonce + user_id.encode("utf-8"))

# frame kinds
_REQUEST = 1
_RESPONSE = 2
_ERROR = 3
_CHUNK = 4

# value tags
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_BYTES = 5
_T_STR = 6
_T_LIST = 7
_T_STAT = 8

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

# CHUNK body header: kind, request_id, seq, flags (packed, no padding).
_CHUNK_HEAD = struct.Struct("<BIIB")
_CHUNK_OVERHEAD = _CHUNK_HEAD.size

#: Flag bit marking the final chunk of a streamed message.
CHUNK_FLAG_END = 0x01

#: Bytes values at least this large ride the vectored encode path as
#: ``memoryview`` slices instead of being copied into the header run.
_VECTOR_MIN = 4096

#: Bytes values at least this large come back as ``memoryview`` slices
#: under ``zero_copy`` decoding; smaller ones (session tokens, small
#: blobs) stay real ``bytes`` so identity checks keep working.
_ZERO_COPY_MIN = 1024

# Optional trailing REQUEST field: marker + two fixed-width hex ids.
_TRACE_MARKER = 0x54  # 'T'
_TRACE_ID_BYTES = 8


def _encode_trace_ctx(trace_ctx: tuple[str, str]) -> bytes:
    trace_id, span_id = trace_ctx
    try:
        raw = bytes.fromhex(trace_id) + bytes.fromhex(span_id)
    except ValueError:
        raise ProtocolError("trace ids must be hex strings") from None
    if len(raw) != 2 * _TRACE_ID_BYTES:
        raise ProtocolError(
            f"trace ids must be {2 * _TRACE_ID_BYTES} hex chars each"
        )
    return bytes([_TRACE_MARKER]) + raw


def _decode_trace_ctx(body: bytes, offset: int) -> tuple[tuple[str, str] | None, int]:
    if offset >= len(body) or body[offset] != _TRACE_MARKER:
        return None, offset
    offset += 1
    _need(body, offset, 2 * _TRACE_ID_BYTES, "trace context")
    trace_id = bytes(body[offset : offset + _TRACE_ID_BYTES]).hex()
    span_id = bytes(
        body[offset + _TRACE_ID_BYTES : offset + 2 * _TRACE_ID_BYTES]
    ).hex()
    return (trace_id, span_id), offset + 2 * _TRACE_ID_BYTES


def _error_registry() -> dict[str, type[Exception]]:
    registry: dict[str, type[Exception]] = {}
    for name in dir(errors_mod):
        obj = getattr(errors_mod, name)
        if isinstance(obj, type) and issubclass(obj, ReproError):
            registry[obj.__name__] = obj
    # The serialization codec's error lives outside repro.errors but is
    # part of the public failure surface (garbage frames raise it).
    registry[CodecError.__name__] = CodecError
    return registry


#: Class-name → exception-class table used to round-trip typed errors.
ERROR_REGISTRY = _error_registry()


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One operation call: ``op(*args)`` under correlation id ``request_id``.

    ``trace_ctx`` is the caller's ``(trace_id, span_id)`` pair (16 hex
    chars each) when the call runs inside a trace, else None; it rides
    the wire as the optional trace-context field.
    """

    request_id: int
    op: str
    args: tuple[Any, ...]
    trace_ctx: tuple[str, str] | None = None


@dataclass(frozen=True)
class Response:
    """A successful completion carrying the operation's return value."""

    request_id: int
    value: Any


@dataclass(frozen=True)
class ErrorFrame:
    """A failed completion carrying the typed error's class and message."""

    request_id: int
    error_class: str
    message: str


@dataclass(frozen=True)
class ChunkFrame:
    """One bounded slice of a streamed logical frame.

    ``payload`` is a slice of the logical frame's *encoded body*; the
    concatenation of a message's chunk payloads in ``seq`` order decodes
    exactly as the whole frame would have.  ``payload`` may be ``bytes``
    or a ``memoryview`` (zero-copy decode paths).
    """

    request_id: int
    seq: int
    flags: int
    payload: Any

    @property
    def is_end(self) -> bool:
        """Whether this chunk completes its message."""
        return bool(self.flags & CHUNK_FLAG_END)


Frame = Request | Response | ErrorFrame | ChunkFrame


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------


def _payload_view(value: Any) -> memoryview:
    """A flat byte view of a bytes-like value, without copying."""
    view = value if isinstance(value, memoryview) else memoryview(value)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    return view


def _encode_value_parts(value: Any, parts: list) -> int:
    """Append ``value``'s tagged wire form to ``parts``; returns its size.

    Byte-identical to the historical single-buffer encoding, but large
    bytes payloads are appended as ``memoryview`` slices instead of being
    copied — the vectored send path hands them to the kernel directly.
    """
    if value is None:
        parts.append(bytes([_T_NONE]))
        return 1
    if value is True:
        parts.append(bytes([_T_TRUE]))
        return 1
    if value is False:
        parts.append(bytes([_T_FALSE]))
        return 1
    if isinstance(value, int):
        parts.append(bytes([_T_INT]) + _I64.pack(value))
        return 9
    if isinstance(value, float):
        parts.append(bytes([_T_FLOAT]) + _F64.pack(value))
        return 9
    if isinstance(value, (bytes, bytearray, memoryview)):
        view = _payload_view(value)
        n = view.nbytes
        parts.append(bytes([_T_BYTES]) + _LEN.pack(n))
        if n >= _VECTOR_MIN:
            parts.append(view)
        elif n:
            parts.append(bytes(view))
        return 5 + n
    if isinstance(value, str):
        raw = value.encode("utf-8")
        parts.append(bytes([_T_STR]) + _LEN.pack(len(raw)) + raw)
        return 5 + len(raw)
    if isinstance(value, (list, tuple)):
        parts.append(bytes([_T_LIST]) + _LEN.pack(len(value)))
        total = 5
        for item in value:
            total += _encode_value_parts(item, parts)
        return total
    if isinstance(value, FileStat):
        parts.append(
            bytes([_T_STAT])
            + _I64.pack(value.inode)
            + bytes([int(value.type)])
            + _I64.pack(value.size)
            + _I64.pack(value.n_blocks)
        )
        return 26
    raise ProtocolError(f"cannot encode value of type {type(value).__name__}")


def encode_value(value: Any) -> bytes:
    """Serialize one API value to its tagged wire form."""
    parts: list = []
    _encode_value_parts(value, parts)
    return b"".join(parts)


def _need(buf: bytes, offset: int, width: int, what: str) -> None:
    if offset + width > len(buf):
        raise ProtocolError(
            f"truncated frame: need {width} byte(s) for {what} at offset "
            f"{offset}, have {len(buf) - offset}"
        )


def decode_value(buf: bytes, offset: int, *, zero_copy: bool = False) -> tuple[Any, int]:
    """Parse one tagged value; returns ``(value, next_offset)``.

    With ``zero_copy=True`` (and a buffer whose lifetime outlives the
    caller's use — a freshly assembled message body, never a reusable
    receive buffer), bytes values of :data:`_ZERO_COPY_MIN` or more come
    back as ``memoryview`` slices of ``buf`` instead of copies.
    """
    _need(buf, offset, 1, "value tag")
    tag = buf[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        _need(buf, offset, 8, "int")
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_FLOAT:
        _need(buf, offset, 8, "float")
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag in (_T_BYTES, _T_STR):
        _need(buf, offset, 4, "length")
        length = _LEN.unpack_from(buf, offset)[0]
        offset += 4
        _need(buf, offset, length, "bytes/str body")
        raw = buf[offset : offset + length]
        offset += length
        if tag == _T_BYTES:
            if zero_copy and length >= _ZERO_COPY_MIN:
                return _payload_view(raw), offset
            return bytes(raw), offset
        try:
            return str(raw, "utf-8"), offset
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string value: {exc}") from None
    if tag == _T_LIST:
        _need(buf, offset, 4, "list count")
        count = _LEN.unpack_from(buf, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = decode_value(buf, offset, zero_copy=zero_copy)
            items.append(item)
        return items, offset
    if tag == _T_STAT:
        _need(buf, offset, 8 + 1 + 8 + 8, "stat record")
        inode = _I64.unpack_from(buf, offset)[0]
        type_raw = buf[offset + 8]
        size = _I64.unpack_from(buf, offset + 9)[0]
        n_blocks = _I64.unpack_from(buf, offset + 17)[0]
        try:
            file_type = FileType(type_raw)
        except ValueError:
            raise ProtocolError(f"unknown file type tag {type_raw}") from None
        return FileStat(inode=inode, type=file_type, size=size, n_blocks=n_blocks), offset + 25
    raise ProtocolError(f"unknown value tag {tag}")


def _encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _LEN.pack(len(raw)) + raw


def _decode_str(buf: bytes, offset: int) -> tuple[str, int]:
    _need(buf, offset, 4, "string length")
    length = _LEN.unpack_from(buf, offset)[0]
    offset += 4
    _need(buf, offset, length, "string body")
    try:
        return str(buf[offset : offset + length], "utf-8"), offset + length
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in frame string: {exc}") from None


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------


def _frame_parts(frame: Frame) -> tuple[list, int]:
    """The frame's encoded body as a buffer list plus its total length.

    Header runs are small real ``bytes``; payloads of :data:`_VECTOR_MIN`
    or more stay ``memoryview`` slices.  ``b"".join(parts)`` is
    byte-identical to the historical single-buffer encoding.
    """
    parts: list = []
    if isinstance(frame, Request):
        head = (
            bytes([_REQUEST])
            + _LEN.pack(frame.request_id)
            + _encode_str(frame.op)
            + _LEN.pack(len(frame.args))
        )
        parts.append(head)
        total = len(head)
        for arg in frame.args:
            total += _encode_value_parts(arg, parts)
        if frame.trace_ctx is not None:
            ctx = _encode_trace_ctx(frame.trace_ctx)
            parts.append(ctx)
            total += len(ctx)
    elif isinstance(frame, Response):
        head = bytes([_RESPONSE]) + _LEN.pack(frame.request_id)
        parts.append(head)
        total = len(head) + _encode_value_parts(frame.value, parts)
    elif isinstance(frame, ErrorFrame):
        head = (
            bytes([_ERROR])
            + _LEN.pack(frame.request_id)
            + _encode_str(frame.error_class)
            + _encode_str(frame.message)
        )
        parts.append(head)
        total = len(head)
    elif isinstance(frame, ChunkFrame):
        head = _CHUNK_HEAD.pack(_CHUNK, frame.request_id, frame.seq, frame.flags)
        view = _payload_view(frame.payload)
        parts.append(head)
        total = len(head) + view.nbytes
        if view.nbytes:
            parts.append(view if view.nbytes >= _VECTOR_MIN else bytes(view))
    else:
        raise ProtocolError(f"cannot encode frame of type {type(frame).__name__}")
    return parts, total


def _too_large(body_len: int, max_frame: int) -> FrameTooLargeError:
    return FrameTooLargeError(
        f"frame body of {body_len} bytes exceeds the {max_frame}-byte limit; "
        f"payloads beyond it must stream as CHUNK frames "
        f"(encode_message_vectored)"
    )


def _coalesce(buffers: list) -> list:
    """Merge adjacent small ``bytes`` runs, leaving payload views alone.

    Keeps the iovec count per ``sendmsg`` small without ever copying a
    large payload: only header-sized real-bytes runs are joined.
    """
    out: list = []
    run: list = []
    for buf in buffers:
        if isinstance(buf, memoryview):
            if run:
                out.append(run[0] if len(run) == 1 else b"".join(run))
                run = []
            out.append(buf)
        else:
            run.append(buf)
    if run:
        out.append(run[0] if len(run) == 1 else b"".join(run))
    return out


def encode_frame(frame: Frame, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize a frame, length prefix included; enforces ``max_frame``.

    The single-buffer fallback for small frames: assembled as a parts
    list and joined exactly once (no quadratic ``+=`` concatenation),
    byte-identical on the wire to every prior release.
    """
    parts, body_len = _frame_parts(frame)
    if body_len > max_frame:
        raise _too_large(body_len, max_frame)
    return _LEN.pack(body_len) + b"".join(parts)


def encode_frame_vectored(frame: Frame, max_frame: int = DEFAULT_MAX_FRAME) -> list:
    """Serialize a frame as a buffer list for vectored I/O.

    Returns ``[header_bytes, memoryview, ...]`` — the length prefix and
    all small header runs coalesced into real ``bytes``, large payloads
    left as zero-copy ``memoryview`` slices of the caller's buffers.
    Feed the list to :func:`sendmsg_all` (blocking sockets) or
    ``StreamWriter.writelines`` (asyncio).  ``b"".join(result)`` equals
    :func:`encode_frame`'s output byte for byte.
    """
    parts, body_len = _frame_parts(frame)
    if body_len > max_frame:
        raise _too_large(body_len, max_frame)
    return _coalesce([_LEN.pack(body_len), *parts])


def encode_message_vectored(
    frame: Frame,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    max_message: int = DEFAULT_MAX_MESSAGE,
) -> list[list]:
    """Encode one logical frame as a list of wire-frame buffer lists.

    A body within ``max_frame`` yields a single vectored frame; a larger
    body (up to ``max_message``) yields a run of CHUNK frames whose
    payloads are zero-copy slices of the encoded body.  Each inner list
    is one complete wire frame (length prefix included) — send them in
    order; frames of different request ids may interleave between them.
    """
    parts, body_len = _frame_parts(frame)
    if body_len <= max_frame:
        return [_coalesce([_LEN.pack(body_len), *parts])]
    if isinstance(frame, ChunkFrame):
        raise ProtocolError("a CHUNK frame cannot itself be chunked")
    if body_len > max_message:
        raise FrameTooLargeError(
            f"message body of {body_len} bytes exceeds the {max_message}-byte "
            f"streaming limit"
        )
    chunk_cap = max_frame - _CHUNK_OVERHEAD
    if chunk_cap <= 0:
        raise ProtocolError(
            f"max_frame of {max_frame} bytes leaves no room for chunk payloads"
        )
    request_id = frame.request_id
    frames: list[list] = []
    seq = 0
    sent = 0
    pending: list = []
    pending_len = 0

    def flush() -> None:
        nonlocal seq, pending, pending_len
        flags = CHUNK_FLAG_END if sent == body_len else 0
        head = _LEN.pack(_CHUNK_OVERHEAD + pending_len) + _CHUNK_HEAD.pack(
            _CHUNK, request_id, seq, flags
        )
        frames.append(_coalesce([head, *pending]))
        seq += 1
        pending = []
        pending_len = 0

    for part in parts:
        view = part if isinstance(part, memoryview) else memoryview(part)
        while view.nbytes:
            take = min(chunk_cap - pending_len, view.nbytes)
            pending.append(view[:take])
            pending_len += take
            sent += take
            view = view[take:]
            if pending_len == chunk_cap:
                flush()
    if pending_len:
        flush()
    return frames


def decode_frame(body: bytes, *, zero_copy: bool = False) -> Frame:
    """Parse one frame body (the length prefix already stripped).

    ``body`` may be any bytes-like object.  ``zero_copy=True`` exposes
    large bytes values (and chunk payloads) as ``memoryview`` slices of
    ``body`` — only safe when ``body`` is not about to be overwritten.
    """
    _need(body, 0, 5, "frame header")
    kind = body[0]
    request_id = _LEN.unpack_from(body, 1)[0]
    offset = 5
    if kind == _REQUEST:
        op, offset = _decode_str(body, offset)
        _need(body, offset, 4, "argument count")
        argc = _LEN.unpack_from(body, offset)[0]
        offset += 4
        args = []
        for _ in range(argc):
            arg, offset = decode_value(body, offset, zero_copy=zero_copy)
            args.append(arg)
        trace_ctx, offset = _decode_trace_ctx(body, offset)
        frame: Frame = Request(
            request_id=request_id, op=op, args=tuple(args), trace_ctx=trace_ctx
        )
    elif kind == _RESPONSE:
        value, offset = decode_value(body, offset, zero_copy=zero_copy)
        frame = Response(request_id=request_id, value=value)
    elif kind == _ERROR:
        error_class, offset = _decode_str(body, offset)
        message, offset = _decode_str(body, offset)
        frame = ErrorFrame(request_id=request_id, error_class=error_class, message=message)
    elif kind == _CHUNK:
        _need(body, 0, _CHUNK_OVERHEAD, "chunk header")
        seq = _LEN.unpack_from(body, 5)[0]
        flags = body[9]
        payload: Any = body[_CHUNK_OVERHEAD:]
        if zero_copy:
            payload = _payload_view(payload)
        else:
            payload = bytes(payload)
        return ChunkFrame(request_id=request_id, seq=seq, flags=flags, payload=payload)
    else:
        raise ProtocolError(f"unknown frame kind {kind}")
    if offset != len(body):
        raise ProtocolError(
            f"frame has {len(body) - offset} trailing byte(s) after its payload"
        )
    return frame


# ---------------------------------------------------------------------------
# chunk reassembly
# ---------------------------------------------------------------------------


class FrameAssembler:
    """Reassembles streamed messages, one partial buffer per request id.

    Chunks of different ids may interleave (pipelined connections); for
    one id, ``seq`` must start at 0 and increment without gaps.  The
    assembled body accumulates in a fresh ``bytearray`` per message, so
    zero-copy decoding of the finished body is safe — nothing reuses it.

    Raises :class:`ProtocolError` on sequence violations and
    :class:`FrameTooLargeError` when a message exceeds ``max_message``.
    ``max_partials`` bounds how many half-received messages one peer may
    keep open (memory hardening against hostile interleaving).
    """

    def __init__(
        self,
        *,
        max_message: int = DEFAULT_MAX_MESSAGE,
        max_partials: int = 64,
    ) -> None:
        self._max_message = max_message
        self._max_partials = max_partials
        self._partials: dict[int, list] = {}  # request_id -> [bytearray, next_seq]

    def __len__(self) -> int:
        return len(self._partials)

    def discard(self, request_id: int) -> None:
        """Drop any partial state for ``request_id`` (connection teardown)."""
        self._partials.pop(request_id, None)

    def add(self, chunk: ChunkFrame) -> memoryview | None:
        """Feed one chunk; returns the assembled body when it completes."""
        entry = self._partials.get(chunk.request_id)
        if entry is None:
            if chunk.seq != 0:
                raise ProtocolError(
                    f"chunk seq {chunk.seq} for request {chunk.request_id} "
                    f"without a preceding seq 0"
                )
            if len(self._partials) >= self._max_partials:
                raise ProtocolError(
                    f"too many interleaved streamed messages "
                    f"(limit {self._max_partials})"
                )
            entry = self._partials[chunk.request_id] = [bytearray(), 0]
        elif chunk.seq != entry[1]:
            self._partials.pop(chunk.request_id, None)
            raise ProtocolError(
                f"chunk seq {chunk.seq} for request {chunk.request_id}, "
                f"expected {entry[1]}"
            )
        if not chunk.is_end and len(chunk.payload) == 0:
            # A non-final chunk must make progress; tolerating empties
            # would let a peer spin seq forever without growing the body.
            self._partials.pop(chunk.request_id, None)
            raise ProtocolError(
                f"empty non-final chunk for request {chunk.request_id}"
            )
        buf: bytearray = entry[0]
        if len(buf) + len(chunk.payload) > self._max_message:
            self._partials.pop(chunk.request_id, None)
            raise FrameTooLargeError(
                f"streamed message for request {chunk.request_id} exceeds the "
                f"{self._max_message}-byte limit"
            )
        buf.extend(chunk.payload)
        entry[1] += 1
        if not chunk.is_end:
            return None
        self._partials.pop(chunk.request_id, None)
        if not buf:
            raise ProtocolError("streamed message assembled to an empty body")
        if buf[0] == _CHUNK:
            raise ProtocolError("streamed message cannot nest CHUNK frames")
        return memoryview(buf)


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------


def exception_to_frame(request_id: int, exc: BaseException) -> ErrorFrame:
    """The wire form of an exception raised while serving a request."""
    return ErrorFrame(
        request_id=request_id,
        error_class=type(exc).__name__,
        message=str(exc),
    )


def error_to_exception(frame: ErrorFrame) -> Exception:
    """Reconstruct the typed exception an ``ERROR`` frame describes."""
    cls = ERROR_REGISTRY.get(frame.error_class)
    if cls is not None:
        return cls(frame.message)
    return RemoteError(f"{frame.error_class}: {frame.message}")


# ---------------------------------------------------------------------------
# transport helpers (shared by the asyncio server/client and the blocking
# socket client — one codec, three fronts)
# ---------------------------------------------------------------------------


def _check_length(length: int, max_frame: int) -> None:
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_frame:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame, over the {max_frame}-byte limit"
        )


async def _read_body(
    reader: asyncio.StreamReader, max_frame: int
) -> bytes | None:
    """One wire frame body from an asyncio stream; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection dropped mid-length-prefix") from None
    length = _LEN.unpack(header)[0]
    _check_length(length, max_frame)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection dropped mid-frame") from None


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame: int = DEFAULT_MAX_FRAME,
    *,
    zero_copy: bool = False,
) -> Frame | None:
    """Read one wire frame from an asyncio stream; ``None`` on clean EOF.

    May return a :class:`ChunkFrame`; callers that speak streams feed it
    to a :class:`FrameAssembler` (or use :func:`read_message`).
    ``zero_copy`` is safe here: each body is a fresh buffer.
    """
    body = await _read_body(reader, max_frame)
    if body is None:
        return None
    return decode_frame(body, zero_copy=zero_copy)


async def read_message(
    reader: asyncio.StreamReader,
    max_frame: int = DEFAULT_MAX_FRAME,
    *,
    assembler: FrameAssembler | None = None,
    zero_copy: bool = False,
) -> Frame | None:
    """Read one *logical* frame, reassembling streamed chunks.

    ``assembler`` carries partial-message state across calls (one per
    connection); without one, an arriving CHUNK is a protocol error.
    """
    while True:
        body = await _read_body(reader, max_frame)
        if body is None:
            return None
        if body[0] == _CHUNK:
            if assembler is None:
                raise ProtocolError("unexpected CHUNK frame (streaming not enabled)")
            chunk = decode_frame(body, zero_copy=True)
            assembled = assembler.add(chunk)
            if assembled is None:
                continue
            return decode_frame(assembled, zero_copy=zero_copy)
        return decode_frame(body, zero_copy=zero_copy)


class _RecvBuffer:
    """A reusable, grow-only receive buffer for one blocking connection."""

    __slots__ = ("_buf",)

    def __init__(self, initial: int = 64 * 1024) -> None:
        self._buf = bytearray(initial)

    def recv_exactly(self, sock: socket.socket, n: int) -> memoryview | None:
        """Exactly ``n`` bytes as a view into the reusable buffer.

        The view is valid until the next call — decode (or copy) before
        reading again.  ``None`` on EOF before the first byte.
        """
        if n > len(self._buf):
            self._buf = bytearray(max(n, 2 * len(self._buf)))
        view = memoryview(self._buf)[:n]
        got = 0
        while got < n:
            read = sock.recv_into(view[got:])
            if read == 0:
                if got == 0:
                    return None
                raise ProtocolError("connection dropped mid-frame")
            got += read
        return view


class FrameReceiver:
    """Blocking-socket receive half: reusable buffer plus reassembly.

    One per connection.  :meth:`recv_message` returns logical frames
    (chunks reassembled); :meth:`recv_wire` returns raw wire frames for
    callers that stream incrementally.
    """

    def __init__(
        self,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_message: int = DEFAULT_MAX_MESSAGE,
    ) -> None:
        self.max_frame = max_frame
        self.max_message = max_message
        self._buf = _RecvBuffer()
        self._assembler = FrameAssembler(max_message=max_message)

    def _recv_body(self, sock: socket.socket) -> memoryview:
        header = self._buf.recv_exactly(sock, 4)
        if header is None:
            raise ConnectionClosedError("server closed the connection")
        length = _LEN.unpack(header)[0]
        _check_length(length, self.max_frame)
        body = self._buf.recv_exactly(sock, length)
        if body is None:
            raise ProtocolError("connection dropped mid-frame")
        return body

    def recv_wire(self, sock: socket.socket, *, zero_copy: bool = False) -> Frame:
        """One wire frame (possibly a CHUNK); typed error on EOF.

        Zero-copy values alias the reusable buffer: they are valid only
        until the next receive on this connection.
        """
        return decode_frame(self._recv_body(sock), zero_copy=zero_copy)

    def recv_message(self, sock: socket.socket, *, zero_copy: bool = False) -> Frame:
        """One logical frame, reassembling streamed chunks.

        Non-chunked frames always decode with copies (their bodies alias
        the reusable buffer); ``zero_copy`` applies to *assembled*
        streamed bodies, which are fresh per message and safe to alias.
        """
        while True:
            body = self._recv_body(sock)
            if body[0] != _CHUNK:
                return decode_frame(body)
            # The chunk payload aliases the reusable buffer; the
            # assembler's extend() copies it out before the next read.
            assembled = self._assembler.add(decode_frame(body, zero_copy=True))
            if assembled is not None:
                return decode_frame(assembled, zero_copy=zero_copy)


#: Iovec batch size per sendmsg call (IOV_MAX is ~1024 on Linux; stay
#: far under it — coalesced frames rarely exceed a handful of buffers).
_SENDMSG_BATCH = 64

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def sendmsg_all(sock: socket.socket, buffers: list) -> None:
    """Vectored ``sendall``: hand the kernel a buffer list, no join.

    Loops on partial sends, advancing views instead of copying.  Falls
    back to ``sendall`` of a join on platforms without ``sendmsg``.
    """
    if not _HAS_SENDMSG:  # pragma: no cover - platform fallback
        sock.sendall(b"".join(buffers))
        return
    views = [b if isinstance(b, memoryview) else memoryview(b) for b in buffers]
    while views:
        sent = sock.sendmsg(views[:_SENDMSG_BATCH])
        while sent:
            first = views[0].nbytes
            if sent >= first:
                views.pop(0)
                sent -= first
            else:
                views[0] = views[0][sent:]
                sent = 0
