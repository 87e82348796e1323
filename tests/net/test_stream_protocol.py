"""The streaming wire path: vectored encode, CHUNK runs, reassembly.

Three layers of pinning:

* **golden bytes** — ``encode_frame`` output is frozen as hex so the
  vectored rewrite (parts list + single join) can never drift from the
  historical framing, even by one byte;
* **chunked ≡ whole** — a Hypothesis property proves that splitting any
  logical frame into CHUNK wire frames and reassembling them yields the
  identical frame, across the boundary sizes the issue calls out
  (0, 1, frame-boundary ± 1, 3 × max_frame);
* **transport plumbing** — ``sendmsg_all`` + ``FrameReceiver`` move real
  bytes over a socketpair, including partial-send and huge-iovec paths;
* **hostile peer** — a Hypothesis fuzz target feeds arbitrary and mutated
  byte streams through :func:`read_message`, the one receive path every
  client and the server use.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameTooLargeError, ProtocolError
from repro.net.protocol import (
    CHUNK_FLAG_END,
    ChunkFrame,
    ErrorFrame,
    FrameAssembler,
    FrameReceiver,
    Request,
    Response,
    decode_frame,
    encode_frame,
    encode_frame_vectored,
    encode_message_vectored,
    read_message,
    sendmsg_all,
)

# ---------------------------------------------------------------------------
# golden bytes: the framing is an on-wire contract, frozen as hex
# ---------------------------------------------------------------------------

GOLDEN = {
    "request": (
        Request(request_id=7, op="steg_write_extent", args=("obj", 4096, b"\x00\x01\x02\x03")),
        "38000000010700000011000000737465675f77726974655f657874656e74"
        "0300000006030000006f626a030010000000000000050400000000010203",
    ),
    "traced_request": (
        Request(request_id=7, op="ping", args=(), trace_ctx=("a1b2c3d4e5f60718", "1122334455667788")),
        "2200000001070000000400000070696e670000000054a1b2c3d4e5f60718" "1122334455667788",
    ),
    "response": (
        Response(request_id=7, value=b"\xff" * 8),
        "1200000002070000000508000000ffffffffffffffff",
    ),
    "error": (
        ErrorFrame(request_id=9, error_class="HiddenObjectNotFoundError", message="no such hidden object"),
        "3b00000003090000001900000048696464656e4f626a6563744e6f74466f"
        "756e644572726f72150000006e6f20737563682068696464656e206f626a"
        "656374",
    ),
    "mixed": (
        Response(request_id=3, value=[None, True, False, -5, 2.5, "hi", [b"x"]]),
        "310000000203000000070700000000020103fbffffffffffffff04000000"
        "0000000440060200000068690701000000050100000078",
    ),
    "chunk": (
        ChunkFrame(request_id=7, seq=2, flags=CHUNK_FLAG_END, payload=b"tail"),
        "0e000000040700000002000000017461696c",
    ),
}


class TestGoldenBytes:
    """``encode_frame`` is pinned byte-for-byte against frozen hex."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encode_matches_golden(self, name):
        frame, hexpin = GOLDEN[name]
        assert encode_frame(frame).hex() == hexpin

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_vectored_join_equals_encode(self, name):
        frame, hexpin = GOLDEN[name]
        joined = b"".join(bytes(part) for part in encode_frame_vectored(frame))
        assert joined.hex() == hexpin

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_decodes_back(self, name):
        frame, hexpin = GOLDEN[name]
        body = bytes.fromhex(hexpin)[4:]
        assert decode_frame(body) == frame

    def test_large_payload_rides_as_memoryview(self):
        # Payloads at or above the vectoring threshold must NOT be copied
        # into the joined header: they appear as distinct buffer entries.
        payload = bytes(range(256)) * 64  # 16 KiB
        parts = encode_frame_vectored(Response(request_id=1, value=payload))
        views = [p for p in parts if isinstance(p, memoryview)]
        assert views, "large payload should be a memoryview, not a copy"
        assert sum(len(v) for v in views) == len(payload)


# ---------------------------------------------------------------------------
# chunked transfer ≡ whole-frame transfer (Hypothesis property)
# ---------------------------------------------------------------------------

MAX_FRAME = 1024
# Payload budget of the first CHUNK of a run under MAX_FRAME: the chunk
# header (kind/rid/seq/flags) eats 10 bytes of each wire frame.
CHUNK_CAP = MAX_FRAME - 10


def _roundtrip(frame, *, max_frame=MAX_FRAME):
    """Push one logical frame through encode_message_vectored + FrameAssembler."""
    assembler = FrameAssembler()
    out = None
    for buffers in encode_message_vectored(frame, max_frame=max_frame):
        body = b"".join(bytes(b) for b in buffers)[4:]
        wire = decode_frame(body)
        if isinstance(wire, ChunkFrame):
            assert out is None, "frames after the END chunk"
            done = assembler.add(wire)
            if done is not None:
                out = decode_frame(bytes(done))
        else:
            assert out is None
            out = wire
    assert out is not None, "stream never completed"
    assert len(assembler) == 0, "assembler retained a partial after END"
    return out


# The issue's boundary sizes, plus a fuzzed band around the chunk cap.
BOUNDARY_SIZES = [0, 1, CHUNK_CAP - 1, CHUNK_CAP, CHUNK_CAP + 1, MAX_FRAME - 1, MAX_FRAME, MAX_FRAME + 1, 3 * MAX_FRAME]


class TestChunkedEqualsWhole:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_boundary_sizes_roundtrip(self, size):
        frame = Response(request_id=11, value=bytes(i & 0xFF for i in range(size)))
        assert _roundtrip(frame) == frame

    @given(size=st.integers(min_value=0, max_value=3 * MAX_FRAME), rid=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_sizes_roundtrip(self, size, rid):
        frame = Response(request_id=rid, value=b"\xa5" * size)
        assert _roundtrip(frame) == frame

    @given(data=st.binary(min_size=0, max_size=4 * MAX_FRAME))
    @settings(max_examples=30, deadline=None)
    def test_request_payloads_roundtrip(self, data):
        frame = Request(request_id=5, op="steg_write_extent", args=("obj", 0, data))
        got = _roundtrip(frame)
        assert got.op == frame.op
        assert got.request_id == frame.request_id
        assert tuple(bytes(a) if isinstance(a, (bytes, memoryview)) else a for a in got.args) == frame.args

    def test_small_frame_is_a_single_wire_frame(self):
        frame = Response(request_id=1, value=b"tiny")
        messages = encode_message_vectored(frame, max_frame=MAX_FRAME)
        assert len(messages) == 1

    def test_every_wire_frame_respects_max_frame(self):
        frame = Response(request_id=1, value=b"z" * (3 * MAX_FRAME))
        for buffers in encode_message_vectored(frame, max_frame=MAX_FRAME):
            total = sum(len(b) for b in buffers)
            assert total - 4 <= MAX_FRAME  # minus the length prefix

    def test_over_max_message_refused(self):
        frame = Response(request_id=1, value=b"z" * 4096)
        with pytest.raises(FrameTooLargeError):
            encode_message_vectored(frame, max_frame=MAX_FRAME, max_message=2048)

    def test_chunking_a_chunk_refused(self):
        chunk = ChunkFrame(request_id=1, seq=0, flags=0, payload=b"x" * 4096)
        with pytest.raises(ProtocolError):
            encode_message_vectored(chunk, max_frame=MAX_FRAME)


# ---------------------------------------------------------------------------
# FrameAssembler discipline
# ---------------------------------------------------------------------------


def _chunks_for(frame, *, max_frame=MAX_FRAME):
    out = []
    for buffers in encode_message_vectored(frame, max_frame=max_frame):
        body = b"".join(bytes(b) for b in buffers)[4:]
        out.append(decode_frame(body))
    return out


class TestFrameAssembler:
    def test_out_of_order_seq_rejected(self):
        chunks = _chunks_for(Response(request_id=1, value=b"q" * (3 * MAX_FRAME)))
        assembler = FrameAssembler()
        assembler.add(chunks[0])
        with pytest.raises(ProtocolError):
            assembler.add(chunks[2])

    def test_stream_must_start_at_seq_zero(self):
        chunks = _chunks_for(Response(request_id=1, value=b"q" * (3 * MAX_FRAME)))
        with pytest.raises(ProtocolError):
            FrameAssembler().add(chunks[1])

    def test_interleaved_streams_reassemble_independently(self):
        a = Response(request_id=1, value=b"a" * (2 * MAX_FRAME))
        b = Response(request_id=2, value=b"b" * (2 * MAX_FRAME))
        ca, cb = _chunks_for(a), _chunks_for(b)
        assembler = FrameAssembler()
        done = []
        # strict interleave: a0 b0 a1 b1 ...
        for pair in zip(ca, cb):
            for chunk in pair:
                assembled = assembler.add(chunk)
                if assembled is not None:
                    done.append(decode_frame(bytes(assembled)))
        assert sorted(f.request_id for f in done) == [1, 2]
        assert {f.request_id: f.value for f in done} == {1: a.value, 2: b.value}

    def test_message_size_limit_enforced(self):
        chunks = _chunks_for(Response(request_id=1, value=b"q" * (3 * MAX_FRAME)))
        assembler = FrameAssembler(max_message=MAX_FRAME)
        with pytest.raises(FrameTooLargeError):
            for chunk in chunks:
                assembler.add(chunk)

    def test_partial_stream_limit_enforced(self):
        assembler = FrameAssembler(max_partials=2)
        long = Response(request_id=0, value=b"q" * (2 * MAX_FRAME))
        with pytest.raises(ProtocolError):
            for rid in range(3):
                chunks = _chunks_for(Response(request_id=rid, value=long.value))
                assembler.add(chunks[0])  # open a partial, never finish it

    def test_discard_frees_a_partial(self):
        assembler = FrameAssembler(max_partials=1)
        chunks = _chunks_for(Response(request_id=1, value=b"q" * (2 * MAX_FRAME)))
        assembler.add(chunks[0])
        assert len(assembler) == 1
        assembler.discard(1)
        assert len(assembler) == 0
        # Slot is genuinely free: a new stream can start.
        other = _chunks_for(Response(request_id=2, value=b"r" * (2 * MAX_FRAME)))
        for chunk in other:
            assembled = assembler.add(chunk)
        assert decode_frame(bytes(assembled)).request_id == 2

    def test_empty_mid_stream_chunk_rejected(self):
        assembler = FrameAssembler()
        assembler.add(ChunkFrame(request_id=1, seq=0, flags=0, payload=b"x"))
        with pytest.raises(ProtocolError):
            assembler.add(ChunkFrame(request_id=1, seq=1, flags=0, payload=b""))

    def test_assembled_bytes_match_original_frame(self):
        frame = Request(request_id=9, op="steg_write", args=("doc", b"\x01" * (2 * MAX_FRAME + 37)))
        assert _roundtrip(frame).args[1] == frame.args[1]


# ---------------------------------------------------------------------------
# sendmsg_all + FrameReceiver over a real socketpair
# ---------------------------------------------------------------------------


class TestSocketTransport:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_sendmsg_roundtrip_single_frame(self):
        a, b = self._pair()
        try:
            frame = Response(request_id=4, value=b"\x5a" * 512)
            sendmsg_all(a, encode_frame_vectored(frame))
            got = FrameReceiver(max_frame=MAX_FRAME).recv_message(b)
            assert got == frame
        finally:
            a.close()
            b.close()

    def test_sendmsg_many_buffers(self):
        # More buffers than one sendmsg iovec batch: exercises the
        # batching loop, not just a single syscall.
        a, b = self._pair()
        try:
            buffers = [b"%03d" % i for i in range(300)]
            sendmsg_all(a, list(buffers))
            expect = b"".join(buffers)
            got = bytearray()
            while len(got) < len(expect):
                got.extend(b.recv(65536))
            assert bytes(got) == expect
        finally:
            a.close()
            b.close()

    def test_receiver_reassembles_chunked_message(self):
        a, b = self._pair()
        try:
            frame = Response(request_id=6, value=b"\x42" * (3 * MAX_FRAME))
            receiver = FrameReceiver(max_frame=MAX_FRAME)
            import threading

            def pump():
                for buffers in encode_message_vectored(frame, max_frame=MAX_FRAME):
                    sendmsg_all(a, buffers)

            t = threading.Thread(target=pump)
            t.start()
            got = receiver.recv_message(b)
            t.join()
            assert got == frame
        finally:
            a.close()
            b.close()

    def test_receiver_rejects_oversized_wire_frame(self):
        a, b = self._pair()
        try:
            frame = Response(request_id=1, value=b"x" * (2 * MAX_FRAME))
            # Sender ignores the receiver's frame cap: one giant frame.
            sendmsg_all(a, encode_frame_vectored(frame))
            with pytest.raises(FrameTooLargeError):
                FrameReceiver(max_frame=MAX_FRAME).recv_message(b)
        finally:
            a.close()
            b.close()

    def test_receiver_signals_clean_eof(self):
        from repro.errors import ConnectionClosedError

        a, b = self._pair()
        a.close()
        try:
            with pytest.raises(ConnectionClosedError):
                FrameReceiver(max_frame=MAX_FRAME).recv_message(b)
        finally:
            b.close()


# ---------------------------------------------------------------------------
# hostile peer: fuzzing the one receive path
# ---------------------------------------------------------------------------

FUZZ_FRAME = 256
FUZZ_MESSAGE = 1024


def _wire(frame) -> list[bytes]:
    """One logical frame as the wire frames a peer would send."""
    return [
        b"".join(bytes(b) for b in buffers)
        for buffers in encode_message_vectored(
            frame, max_frame=FUZZ_FRAME, max_message=8 * FUZZ_MESSAGE
        )
    ]


_ids = st.integers(min_value=0, max_value=3)
#: Payload sizes: up to a frame, or around the message limit (the runs
#: whose last chunk decides between a frame and a refusal).
_payloads = st.one_of(
    st.integers(0, FUZZ_FRAME), st.integers(FUZZ_MESSAGE - 32, FUZZ_MESSAGE + 32)
).map(lambda n: bytes([n % 251]) * n)
_values = st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=8), _payloads)
_frames = st.one_of(
    st.builds(lambda rid, v: Response(request_id=rid, value=v), _ids, _values),
    st.builds(lambda rid, v: Request(request_id=rid, op="ping", args=(v,)), _ids, _values),
    st.builds(
        lambda rid, m: ErrorFrame(request_id=rid, error_class="ProtocolError", message=m),
        _ids,
        st.text(max_size=16),
    ),
)
#: Wire pieces: mostly well-formed frames (chunked past FUZZ_FRAME, so
#: CHUNK runs of several ids), else a length prefix over arbitrary bytes
#: or bare garbage.
_pieces = st.one_of(
    _frames.map(_wire),
    _frames.map(_wire),
    st.binary(max_size=300).map(lambda body: [struct.pack("<I", len(body)) + body]),
    st.tuples(st.integers(0, (1 << 32) - 1), st.binary(max_size=64)).map(
        lambda t: [struct.pack("<I", t[0]) + t[1]]
    ),
    st.binary(max_size=32).map(lambda junk: [junk]),
)


def _fits(frame) -> bool:
    """Whether ``frame``'s body is within the message limit."""
    return len(encode_frame(frame)) - 4 <= FUZZ_MESSAGE


@st.composite
def _hostile_streams(draw) -> bytes:
    """A peer's whole stream; each distortion applies to some draws only,
    so well-formed runs reach their end often enough to be checked too."""
    wire = [frame for piece in draw(st.lists(_pieces, max_size=8)) for frame in piece]
    if draw(st.booleans()):
        wire = draw(st.permutations(wire))  # interleave ids, break seq order
    data = bytearray(b"".join(wire))
    if data and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]  # the peer hangs up mid-stream
    return bytes(data)


async def _drain(data: bytes) -> list:
    """Loop ``read_message`` over ``data`` as a peer's whole stream."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    assembler = FrameAssembler(max_message=FUZZ_MESSAGE)
    frames = []
    while True:
        try:
            frame = await asyncio.wait_for(
                read_message(reader, FUZZ_FRAME, assembler=assembler), timeout=5
            )
        except (ProtocolError, FrameTooLargeError):
            return frames
        finally:
            assert all(len(buf) <= FUZZ_MESSAGE for buf, _ in assembler._partials.values())
        if frame is None:
            return frames
        assert isinstance(frame, (Request, Response, ErrorFrame))
        assert _fits(frame)
        frames.append(frame)


class TestHostilePeer:
    @settings(max_examples=300, deadline=None)
    @given(_hostile_streams())
    def test_read_message_survives_any_byte_stream(self, data):
        # Each step yields a frame, ends at EOF, or raises a typed wire
        # error; anything else (or a hang, caught by wait_for) fails.
        asyncio.run(_drain(data))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_frames.filter(_fits), max_size=6))
    def test_well_formed_streams_read_back(self, frames):
        data = b"".join(wire for frame in frames for wire in _wire(frame))
        assert asyncio.run(_drain(data)) == frames
