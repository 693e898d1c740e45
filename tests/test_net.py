"""Tests for the wire format, the answer server, and networked retrieval."""
from __future__ import annotations

import io
import queue
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc
import types
from collections import Counter
from contextlib import ExitStack, contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mpir import gf, net
from mpir.params import Params
from mpir.prob import build_prob_table
from mpir.protocol import MessageStore, run_round, server_answer


@pytest.fixture
def params():
    return Params(K=4, D=2, q=3, m=8)


@pytest.fixture
def store(params):
    return MessageStore.random(params, random.Random(2024))


@contextmanager
def serving(store, ports=(0, 0, 0), host="127.0.0.1"):
    servers = [net.StoreServer(store, host, port) for port in ports]
    for s in servers:
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        threading.Thread(target=s.serve_forever, args=(0.05,), daemon=True).start()
    try:
        yield [(host, s.port) for s in servers]
    finally:
        for s in servers:
            s.shutdown()
            s.server_close()


@pytest.fixture
def cluster(store):
    with serving(store) as endpoints:
        yield endpoints


@pytest.fixture
def capped_cluster(store, monkeypatch):
    """A cluster whose servers have two worker threads each."""
    monkeypatch.setattr(net.StoreServer, "max_workers", 2)
    with serving(store) as endpoints:
        yield endpoints


@pytest.fixture
def connection_ends(monkeypatch):
    """A queue that gets each connection a server has finished with, after
    any error report for it."""
    ended = queue.SimpleQueue()
    close = net.StoreServer.shutdown_request

    def recording_close(server, request):
        close(server, request)
        ended.put(request)

    monkeypatch.setattr(net.StoreServer, "shutdown_request", recording_close)
    return ended


@pytest.fixture
def accepts(monkeypatch):
    """A Counter of the connections each server, by port, has accepted."""
    counts = Counter()
    accept = net.StoreServer.process_request

    def counting_accept(server, request, client_address):
        counts[server.port] += 1
        accept(server, request, client_address)

    monkeypatch.setattr(net.StoreServer, "process_request", counting_accept)
    return counts


@pytest.fixture
def stalling_server():
    """start(header) runs a one-shot server that reads a query, replies with
    only `header`, and keeps the connection open until the test ends, or
    with reset=True resets it at once; it returns the server's endpoint."""
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def start(header, reset=False):
        def run():
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(header)
                if reset:  # a zero linger time makes the close a reset
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                    return
                done.wait(10)

        threading.Thread(target=run, daemon=True).start()
        return listener.getsockname()

    try:
        yield start
    finally:
        done.set()
        listener.close()


# What a server may reply to a query at the params fixture's m = 8 and
# q = 3, whose elements take one byte.
REPLIES = {net.MSG_ANSWER: 8, net.MSG_EMPTY_ANSWER: 0, net.MSG_ERROR: net._MAX_ERROR}


QUERY_X1 = net.pack_frame(net.MSG_QUERY, bytes([1, 0, 0, 0]))


def answered(sock):
    """Send a query on an open connection and read its answer, so that a
    worker is known to hold the connection."""
    sock.sendall(QUERY_X1)
    with sock.makefile("rb") as stream:
        return net.read_frame(stream, REPLIES)[0] == net.MSG_ANSWER


def assert_busy(endpoint):
    """Connect, send nothing, and expect ERROR "server busy" and then EOF."""
    with socket.create_connection(endpoint, timeout=5) as sock, sock.makefile("rb") as stream:
        msg_type, payload = net.read_frame(stream, REPLIES)
        assert msg_type == net.MSG_ERROR
        assert b"busy" in payload
        with pytest.raises(net.ConnectionClosed):
            net.read_frame(stream, REPLIES)


def reset(sock):
    """Close a connection with an RST instead of a FIN."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def raw_exchange(endpoint, payload_bytes):
    with socket.create_connection(endpoint, timeout=10) as sock:
        sock.sendall(payload_bytes)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


LARGE = 4 << 20  # payload bytes of the large-frame tests


def split(frame):
    """frame in pieces of uneven sizes, cut before any memory is traced."""
    pieces, start, size = [], 0, 1
    while start < len(frame):
        pieces.append(frame[start:start + size])
        start += size
        size = size * 7 % 300_007 + 1
    return pieces


@contextmanager
def socket_feed(pieces):
    """A buffered read stream on one end of a socket pair, with a thread
    writing `pieces` to the other end and then closing it."""
    reader, writer = socket.socketpair()

    def feed():
        with writer:
            for piece in pieces:
                writer.sendall(piece)

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        with reader, reader.makefile("rb") as stream:
            yield stream
    finally:
        thread.join(10)
    assert not thread.is_alive()


class TestFrames:
    def test_round_trip(self):
        frame = net.pack_frame(net.MSG_QUERY, b"abc")
        msg_type, payload = net.read_frame(io.BytesIO(frame), {net.MSG_QUERY: 3})
        assert (msg_type, payload) == (net.MSG_QUERY, b"abc")

    def test_header_layout(self):
        frame = net.pack_frame(net.MSG_ANSWER, b"\x01\x02")
        assert frame[:4] == struct.pack("<I", 2)
        assert frame[4] == net.MSG_ANSWER

    def test_unknown_type_rejected(self):
        with pytest.raises(net.ProtocolError):
            net.pack_frame(9)
        bad = struct.pack("<IB", 0, 9)
        with pytest.raises(net.ProtocolError):
            net.read_frame(io.BytesIO(bad), {net.MSG_QUERY: 0})

    def test_truncation_rejected(self):
        frame = net.pack_frame(net.MSG_QUERY, b"abcdef")
        with pytest.raises(net.ProtocolError):
            net.read_frame(io.BytesIO(frame[:7]), {net.MSG_QUERY: 6})

    @pytest.mark.parametrize("pos", [0, 7])
    def test_element_out_of_range_rejected(self, params, pos):
        values = [0] * params.m
        values[pos] = params.q
        frame = net.pack_frame(net.MSG_ANSWER, gf.encode(values, params.q))
        with pytest.raises(net.ProtocolError, match="out of range"):
            net._read_answer(io.BytesIO(frame), ("127.0.0.1", 1), params.m, params.q)

    def test_clean_close(self):
        with pytest.raises(net.ConnectionClosed):
            net.read_frame(io.BytesIO(b""), {net.MSG_QUERY: 0})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_truncated_header_rejected(self, n):
        frame = net.pack_frame(net.MSG_QUERY, b"abc")
        with pytest.raises(net.ProtocolError, match=rf"truncated frame header \({n} bytes\)"):
            net.read_frame(io.BytesIO(frame[:n]), {net.MSG_QUERY: 3})

    def test_large_frame_read_whole_in_one_buffer(self):
        # A 4 MiB ANSWER written over a socket in uneven pieces comes back
        # whole, and reading it allocates the payload's bytes about once.
        payload = bytes(range(251)) * (LARGE // 251) + bytes(LARGE % 251)
        pieces = split(net.pack_frame(net.MSG_ANSWER, payload))
        with socket_feed(pieces) as stream:
            tracemalloc.start()
            try:
                msg_type, got = net.read_frame(stream, {net.MSG_ANSWER: LARGE})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (msg_type, got) == (net.MSG_ANSWER, payload)
        assert peak <= 1.1 * LARGE

    def test_large_payload_cut_short_is_truncated(self):
        pieces = split(net.pack_frame(net.MSG_ANSWER, bytes(LARGE))[:-1])
        with socket_feed(pieces) as stream:
            with pytest.raises(net.ProtocolError,
                               match=rf"truncated payload \({LARGE - 1}/{LARGE} bytes\)"):
                net.read_frame(stream, {net.MSG_ANSWER: LARGE})


class TestStoreFile:
    def test_round_trip(self, tmp_path, store):
        path = tmp_path / "store.bin"
        net.write_store(path, store)
        assert path.stat().st_size == 21 + store.K * store.m * gf.element_width(store.q)
        assert net.read_store(path) == store

    @pytest.mark.parametrize("q", [65521, 2**31 - 1, 2**64 - 59])
    def test_wide_field_round_trip_is_w_bytes(self, tmp_path, q):
        store = MessageStore.random(Params(K=3, D=2, q=q, m=5), random.Random(q))
        path = tmp_path / "store.bin"
        net.write_store(path, store)
        w = gf.element_width(q)
        values = [v for msg in store.messages for v in gf.decode(msg, q)]
        assert path.read_bytes()[21:] == b"".join(v.to_bytes(w, "little") for v in values)
        assert net.read_store(path) == store

    def test_write_holds_no_copy_of_the_store(self, tmp_path):
        # Messages go to the file one at a time: no whole-store join.
        params = Params(K=8, D=2, q=7, m=2**16)
        store = MessageStore.random(params, random.Random(5))
        path = tmp_path / "store.bin"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.write_store(path, store)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grown < params.m
        assert path.read_bytes()[21:] == b"".join(store.messages)

    def test_version_1_file_rejected_by_name(self, tmp_path, store):
        path = tmp_path / "store.bin"
        header = struct.pack("<QII", store.q, store.K, store.m)
        path.write_bytes(b"MPIR1" + header + bytes(8 * store.K * store.m))
        with pytest.raises(net.StoreFormatError, match=r"format version 1 .*`mpir store init`"):
            net.read_store(path)

    def test_bad_magic(self, tmp_path, store):
        path = tmp_path / "store.bin"
        net.write_store(path, store)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(net.StoreFormatError):
            net.read_store(path)

    def test_bad_size(self, tmp_path, store):
        path = tmp_path / "store.bin"
        net.write_store(path, store)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(net.StoreFormatError):
            net.read_store(path)

    def test_element_out_of_range(self, tmp_path, store):
        path = tmp_path / "store.bin"
        net.write_store(path, store)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 21, store.q)  # first element now == q
        path.write_bytes(bytes(raw))
        with pytest.raises(net.StoreFormatError):
            net.read_store(path)

    @pytest.mark.parametrize("q,K,m", [(4, 4, 8), (9, 4, 8), (1, 4, 8), (3, 1, 8), (3, 4, 0)])
    def test_header_not_an_instance(self, tmp_path, q, K, m):
        # Z/4 is not a field, and a store needs K >= 2 messages of m >= 1
        # elements; the file is otherwise well formed.
        path = tmp_path / "store.bin"
        path.write_bytes(net.MAGIC + struct.pack("<QII", q, K, m) + bytes(8 * K * m))
        with pytest.raises(net.StoreFormatError, match="not an instance"):
            net.read_store(path)

    @pytest.mark.parametrize("q,m,messages", [
        (7, 2, (bytes(2),)), (4, 2, (bytes(2),) * 2), (7, 0, (b"", b"")),
        (2**64 + 13, 1, (bytes(9),) * 2),
    ], ids=["K=1", "q=4", "m=0", "q>=2**64"])
    def test_store_that_cannot_be_read_back_is_not_written(self, tmp_path, q, m, messages):
        path = tmp_path / "store.bin"
        with pytest.raises(net.StoreFormatError):
            net.write_store(path, MessageStore(q=q, m=m, messages=messages))
        assert not path.exists()

    @pytest.mark.parametrize("q,K,m,ok", [
        (2**64 - 59, 2, 1, True), (2**64 + 13, 2, 1, False),
        (7, 2**32 - 1, 2**32 - 1, True), (7, 2**32, 1, False), (7, 2, 2**32, False),
        (65521, 2**31 - 1, 2**31 - 1, True), (65521, 2**31, 1, False), (65521, 2, 2**31, False),
    ])
    def test_header_fits_the_wire_format(self, q, K, m, ok):
        # K and m are u32 fields, and a frame's u32 length holds K*w or m*w bytes.
        if ok:
            net.check_header(q, K, m, "store.bin")
        else:
            with pytest.raises(net.StoreFormatError, match="not an instance"):
                net.check_header(q, K, m, "store.bin")

    def test_last_element_out_of_range(self, tmp_path, store):
        path = tmp_path / "store.bin"
        net.write_store(path, store)
        raw = bytearray(path.read_bytes())
        raw[-1] = store.q  # the last element of the last message, one byte at q = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(net.StoreFormatError, match="element >= q"):
            net.read_store(path)


# Payload sizes a fuzzed frame is read against.
FRAME_SIZES = {net.MSG_QUERY: 4, net.MSG_ANSWER: 8, net.MSG_EMPTY_ANSWER: 0, net.MSG_ERROR: 16}


@st.composite
def near_valid_frames(draw):
    """A header that read_frame accepts, then a body of any length up to
    twice the declared one, so mostly mutated or of the wrong length."""
    msg_type = draw(st.sampled_from(sorted(FRAME_SIZES)))
    size = FRAME_SIZES[msg_type]
    length = draw(st.integers(0, size)) if msg_type == net.MSG_ERROR else size
    return struct.pack("<IB", length, msg_type) + draw(st.binary(max_size=2 * size + 1))


@st.composite
def near_valid_stores(draw):
    """A version 2 header that is an instance, then a body of random bytes,
    of the right length or near it."""
    q = draw(st.sampled_from([2, 3, 7, 251, 65521, 2**64 - 59]))
    K, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    size = K * m * gf.element_width(q)
    length = draw(st.sampled_from([size, size, size - 1, size + 1]))
    body = draw(st.binary(min_size=length, max_size=length))
    return net.MAGIC + struct.pack("<QII", q, K, m) + body


def store_bytes():
    prefixed = st.tuples(st.sampled_from([net.MAGIC, b"MPIR1"]), st.binary(max_size=64))
    return st.one_of(st.binary(max_size=64), prefixed.map(b"".join), near_valid_stores())


class TestReaderFuzz:
    """Random and near-valid input to the frame and store readers: nothing
    but their own errors escapes, and no read goes past a declared size."""

    @settings(deadline=None, database=None)
    @given(st.one_of(st.binary(max_size=64), near_valid_frames()))
    def test_read_frame(self, data):
        stream = io.BytesIO(data)
        try:
            msg_type, payload = net.read_frame(stream, FRAME_SIZES)
        except net.ProtocolError:
            allowed = FRAME_SIZES.get(data[4], 0) if len(data) >= 5 else 0
            assert stream.tell() <= 5 + allowed
        else:
            assert stream.tell() == 5 + len(payload) <= 5 + FRAME_SIZES[msg_type]

    @settings(deadline=None, database=None)
    @given(store_bytes())
    def test_read_store(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-store.bin"
        path.write_bytes(data)
        try:
            store = net.read_store(path)
        except net.StoreFormatError:
            return
        assert data[:5] == net.MAGIC
        assert net.MAGIC + struct.pack("<QII", store.q, store.K, store.m) == data[:21]
        assert b"".join(store.messages) == data[21:]

    @settings(deadline=None, database=None)
    @given(st.binary(min_size=8, max_size=8), st.integers(0, 7), st.integers(3, 255))
    def test_byte_of_q_or_more_rejected_at_q3(self, tmp_path_factory, body, pos, bad):
        body = bytearray(b % 3 for b in body)
        body[pos] = bad
        frame = net.pack_frame(net.MSG_ANSWER, bytes(body))
        with pytest.raises(net.ProtocolError, match="out of range"):
            net._read_answer(io.BytesIO(frame), ("127.0.0.1", 1), 8, 3)
        path = tmp_path_factory.getbasetemp() / "fuzz-store.bin"
        path.write_bytes(net.MAGIC + struct.pack("<QII", 3, 2, 4) + body)
        with pytest.raises(net.StoreFormatError, match="element >= q"):
            net.read_store(path)


class TestServer:
    @pytest.mark.parametrize("port", [-1, 65536, 99999])
    def test_port_outside_range_rejected_before_bind(self, store, port):
        # bind() itself would raise OverflowError, which is not a ValueError.
        with pytest.raises(ValueError, match=rf"port {port} outside 0\.\.65535"):
            net.StoreServer(store, port=port)

    def test_zero_query_empty_answer(self, cluster, params):
        reply = raw_exchange(cluster[0], net.pack_frame(net.MSG_QUERY, bytes(4)))
        msg_type, payload = net.read_frame(io.BytesIO(reply), REPLIES)
        assert msg_type == net.MSG_EMPTY_ANSWER
        assert payload == b""

    def test_store_packed_before_first_answer(self, store, monkeypatch):
        # The server packs its store when it starts, so its first answer
        # waits on no packing.
        packs = []
        pack = gf.pack
        with serving(store, ports=(0,)) as (endpoint,):
            monkeypatch.setattr(gf, "pack", lambda *args: packs.append(args) or pack(*args))
            reply = raw_exchange(endpoint, QUERY_X1)
        msg_type, payload = net.read_frame(io.BytesIO(reply), REPLIES)
        assert (msg_type, payload) == (net.MSG_ANSWER, store.messages[0])
        assert packs == []

    def test_single_message_query(self, cluster, store):
        reply = raw_exchange(cluster[0], QUERY_X1)
        msg_type, payload = net.read_frame(io.BytesIO(reply), REPLIES)
        assert msg_type == net.MSG_ANSWER
        assert payload == store.messages[0]

    def test_differential_against_in_memory(self, cluster, store):
        rng = random.Random(7)
        for _ in range(30):
            query = tuple(rng.randrange(store.q) for _ in range(store.K))
            frame = net.pack_frame(net.MSG_QUERY, gf.encode(query, store.q))
            reply = raw_exchange(cluster[1], frame)
            msg_type, payload = net.read_frame(io.BytesIO(reply), REPLIES)
            expected = server_answer(store, query)
            if expected is None:
                assert msg_type == net.MSG_EMPTY_ANSWER
            else:
                assert msg_type == net.MSG_ANSWER
                assert payload == expected

    def test_malformed_length_gets_error(self, cluster):
        reply = raw_exchange(cluster[0], net.pack_frame(net.MSG_QUERY, b"\x01\x02\x03"))
        msg_type, payload = net.read_frame(io.BytesIO(reply), REPLIES)
        assert msg_type == net.MSG_ERROR
        assert payload

    def test_element_at_least_q_gets_error(self, cluster, store):
        bad = net.pack_frame(net.MSG_QUERY, gf.encode([store.q, 0, 0, 0], store.q))
        msg_type, _ = net.read_frame(io.BytesIO(raw_exchange(cluster[0], bad)), REPLIES)
        assert msg_type == net.MSG_ERROR

    @pytest.mark.parametrize("q", [65521, 2**64 - 59])
    def test_wide_field_range_check(self, q):
        # At two- and eight-byte elements: a query element of q gets ERROR,
        # one of q - 1 its answer.
        params = Params(K=3, D=2, q=q, m=5)
        store = MessageStore.random(params, random.Random(q))
        replies = {net.MSG_ANSWER: params.m * gf.element_width(q), net.MSG_ERROR: net._MAX_ERROR}
        with serving(store, ports=(0,)) as (endpoint,):
            for pos in range(params.K):
                query = [1, 2, 3]
                query[pos] = q
                reply = raw_exchange(endpoint, net.pack_frame(net.MSG_QUERY, gf.encode(query, q)))
                msg_type, payload = net.read_frame(io.BytesIO(reply), replies)
                assert (msg_type, payload) == (
                    net.MSG_ERROR, b"field element out of range for the store's modulus"
                )
                query[pos] = q - 1
                reply = raw_exchange(endpoint, net.pack_frame(net.MSG_QUERY, gf.encode(query, q)))
                msg_type, payload = net.read_frame(io.BytesIO(reply), replies)
                assert (msg_type, payload) == (net.MSG_ANSWER, server_answer(store, query))

    def test_oversized_length_gets_error_at_once(self, cluster):
        # The header alone, declaring 2**32 - 1 payload bytes, with the write
        # side left open: the server must answer ERROR and close without
        # waiting for (or buffering) the declared payload.
        with socket.create_connection(cluster[0], timeout=5) as sock:
            sock.sendall(struct.pack("<IB", 2**32 - 1, net.MSG_QUERY))
            with sock.makefile("rb") as stream:
                msg_type, payload = net.read_frame(stream, REPLIES)
                assert msg_type == net.MSG_ERROR
                assert b"expected 4" in payload  # K*w bytes
                with pytest.raises(net.ConnectionClosed):
                    net.read_frame(stream, REPLIES)

    def test_non_query_type_gets_error(self, cluster):
        msg_type, _ = net.read_frame(
            io.BytesIO(raw_exchange(cluster[0], net.pack_frame(net.MSG_ANSWER, b""))), REPLIES
        )
        assert msg_type == net.MSG_ERROR

    def test_stalled_read_is_dropped(self, capped_cluster, monkeypatch, capsys):
        # Half a frame header and then silence: the server gives up on the
        # read after its timeout and closes the connection quietly, with
        # neither a reply nor a traceback.  That frees its worker: with the
        # other one held, a new connection is still answered.
        assert net._AnswerHandler.timeout is not None
        with socket.create_connection(capped_cluster[0], timeout=5) as held:
            # Its handler set its read timeout before the timeout is lowered
            # and keeps 30 s.
            assert answered(held)
            monkeypatch.setattr(net._AnswerHandler, "timeout", 0.2)
            with socket.create_connection(capped_cluster[0], timeout=5) as sock:
                # After a first query, so that the 0.2 s applies to the stall.
                assert answered(sock)
                sock.sendall(b"\x20\x00")
                start = time.monotonic()
                assert sock.recv(64) == b""
                assert time.monotonic() - start < 3
            reply = raw_exchange(capped_cluster[0], QUERY_X1)
            assert net.read_frame(io.BytesIO(reply), REPLIES)[0] == net.MSG_ANSWER
        assert "Traceback" not in capsys.readouterr().err

    def test_connection_past_the_cap_gets_busy(self, capped_cluster, params, store):
        with ExitStack() as stack:
            held = [stack.enter_context(socket.create_connection(capped_cluster[0], timeout=5))
                    for _ in range(2)]
            assert all(answered(sock) for sock in held)
            assert_busy(capped_cluster[0])
            # Once the server has closed a held connection, its worker is idle.
            held[0].shutdown(socket.SHUT_WR)
            assert held[0].recv(64) == b""
            result = net.retrieve(capped_cluster, (1, 2), params, seed=3)
            assert result.transcript.recovered == (store.messages[0], store.messages[1])

    def test_silent_connection_holds_a_worker_until_first_query_timeout(
        self, capped_cluster, monkeypatch, capsys
    ):
        # A connection holds its worker from accept on, idle or not, so two
        # that send nothing fill a pool of two.  Each is dropped once it has
        # sent no query for first_query_timeout, which frees its worker.
        monkeypatch.setattr(net._AnswerHandler, "first_query_timeout", 1.0)
        with ExitStack() as stack:
            silent = [stack.enter_context(socket.create_connection(capped_cluster[0], timeout=5))
                      for _ in range(2)]
            assert_busy(capped_cluster[0])
            start = time.monotonic()
            assert all(sock.recv(64) == b"" for sock in silent)
            assert time.monotonic() - start < 3
        reply = raw_exchange(capped_cluster[0], QUERY_X1)
        assert net.read_frame(io.BytesIO(reply), REPLIES)[0] == net.MSG_ANSWER
        assert "Traceback" not in capsys.readouterr().err

    def test_first_query_timeout_spares_idle_between_queries(self, cluster, monkeypatch):
        # Once a connection has sent a query, its reads wait the full timeout.
        monkeypatch.setattr(net._AnswerHandler, "first_query_timeout", 0.2)
        with socket.create_connection(cluster[0], timeout=5) as sock:
            assert answered(sock)
            time.sleep(0.6)
            assert answered(sock)

    def test_close_ends_open_connections(self, store):
        # After a query the worker waits up to _AnswerHandler.timeout (30 s)
        # for the next one; server_close() ends the connection instead of
        # waiting for that.
        with serving(store) as endpoints:
            sock = socket.create_connection(endpoints[0], timeout=5)
            assert answered(sock)
            start = time.monotonic()
        with sock:
            assert time.monotonic() - start < 3
            assert sock.recv(64) == b""

    def test_peer_reset_mid_read_is_quiet(self, cluster, connection_ends, capsys):
        sock = socket.create_connection(cluster[0], timeout=5)
        sock.sendall(b"\x20\x00")
        reset(sock)
        connection_ends.get(timeout=5)
        assert "Traceback" not in capsys.readouterr().err
        reply = raw_exchange(cluster[0], QUERY_X1)
        assert net.read_frame(io.BytesIO(reply), REPLIES)[0] == net.MSG_ANSWER

    def test_peer_reset_before_reply_is_quiet(self, cluster, connection_ends, monkeypatch, capsys):
        queried, was_reset = threading.Event(), threading.Event()

        def answer_after_reset(store, query):
            queried.set()
            was_reset.wait(5)
            return server_answer(store, query)

        monkeypatch.setattr(net, "server_answer", answer_after_reset)
        sock = socket.create_connection(cluster[0], timeout=5)
        sock.sendall(QUERY_X1)
        assert queried.wait(5)
        reset(sock)
        was_reset.set()
        connection_ends.get(timeout=5)
        assert "Traceback" not in capsys.readouterr().err

    def test_multiple_queries_per_connection(self, cluster, store):
        frames = QUERY_X1 + net.pack_frame(net.MSG_QUERY, bytes([0, 1, 0, 0]))
        reply = io.BytesIO(raw_exchange(cluster[0], frames))
        t1, p1 = net.read_frame(reply, REPLIES)
        t2, p2 = net.read_frame(reply, REPLIES)
        assert t1 == t2 == net.MSG_ANSWER
        assert (p1, p2) == store.messages[:2]


class TestRetrieve:
    def test_recovers_store_contents(self, cluster, params, store):
        result = net.retrieve(cluster, (1, 2), params, seed=3)
        assert result.transcript.recovered == (store.messages[0], store.messages[1])

    def test_recovers_without_seed(self, cluster, params, store):
        # The default draws queries from the OS CSPRNG, not a replayable seed.
        for W in ((1, 2), (3, 4)):
            result = net.retrieve(cluster, W, params)
            assert result.transcript.recovered == tuple(store.messages[x - 1] for x in W)

    def test_differential_equivalence(self, cluster, params, store):
        prob = build_prob_table(params)
        for seed in range(25):
            networked = net.retrieve(cluster, (1, 3), params, seed)
            in_memory = run_round(params, prob, (1, 3), store, random.Random(seed))
            assert networked.transcript.to_bytes() == in_memory.to_bytes()

    @pytest.mark.parametrize("K,D,q,m", [(4, 2, 65521, 8), (20, 6, 7, 4096), (5, 3, 2**64 - 59, 9)])
    def test_wide_field_transcript_equals_in_memory(self, K, D, q, m):
        # Dataclass equality, not only to_bytes: the w-byte elements off the
        # wire are the objects memory builds.  4-KiB frames, N = 7 servers
        # and 8-byte elements.
        params = Params(K=K, D=D, q=q, m=m)
        store = MessageStore.random(params, random.Random(2024))
        prob = build_prob_table(params)
        W = tuple(range(2, D + 2))
        with serving(store, ports=(0,) * params.N) as endpoints:
            for seed in range(10):
                networked = net.retrieve(endpoints, W, params, seed)
                in_memory = run_round(params, prob, W, store, random.Random(seed))
                assert networked.transcript == in_memory
                w = gf.element_width(q)
                assert networked.downloaded_bytes == w * in_memory.download_elements

    def test_endpoints_given_as_lists(self, cluster, params):
        # [[host, port], ...], as JSON loads them, is the same round as tuples.
        as_lists = [list(endpoint) for endpoint in cluster]
        for seed in range(5):
            listed = net.retrieve(as_lists, (1, 3), params, seed)
            assert listed.transcript == net.retrieve(cluster, (1, 3), params, seed).transcript

    def test_recovers_from_ipv6_literal_servers(self, params, store):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("this host cannot bind ::1")
        with serving(store, host="::1") as endpoints:
            result = net.retrieve(endpoints, (2, 4), params, seed=6)
        assert result.transcript.recovered == (store.messages[1], store.messages[3])
        assert result.transcript.to_bytes() == replayed(params, (2, 4), store, 6)

    def test_prob_table_built_once_per_params(self, cluster, params, monkeypatch):
        builds = []

        def counting_build(p):
            builds.append(p)
            return build_prob_table(p)

        monkeypatch.setattr(net, "build_prob_table", counting_build)
        net._prob_table.cache_clear()
        try:
            net.retrieve(cluster, (1, 2), params, seed=1)
            net.retrieve(cluster, (3, 4), Params(K=4, D=2, q=3, m=8), seed=2)
        finally:
            net._prob_table.cache_clear()
        assert builds == [params]

    def test_seed_repeatable(self, cluster, params):
        a = net.retrieve(cluster, (2, 4), params, seed=42)
        b = net.retrieve(cluster, (2, 4), params, seed=42)
        assert a.transcript.to_bytes() == b.transcript.to_bytes()
        assert a.downloaded_bytes == b.downloaded_bytes

    def test_silent_round_byte_count(self, cluster, params):
        for seed in range(200):
            result = net.retrieve(cluster, (1, 2), params, seed)
            if result.transcript.query_set.row.i == 0:
                assert result.downloaded_bytes == 2 * params.m * gf.element_width(params.q)
                return
        pytest.fail("no silent round observed in 200 seeds")

    def test_wrong_endpoint_count(self, cluster, params):
        with pytest.raises(ValueError):
            net.retrieve(cluster[:2], (1, 2), params, seed=0)

    def test_duplicate_endpoints_rejected_before_sending(self, params):
        # Nothing listens on these ports: a query sent to any of them would
        # raise ConnectionRefusedError instead of the duplicate check.
        dup = [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 1)]
        with pytest.raises(ValueError, match="same server"):
            net.retrieve(dup, (1, 2), params, seed=0)

    @staticmethod
    def counted_lookups(monkeypatch) -> list[str]:
        # The hosts net's endpoint check looks up: net gets a copy of the
        # socket module whose getaddrinfo counts, so connects are not counted.
        hosts: list[str] = []
        counting = types.SimpleNamespace(**vars(socket))
        counting.getaddrinfo = lambda host, *a, **k: hosts.append(host) or socket.getaddrinfo(
            host, *a, **k)
        monkeypatch.setattr(net, "socket", counting)
        net._literal_addrs.cache_clear()
        return hosts

    def test_literal_endpoints_looked_up_once(self, cluster, params, monkeypatch):
        # A literal address resolves to itself alone: two rounds against the
        # cluster's three 127.0.0.1 endpoints look each one up once.
        hosts = self.counted_lookups(monkeypatch)
        for seed in range(2):
            net.retrieve(cluster, (1, 2), params, seed)
        assert hosts == ["127.0.0.1"] * 3

    def test_names_looked_up_every_round(self, params, monkeypatch):
        # A name can resolve differently from one round to the next.  The
        # third endpoint repeats the first, so each round is refused before
        # anything is sent.
        hosts = self.counted_lookups(monkeypatch)
        dup = [("localhost", 1), ("localhost", 2), ("localhost", 1)]
        for seed in range(2):
            with pytest.raises(ValueError, match="same server"):
                net.retrieve(dup, (1, 2), params, seed)
        assert hosts == ["localhost"] * 6

    @pytest.mark.parametrize("host,literal", [("127.0.0.1", True), ("::1", True),
                                              ("localhost", False), ("fe80::1%lo", False),
                                              ("127.1", False), ("", False)])
    def test_only_literal_addresses_cached(self, host, literal):
        assert net._is_literal(host) is literal

    @pytest.mark.parametrize("endpoints,match", [
        ([("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 1)], "same server"),
        ([("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 65536)], "port outside"),
    ], ids=["duplicate", "port"])
    def test_refused_literal_endpoints_refused_every_round(self, params, monkeypatch,
                                                          endpoints, match):
        # An all-literal tuple keeps its verdict only when it passes: a
        # refused one is looked up and refused again on every call.
        hosts = self.counted_lookups(monkeypatch)
        for seed in range(2):
            with pytest.raises(ValueError, match=match):
                net.retrieve(endpoints, (1, 2), params, seed)
        assert len(hosts) == 2 * (3 if match == "same server" else 2)

    @pytest.mark.parametrize("bad_port", [lambda p: p + 65536, lambda p: p - 65536, lambda p: 0],
                             ids=["P+65536", "P-65536", "0"])
    def test_port_outside_range_rejected_before_sending(self, cluster, params, accepts, bad_port):
        # getaddrinfo and connect take a port mod 65536, so P + 65536 would
        # reach the server on P and get its answer.
        (host, port), *rest = cluster
        with pytest.raises(ValueError, match=r"port outside 1\.\.65535"):
            net.retrieve([(host, bad_port(port))] + rest, (1, 2), params, seed=0)
        assert sum(accepts.values()) == 0

    def test_unreachable_endpoint(self, params):
        dead = [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)]
        with pytest.raises(OSError):
            net.retrieve(dead, (1, 2), params, seed=0)

    def test_unreachable_endpoint_is_named(self, params):
        # A refused connection keeps its class and errno, and its message
        # names the server, as a protocol fault's does.
        dead = [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)]
        with pytest.raises(OSError) as excinfo:
            net.retrieve(dead, (1, 2), params, seed=0)
        exc = excinfo.value
        assert str(exc).endswith(f" at server {dead[0]}")
        assert type(exc) is type(exc.__cause__) and exc.errno == exc.__cause__.errno

    def test_reset_mid_answer_is_named(self, cluster, params, stalling_server):
        # An ANSWER header and part of its payload, then a reset: the error
        # names the server, and the round keeps none of its connections.
        endpoint = stalling_server(struct.pack("<IB", 8, net.MSG_ANSWER) + bytes(3), reset=True)
        with pytest.raises(ConnectionResetError) as excinfo:
            net.retrieve([endpoint] + cluster[:2], (1, 2), params, seed=0)
        assert str(excinfo.value).endswith(f" at server {endpoint}")
        assert excinfo.value.errno == excinfo.value.__cause__.errno
        assert not net._idle

    @pytest.mark.parametrize("msg_type", [net.MSG_ANSWER, net.MSG_EMPTY_ANSWER, net.MSG_ERROR])
    def test_oversized_reply_rejected_before_payload(self, cluster, params, stalling_server, msg_type):
        # The reply header declares 2**32 - 1 bytes and no payload follows:
        # the client must refuse at the header, not wait for its socket timeout.
        endpoint = stalling_server(struct.pack("<IB", 2**32 - 1, msg_type))
        start = time.monotonic()
        with pytest.raises(net.ProtocolError, match="4294967295 bytes"):
            net.retrieve([endpoint] + cluster[:2], (1, 2), params, seed=0)
        assert time.monotonic() - start < 5

    def test_server_error_reply_raises(self, cluster, params, stalling_server):
        endpoint = stalling_server(net.pack_frame(net.MSG_ERROR, b"store offline"))
        with pytest.raises(net.ProtocolError) as excinfo:
            net.retrieve([endpoint] + cluster[:2], (1, 2), params, seed=0)
        assert str(excinfo.value) == f"server {endpoint} reported: store offline"

    def test_inconsistent_store_shape_detected(self, cluster, store):
        # Client believing m=4 against m=8 servers must flag the mismatch.
        wrong = Params(K=4, D=2, q=3, m=4)
        with pytest.raises(net.ProtocolError, match="inconsistent"):
            net.retrieve(cluster, (1, 2), wrong, seed=1)


def replayed(params, W, store, seed):
    """The transcript bytes of the in-memory round that a seeded retrieve replays."""
    return run_round(params, build_prob_table(params), W, store, random.Random(seed)).to_bytes()


class TestConnectionPool:
    def test_one_connection_per_server_across_rounds(self, cluster, params, store, accepts):
        for seed in range(20):
            result = net.retrieve(cluster, (1, 2), params, seed)
            assert result.transcript.recovered == (store.messages[0], store.messages[1])
        assert [accepts[port] for _, port in cluster] == [1, 1, 1]

    def test_connection_dropped_while_idle_is_replaced(self, cluster, params, store, accepts,
                                                       monkeypatch):
        monkeypatch.setattr(net._AnswerHandler, "timeout", 0.2)
        net.retrieve(cluster, (1, 2), params, seed=1)
        time.sleep(0.5)
        result = net.retrieve(cluster, (3, 4), params, seed=2)
        assert result.transcript.recovered == (store.messages[2], store.messages[3])
        assert [accepts[port] for _, port in cluster] == [2, 2, 2]

    def test_restarted_servers_are_reached(self, params, store):
        with serving(store) as endpoints:
            net.retrieve(endpoints, (1, 2), params, seed=1)
        restarted = MessageStore.random(params, random.Random(7))
        with serving(restarted, [port for _, port in endpoints]) as again:
            assert again == endpoints
            result = net.retrieve(again, (1, 2), params, seed=3)
        assert result.transcript.recovered == (restarted.messages[0], restarted.messages[1])

    def test_failed_round_leaves_no_reply_for_the_next(self, cluster, params, store):
        with pytest.raises(net.ProtocolError, match="inconsistent"):
            net.retrieve(cluster, (1, 2), Params(K=4, D=2, q=3, m=4), seed=1)
        result = net.retrieve(cluster, (1, 3), params, seed=5)
        assert result.transcript.to_bytes() == replayed(params, (1, 3), store, 5)

    def test_connection_reset_after_its_query_is_replaced(self, params, store):
        # The first server answers round 1, reads round 2's query on the
        # pooled connection and resets it; the client sends that query once
        # more, on a new connection, which the same server answers.
        listener = socket.create_server(("127.0.0.1", 0))
        sizes = {net.MSG_QUERY: store.K}

        def answer(conn, stream):
            _, payload = net.read_frame(stream, sizes)
            reply = server_answer(store, gf.decode(payload, store.q))
            conn.sendall(net.pack_frame(net.MSG_ANSWER, reply) if reply
                         else net.pack_frame(net.MSG_EMPTY_ANSWER))

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                answer(conn, stream)
                net.read_frame(stream, sizes)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                answer(conn, stream)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with serving(store, (0, 0)) as others:
                endpoints = [listener.getsockname()] + others
                for seed, W in [(1, (1, 2)), (2, (3, 4))]:
                    wire = net.retrieve(endpoints, W, params, seed).transcript.to_bytes()
                    assert wire == replayed(params, W, store, seed)
            thread.join(5)
            assert not thread.is_alive()
        finally:
            listener.close()

    def test_pool_keeps_the_most_recent_endpoints(self, cluster, params, accepts, monkeypatch):
        # With room for two, each round's first connection is the oldest
        # returned and is closed, so only that server sees a new one per round.
        monkeypatch.setattr(net, "_MAX_IDLE", 2)
        for seed in range(3):
            net.retrieve(cluster, (1, 2), params, seed)
        assert list(net._idle) == cluster[1:]
        assert [accepts[port] for _, port in cluster] == [3, 1, 1]

    def test_concurrent_rounds_never_share_a_connection(self, cluster, params, store):
        demands = list(combinations(range(1, 5), 2))
        mismatched, errors = [], []

        def rounds(first_seed):
            try:
                for seed in range(first_seed, first_seed + 50):
                    W = demands[seed % len(demands)]
                    wire = net.retrieve(cluster, W, params, seed).transcript.to_bytes()
                    if wire != replayed(params, W, store, seed):
                        mismatched.append(seed)
            except Exception as exc:  # reported below, with the thread's seeds
                errors.append((first_seed, exc))

        threads = [threading.Thread(target=rounds, args=(50 * t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (mismatched, errors) == ([], [])
