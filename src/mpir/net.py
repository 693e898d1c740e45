"""Wire protocol: standalone answer servers and a networked retrieval client.

Frame layout (all integers little-endian):

    length   u32   payload byte count
    msg_type u8    1=QUERY 2=ANSWER 3=EMPTY_ANSWER 4=ERROR
    payload  bytes

A QUERY payload is K field elements, an ANSWER payload m field elements,
each of w = gf.element_width(q) bytes, as :mod:`mpir.gf` holds them in
memory.  EMPTY_ANSWER carries no payload and is the reply to an all-zero
query.  ERROR carries a UTF-8 message and the server closes the
connection; a QUERY header declaring other than K*w bytes, or a query
element of q or more, gets ERROR, the first before any payload is read.
A connection that stalls mid-read is closed after _AnswerHandler.timeout
seconds.  The client likewise checks each reply header (ANSWER m*w bytes,
EMPTY_ANSWER none, ERROR at most _MAX_ERROR) before it reads the payload,
and every ANSWER element against q.

A server answers each connection on a thread of its own, with at most
StoreServer.max_workers connections open at once.  A connection holds its
slot until it closes, idle or not; a new one that sends no query for
_AnswerHandler.first_query_timeout is dropped.  One that arrives while every
slot is held is not queued: it gets ERROR "server busy" and is closed.
server_close() ends every open connection, then joins their threads.

Store file layout (format version 2): magic "MPIR2", q u64, K u32, m u32,
then the K messages' element bytes in message order (21 + w*K*m bytes
total).  Version 1 files (magic "MPIR1", u64 elements) are rejected by name.

The server handler receives nothing but coefficient vectors; the demand set
never crosses the wire.  The client runs :func:`protocol.execute_round` with
an answerer that takes one connection per server, writes every query, and
only then reads the answers in order.

Client connections outlive a round: each process keeps at most one idle
connection per endpoint, for at most _MAX_IDLE endpoints, and puts a round's
connections back only once all N answers are read in full.  A pooled
connection the server has closed since (idle for _AnswerHandler.timeout, or
restarted) is retried once on a new connection with the same query, which
that server has seen already.  Reuse lets a server link one client's rounds;
rounds draw independent randomness and a server's view of one has the same
distribution for every W, so linked views leak nothing more.  An idle pooled
connection holds a server slot until the server drops it.
"""
from __future__ import annotations

import random
import socket
import socketserver
import struct
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Sequence

from . import gf
from .params import Params, is_prime
from .prob import ProbTable, build_prob_table
from .protocol import Answer, MessageStore, Transcript, execute_round, server_answer

MAGIC = b"MPIR2"
MSG_QUERY = 1
MSG_ANSWER = 2
MSG_EMPTY_ANSWER = 3
MSG_ERROR = 4
_TYPE_NAMES = {MSG_QUERY: "QUERY", MSG_ANSWER: "ANSWER", MSG_EMPTY_ANSWER: "EMPTY_ANSWER",
               MSG_ERROR: "ERROR"}
_HEADER = struct.Struct("<IB")
_READ_CHUNK = 1 << 16
_MAX_ERROR = 1 << 12


class ProtocolError(Exception):
    """Malformed frame or unexpected message."""


class ConnectionClosed(ProtocolError):
    """Peer closed the connection at a frame boundary (not an error)."""


class StoreFormatError(ValueError):
    """Store file fails structural validation."""


def pack_frame(msg_type: int, payload: bytes = b"") -> bytes:
    if msg_type not in _TYPE_NAMES:
        raise ProtocolError(f"unknown message type {msg_type}")
    return _HEADER.pack(len(payload), msg_type) + payload


def read_frame(stream: BinaryIO, sizes: Mapping[int, int]) -> tuple[int, bytes]:
    """Read one frame whose type is a key of `sizes`.

    The header is checked before any payload is read: the declared length
    must equal the type's value in `sizes` (for ERROR, whose message varies,
    be at most its value).  So a peer cannot make the reader wait for, or
    buffer, more than it expects.

    Raises ConnectionClosed at a clean frame boundary and ProtocolError on
    truncation, an unknown message type or a failed `sizes` check.
    """
    header = _read_up_to(stream, _HEADER.size)
    if not header:
        raise ConnectionClosed("no more frames")
    if len(header) < _HEADER.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    length, msg_type = _HEADER.unpack(header)
    if msg_type not in _TYPE_NAMES:
        raise ProtocolError(f"unknown message type {msg_type}")
    name, size = _TYPE_NAMES[msg_type], sizes.get(msg_type)
    if size is None:
        raise ProtocolError(f"unexpected {name} frame")
    if length > size if msg_type == MSG_ERROR else length != size:
        raise ProtocolError(f"{name} of {length} bytes, expected {size}")
    payload = _read_up_to(stream, length)
    if len(payload) < length:
        raise ProtocolError(f"truncated payload ({len(payload)}/{length} bytes)")
    return msg_type, payload


def _read_up_to(stream: BinaryIO, n: int) -> bytes:
    # Bounded reads into one growing buffer: memory follows the bytes that
    # actually arrive, not the length a peer declares.
    buf = bytearray()
    while len(buf) < n:
        chunk = stream.read(min(n - len(buf), _READ_CHUNK))
        if not chunk:
            break
        buf += chunk
    return bytes(buf)


def write_store(path: str | Path, store: MessageStore) -> None:
    """Serialize a message store to its on-disk format."""
    if store.q >= 2**64:
        raise StoreFormatError("field order does not fit in 64 bits")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<QII", store.q, store.K, store.m))
        fh.write(b"".join(store.messages))


def read_store(path: str | Path) -> MessageStore:
    """Load and validate a store file."""
    raw = Path(path).read_bytes()
    if raw[:5] == b"MPIR1":
        raise StoreFormatError(f"{path}: store format version 1 is no longer read; "
                               "re-run `mpir store init` to write version 2")
    if len(raw) < 21 or raw[:5] != MAGIC:
        raise StoreFormatError(f"{path}: not a message store file")
    q, K, m = struct.unpack_from("<QII", raw, 5)
    if not is_prime(q) or K < 2 or m < 1:
        raise StoreFormatError(f"{path}: header q={q} K={K} m={m} is not an instance")
    size = m * gf.element_width(q)
    if len(raw) != 21 + K * size:
        raise StoreFormatError(f"{path}: size {len(raw)}, expected {21 + K * size}")
    messages = tuple(raw[i : i + size] for i in range(21, len(raw), size))
    try:  # MessageStore's own check is the one element range check on load
        return MessageStore(q=q, m=m, messages=messages)
    except ValueError as exc:
        raise StoreFormatError(f"{path}: element >= q ({exc})") from exc


class _AnswerHandler(socketserver.StreamRequestHandler):
    # Seconds a read may stall before the connection is dropped.
    timeout = 30.0
    # Seconds a new connection may wait for its first query.  A client sends
    # one as soon as it connects, so a silent socket holds a slot no longer.
    first_query_timeout = 2.0

    def handle(self) -> None:
        store: MessageStore = self.server.store  # type: ignore[attr-defined]
        size = store.K * gf.element_width(store.q)
        self.connection.settimeout(self.first_query_timeout)
        try:
            while True:
                try:
                    _, payload = read_frame(self.rfile, {MSG_QUERY: size})
                    query = gf.decode(payload, store.q)
                    if max(query) >= store.q:
                        raise ProtocolError("field element out of range for the store's modulus")
                except ConnectionClosed:
                    return
                except ProtocolError as exc:
                    self.wfile.write(pack_frame(MSG_ERROR, str(exc).encode()))
                    return
                self.connection.settimeout(self.timeout)
                answer = server_answer(store, query)
                if answer is None:
                    self.wfile.write(pack_frame(MSG_EMPTY_ANSWER))
                else:
                    self.wfile.write(pack_frame(MSG_ANSWER, answer))
        except (ConnectionError, TimeoutError):
            # A reset, a broken pipe or a stalled read or write ends the
            # connection as a close does: nobody is left to reply to.
            return


class StoreServer(socketserver.ThreadingTCPServer):
    """TCP server answering queries against one immutable store, one thread
    per connection, which server_close() joins."""

    allow_reuse_address = True
    # The most connections served at once.  No workload measures concurrent
    # clients, so the value is a guess.
    max_workers = 16

    def __init__(self, store: MessageStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        self._open: set[socket.socket] = set()
        super().__init__((host, port), _AnswerHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request, client_address) -> None:
        # Only the serving thread adds to _open, so the check needs no lock.
        if len(self._open) < self.max_workers:
            self._open.add(request)
            super().process_request(request, client_address)
            return
        with suppress(OSError):  # the client may already be gone
            request.sendall(pack_frame(MSG_ERROR, b"server busy"))
        self.shutdown_request(request)

    def shutdown_request(self, request) -> None:
        # The slot is free before the close, so a client that has seen its
        # connection end can count on a free slot.
        self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        # A thread blocked on a read sees EOF at once instead of waiting out
        # its timeout, so the join in super() does not wait on clients.
        for request in list(self._open):
            with suppress(OSError):
                request.shutdown(socket.SHUT_RDWR)
        super().server_close()


@dataclass(frozen=True)
class RetrieveResult:
    transcript: Transcript
    downloaded_bytes: int
    """ANSWER payload bytes read in the round: m*w per answering server,
    frame headers not counted."""


# Idle client connections, least recently returned first.  A round pops the
# ones it uses, so concurrent rounds never share a socket.
_MAX_IDLE = 16
_idle: dict[tuple[str, int], BinaryIO] = {}
_idle_lock = threading.Lock()


def _answer_over_tcp(
    endpoints: Sequence[tuple[str, int]], queries: Sequence[Sequence[int]], m: int, q: int
) -> tuple[Answer, ...]:
    """Send query n to endpoints[n], on a pooled or new connection, and read the answers.

    Every query is sent before the first answer is read, so the servers
    compute at the same time without a client thread per server.
    """
    frames = [pack_frame(MSG_QUERY, gf.encode(query, q)) for query in queries]
    with _idle_lock:
        pooled = [_idle.pop(endpoint, None) for endpoint in endpoints]
    held = [stream for stream in pooled if stream]  # every stream the round holds
    try:
        streams = []
        for endpoint, frame, stream in zip(endpoints, frames, pooled, strict=True):
            if stream is None:
                stream = _connect(endpoint, frame, held)
            else:
                with suppress(OSError):  # a stale one: the read below finds out
                    stream.write(frame)
                    stream.flush()
            streams.append(stream)
        answers = []
        for n, endpoint in enumerate(endpoints):
            if pooled[n] and not _reply_begins(pooled[n]):
                _discard(pooled[n])
                streams[n] = _connect(endpoint, frames[n], held)
            answers.append(_read_answer(streams[n], endpoint, m, q))
    except BaseException:
        # A reply left unread must not pass for a later round's answer.
        for stream in held:
            _discard(stream)
        raise
    with _idle_lock:
        surplus = [s for e, s in zip(endpoints, streams) if _idle.setdefault(e, s) is not s]
        while len(_idle) > _MAX_IDLE:
            surplus.append(_idle.pop(next(iter(_idle))))
    for stream in surplus:
        _discard(stream)
    return tuple(answers)


def _connect(endpoint: tuple[str, int], frame: bytes, held: list[BinaryIO]) -> BinaryIO:
    with socket.create_connection(endpoint, timeout=30) as sock:
        stream = sock.makefile("rwb")  # keeps the socket open past this close
    held.append(stream)
    stream.write(frame)
    stream.flush()
    return stream


def _reply_begins(stream: BinaryIO) -> bool:
    # False when the server closed the connection before this query.
    try:
        return bool(stream.peek(1))  # type: ignore[attr-defined]
    except ConnectionResetError:
        return False


def _discard(stream: BinaryIO) -> None:
    with suppress(OSError):  # a flush of an unsent query may fail again
        stream.close()


def _read_answer(stream: BinaryIO, endpoint: tuple[str, int], m: int, q: int) -> Answer:
    sizes = {MSG_ANSWER: m * gf.element_width(q), MSG_EMPTY_ANSWER: 0, MSG_ERROR: _MAX_ERROR}
    try:
        msg_type, payload = read_frame(stream, sizes)
        if msg_type == MSG_ANSWER and gf.out_of_range(payload, q):
            raise ProtocolError("field element out of range for the store's modulus")
    except ProtocolError as exc:
        raise ProtocolError(f"inconsistent reply from {endpoint}: {exc}") from exc
    if msg_type == MSG_ERROR:
        raise ProtocolError(f"server {endpoint} reported: {payload.decode(errors='replace')}")
    return payload if msg_type == MSG_ANSWER else None


def _check_distinct(endpoints: Sequence[tuple[str, int]]) -> None:
    # A server that receives two columns of one round sees U and U + V_h,
    # whose difference V_h has its support inside the demand set.  Names are
    # resolved so that two spellings of one address count as one server.
    seen: dict[tuple, tuple[str, int]] = {}
    for endpoint in endpoints:
        host, port = endpoint
        addrs = {info[4][:2] for info in socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)}
        for addr in addrs:
            if addr in seen:
                raise ValueError(
                    f"endpoints {seen[addr]} and {endpoint} are the same server {addr}; "
                    "a round needs N distinct servers"
                )
        seen.update(dict.fromkeys(addrs, endpoint))


@lru_cache(maxsize=16)
def _prob_table(params: Params) -> ProbTable:
    # Tables are immutable and depend only on params: build each one once
    # rather than in every round.
    return build_prob_table(params)


def retrieve(
    endpoints: Sequence[tuple[str, int]],
    W: Iterable[int],
    params: Params,
    seed: int | None = None,
) -> RetrieveResult:
    """Run one protocol round over the network.

    Query n goes to endpoints[n].  Without a seed the queries are drawn from
    the operating system's CSPRNG, as privacy requires.  A seed makes them a
    function of W, for replay only: with equal stores the transcript is then
    identical to an in-memory round driven by random.Random(seed).
    Endpoints that resolve to a common (address, port) are rejected with
    ValueError before any query is sent.

    Connections are reused across calls, at most one idle per endpoint, and
    a failed round closes its own.  A reused one the server has closed is
    retried once on a new connection with the same query.  Reuse lets a
    server link rounds, but its view of each has the same distribution for
    every W, so that leaks nothing more.
    """
    if len(endpoints) != params.N:
        raise ValueError(f"need exactly N={params.N} endpoints, got {len(endpoints)}")
    _check_distinct(endpoints)
    rng = random.SystemRandom() if seed is None else random.Random(seed)
    transcript = execute_round(
        params,
        _prob_table(params),
        W,
        rng,
        lambda queries: _answer_over_tcp(endpoints, queries, params.m, params.q),
    )
    downloaded = gf.element_width(params.q) * transcript.download_elements
    return RetrieveResult(transcript=transcript, downloaded_bytes=downloaded)
