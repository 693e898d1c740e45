"""Wire protocol: standalone answer servers and a networked retrieval client.

Frame layout (all integers little-endian):

    length   u32   payload byte count
    msg_type u8    1=QUERY 2=ANSWER 3=EMPTY_ANSWER 4=ERROR
    payload  bytes

A QUERY payload is K field elements, an ANSWER payload m field elements,
each of w = gf.element_width(q) bytes, as :mod:`mpir.gf` holds them in
memory.  EMPTY_ANSWER carries no payload and is the reply to an all-zero
query.  ERROR carries a UTF-8 message and the server closes the
connection.  Each end checks a header before it reads the payload, in one
read of the declared length: a QUERY must declare K*w bytes, an ANSWER
m*w, EMPTY_ANSWER none and ERROR at most _MAX_ERROR.  A QUERY that fails,
or holds an element of q or more, gets ERROR; an ANSWER element of q or
more fails the round.  A connection that stalls mid-read is closed after
_AnswerHandler.timeout seconds.

A server answers each connection on a thread of its own, with at most
StoreServer.max_workers connections open at once.  A connection holds its
slot until it closes, idle or not; a new one that sends no query for
_AnswerHandler.first_query_timeout is dropped.  One that arrives while every
slot is held is not queued: it gets ERROR "server busy" and is closed.
server_close() ends every open connection, then joins their threads.

Store file layout (format version 2): magic "MPIR2", q u64, K u32, m u32,
then the K messages' element bytes in message order (21 + w*K*m bytes
total).  Version 1 files (magic "MPIR1", u64 elements) are rejected by name,
and a header that :func:`check_header` refuses is neither written nor read.

The server handler receives nothing but coefficient vectors; the demand set
never crosses the wire.  The client runs :func:`protocol.execute_round` with
an answerer that takes one connection per server, writes every query, and
only then reads the answers in order.  ValueError refuses a server port
outside 0..65535 (0 picks a free one) and an endpoint port outside 1..65535.

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

import os
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
    be at most its value).  So the one read(length) that takes the payload
    never waits for, or buffers, more than the reader expects.

    Raises ConnectionClosed at a clean frame boundary and ProtocolError on
    truncation, an unknown message type or a failed `sizes` check.
    """
    header = stream.read(_HEADER.size)
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
    payload = stream.read(length)
    if len(payload) < length:
        raise ProtocolError(f"truncated payload ({len(payload)}/{length} bytes)")
    return msg_type, payload


def check_header(q: int, K: int, m: int, path: str | Path) -> None:
    """StoreFormatError unless (q, K, m) is an instance that a store file
    header and the frames hold: q a prime below 2**64, K >= 2 and m >= 1,
    and a query's K*w bytes and an answer's m*w each below 2**32."""
    if not (q < 2**64 and is_prime(q) and K >= 2 and m >= 1
            and max(K, m) * gf.element_width(q) < 2**32):
        raise StoreFormatError(f"{path}: header q={q} K={K} m={m} is not an instance")


def write_store(path: str | Path, store: MessageStore) -> None:
    """Serialize a message store to its on-disk format, once check_header
    passes; a refused store leaves no file."""
    check_header(store.q, store.K, store.m, path)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<QII", store.q, store.K, store.m))
        fh.writelines(store.messages)


def read_store(path: str | Path) -> MessageStore:
    """Load and validate a store file, one message at a time once the
    header and the file's size check out."""
    with open(path, "rb") as fh:
        raw = fh.read(21)
        if raw[:5] == b"MPIR1":
            raise StoreFormatError(f"{path}: store format version 1 is no longer read; "
                                   "re-run `mpir store init` to write version 2")
        if len(raw) < 21 or raw[:5] != MAGIC:
            raise StoreFormatError(f"{path}: not a message store file")
        q, K, m = struct.unpack_from("<QII", raw, 5)
        check_header(q, K, m, path)
        size = m * gf.element_width(q)
        if (total := os.fstat(fh.fileno()).st_size) != 21 + K * size:
            raise StoreFormatError(f"{path}: size {total}, expected {21 + K * size}")
        messages = tuple(fh.read(size) for _ in range(K))
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
                    if gf.out_of_range(payload, store.q):
                        raise ProtocolError("field element out of range for the store's modulus")
                except ConnectionClosed:
                    return
                except ProtocolError as exc:
                    self.wfile.write(pack_frame(MSG_ERROR, str(exc).encode()))
                    return
                self.connection.settimeout(self.timeout)
                answer = server_answer(store, gf.decode(payload, store.q))
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
    per connection, which server_close() joins.  The store's packing is
    built before the socket is bound, so no first answer waits for it."""

    allow_reuse_address = True
    # The most connections served at once.  No workload measures concurrent
    # clients, so the value is a guess.
    max_workers = 16

    def __init__(self, store: MessageStore, host: str = "127.0.0.1", port: int = 0):
        if not 0 <= port < 65536:  # bind() would raise OverflowError
            raise ValueError(f"port {port} outside 0..65535")
        self.store = store
        store.packed  # built now, not during a client's first query
        self._open: set[socket.socket] = set()
        if ":" in host:  # an IPv6 literal, such as ::1; anything else binds as IPv4
            self.address_family = socket.AF_INET6
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
    except BaseException as exc:
        # A reply left unread must not pass for a later round's answer.
        for stream in held:
            _discard(stream)
        if isinstance(exc, OSError):  # a refusal, reset or timeout at the loop's endpoint
            raise type(exc)(*exc.args[:-1], f"{exc.strerror or exc} at server {endpoint}") from exc
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


def _check_endpoints(endpoints: tuple[tuple[str, int], ...]) -> None:
    # A server that receives two columns of one round sees U and U + V_h,
    # whose difference V_h has its support inside the demand set.  Names are
    # resolved so that two spellings of one address count as one server.  A
    # literal address resolves to itself alone, so a tuple of them keeps its
    # verdict; a name, or a scoped IPv6 host ("%" and an interface), is
    # looked up anew.  A refusal raises, so it is never kept.
    if not _literal_addrs(endpoints):
        _distinct_servers(endpoints)


def _distinct_servers(endpoints: tuple[tuple[str, int], ...]) -> bool:
    seen: dict[tuple, tuple[str, int]] = {}
    for endpoint in endpoints:
        host, port = endpoint
        if not 0 < port < 65536:  # getaddrinfo would take it mod 65536
            raise ValueError(f"endpoint {endpoint}: port outside 1..65535")
        try:
            addrs = _resolve(host, port)
        except OSError as exc:  # a name that does not resolve
            raise type(exc)(*exc.args[:-1], f"{exc.strerror or exc} at server {endpoint}") from exc
        for addr in addrs:
            if addr in seen:
                raise ValueError(
                    f"endpoints {seen[addr]} and {endpoint} are the same server {addr}; "
                    "a round needs N distinct servers"
                )
        seen.update(dict.fromkeys(addrs, endpoint))
    return True


def _resolve(host: str, port: int) -> frozenset[tuple]:
    return frozenset(ai[4][:2] for ai in socket.getaddrinfo(host, port, type=socket.SOCK_STREAM))


_literal_addrs = lru_cache(maxsize=64)(  # an all-literal tuple's check, once
    lambda endpoints: all(_is_literal(host) for host, _ in endpoints)
    and _distinct_servers(endpoints))


def _is_literal(host: str) -> bool:
    for family in (socket.AF_INET, socket.AF_INET6):
        with suppress(OSError, ValueError):
            return bool(socket.inet_pton(family, host)) and "%" not in host
    return False


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

    Query n goes to endpoints[n], a (host, port) pair given as a tuple or a
    list.  Without a seed the queries are drawn from the operating system's
    CSPRNG, as privacy requires.  A seed makes them a function of W, for
    replay only: with equal stores the transcript is then identical to an
    in-memory round driven by random.Random(seed).
    Endpoints with a port outside 1..65535, or that resolve to a common
    (address, port), are rejected with ValueError before any query is sent.

    Connections are reused across calls, at most one idle per endpoint, and
    a failed round closes its own.  A socket error (a bad name, a refusal, a
    reset or a timeout) keeps its class and errno and names its server.  A
    reused one the server has closed is retried once on a new connection
    with the same query.  Reuse lets a server link rounds, but its view of
    each has the same distribution for every W, so that leaks nothing more.
    """
    endpoints = tuple(map(tuple, endpoints))
    if len(endpoints) != params.N:
        raise ValueError(f"need exactly N={params.N} endpoints, got {len(endpoints)}")
    _check_endpoints(endpoints)
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
