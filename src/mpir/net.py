"""Wire protocol: standalone answer servers and a networked retrieval client.

Frame layout (all integers little-endian):

    length   u32   payload byte count
    msg_type u8    1=QUERY 2=ANSWER 3=EMPTY_ANSWER 4=ERROR
    payload  bytes

A QUERY payload is K field elements, an ANSWER payload m field elements,
each a u64.  EMPTY_ANSWER carries no payload and is the reply to an all-zero
query.  ERROR carries a UTF-8 message and the server closes the connection;
a QUERY header declaring other than 8*K bytes gets ERROR before any payload
is read.

Store file layout: magic "MPIR1", q u64, K u32, m u32, then K*m field
elements as u64 in message-major order (21 + 8*K*m bytes total).

The server handler receives nothing but coefficient vectors; the demand set
never crosses the wire.
"""
from __future__ import annotations

import random
import socket
import socketserver
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from .params import Params
from .prob import build_prob_table
from .protocol import Answer, MessageStore, Transcript, make_query_set, recover, server_answer

MAGIC = b"MPIR1"
MSG_QUERY = 1
MSG_ANSWER = 2
MSG_EMPTY_ANSWER = 3
MSG_ERROR = 4
_KNOWN_TYPES = {MSG_QUERY, MSG_ANSWER, MSG_EMPTY_ANSWER, MSG_ERROR}
_HEADER = struct.Struct("<IB")
_READ_CHUNK = 1 << 16


class ProtocolError(Exception):
    """Malformed frame or unexpected message."""


class ConnectionClosed(ProtocolError):
    """Peer closed the connection at a frame boundary (not an error)."""


class StoreFormatError(ValueError):
    """Store file fails structural validation."""


def pack_frame(msg_type: int, payload: bytes = b"") -> bytes:
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {msg_type}")
    return _HEADER.pack(len(payload), msg_type) + payload


def read_frame(stream: BinaryIO) -> tuple[int, bytes]:
    """Read one frame.

    Raises ConnectionClosed at a clean frame boundary and ProtocolError on
    truncation or an unknown message type.
    """
    length, msg_type = _read_header(stream)
    return msg_type, _read_payload(stream, length)


def _read_header(stream: BinaryIO) -> tuple[int, int]:
    header = _read_up_to(stream, _HEADER.size)
    if not header:
        raise ConnectionClosed("no more frames")
    if len(header) < _HEADER.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    length, msg_type = _HEADER.unpack(header)
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {msg_type}")
    return length, msg_type


def _read_payload(stream: BinaryIO, length: int) -> bytes:
    payload = _read_up_to(stream, length)
    if len(payload) < length:
        raise ProtocolError(f"truncated payload ({len(payload)}/{length} bytes)")
    return payload


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


def pack_elements(values: Sequence[int]) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def unpack_elements(payload: bytes, count: int, q: int) -> tuple[int, ...]:
    if len(payload) != 8 * count:
        raise ProtocolError(f"payload is {len(payload)} bytes, expected {8 * count}")
    values = struct.unpack(f"<{count}Q", payload)
    if any(v >= q for v in values):
        raise ProtocolError("field element out of range for the store's modulus")
    return values


def write_store(path: str | Path, store: MessageStore) -> None:
    """Serialize a message store to its on-disk format."""
    if store.q >= 2**64:
        raise StoreFormatError("field order does not fit in 64 bits")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QII", store.q, store.K, store.m))
        for msg in store.messages:
            fh.write(pack_elements(msg))


def read_store(path: str | Path) -> MessageStore:
    """Load and validate a store file."""
    raw = Path(path).read_bytes()
    if len(raw) < 21 or raw[:5] != MAGIC:
        raise StoreFormatError(f"{path}: not a message store file")
    q, K, m = struct.unpack_from("<QII", raw, 5)
    expected = 21 + 8 * K * m
    if len(raw) != expected:
        raise StoreFormatError(f"{path}: size {len(raw)}, expected {expected}")
    flat = struct.unpack_from(f"<{K * m}Q", raw, 21)
    if any(v >= q for v in flat):
        raise StoreFormatError(f"{path}: element >= q")
    messages = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(K))
    return MessageStore(q=q, m=m, messages=messages)


class _AnswerHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        store: MessageStore = self.server.store  # type: ignore[attr-defined]
        while True:
            try:
                length, msg_type = _read_header(self.rfile)
                if msg_type != MSG_QUERY:
                    raise ProtocolError(f"expected QUERY, got type {msg_type}")
                # Checked before the payload is read: a peer cannot make the
                # server wait for, or buffer, more than one query's bytes.
                if length != 8 * store.K:
                    raise ProtocolError(f"QUERY of {length} bytes, expected {8 * store.K}")
                query = unpack_elements(_read_payload(self.rfile, length), store.K, store.q)
            except ConnectionClosed:
                return
            except ProtocolError as exc:
                self.wfile.write(pack_frame(MSG_ERROR, str(exc).encode()))
                return
            answer = server_answer(store, query)
            if answer is None:
                self.wfile.write(pack_frame(MSG_EMPTY_ANSWER))
            else:
                self.wfile.write(pack_frame(MSG_ANSWER, pack_elements(answer)))


class StoreServer(socketserver.ThreadingTCPServer):
    """TCP server answering queries against one immutable store."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store: MessageStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        super().__init__((host, port), _AnswerHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(store_path: str | Path, port: int, host: str = "127.0.0.1") -> None:
    """Blocking entry point: answer queries against a store file until killed."""
    server = StoreServer(read_store(store_path), host=host, port=port)
    try:
        server.serve_forever()
    finally:
        server.server_close()


@dataclass(frozen=True)
class RetrieveResult:
    transcript: Transcript
    downloaded_bytes: int


def _query_endpoint(endpoint: tuple[str, int], query: Sequence[int], m: int, q: int) -> Answer:
    with socket.create_connection(endpoint, timeout=30) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(pack_frame(MSG_QUERY, pack_elements(query)))
            stream.flush()
            msg_type, payload = read_frame(stream)
    if msg_type == MSG_EMPTY_ANSWER:
        if payload:
            raise ProtocolError("EMPTY_ANSWER with payload")
        return None
    if msg_type == MSG_ANSWER:
        try:
            return unpack_elements(payload, m, q)
        except ProtocolError as exc:
            raise ProtocolError(f"inconsistent store parameters at {endpoint}: {exc}") from exc
    if msg_type == MSG_ERROR:
        raise ProtocolError(f"server {endpoint} reported: {payload.decode(errors='replace')}")
    raise ProtocolError(f"unexpected reply type {msg_type}")


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


def retrieve(
    endpoints: Sequence[tuple[str, int]],
    W: Iterable[int],
    params: Params,
    seed: int,
) -> RetrieveResult:
    """Run one protocol round over the network.

    Builds the queries locally from the seed, sends column n to
    endpoints[permutation[n]] concurrently, and recovers from the collected
    answers.  With equal stores this yields the identical transcript as an
    in-memory round driven by the same seed.  Endpoints that resolve to a
    common (address, port) are rejected with ValueError before any query is
    sent.
    """
    if len(endpoints) != params.N:
        raise ValueError(f"need exactly N={params.N} endpoints, got {len(endpoints)}")
    _check_distinct(endpoints)
    prob = build_prob_table(params)
    rng = random.Random(seed)
    w = tuple(sorted(set(W)))
    qs = make_query_set(params, prob, w, rng)
    with ThreadPoolExecutor(max_workers=params.N) as pool:
        futures = [
            pool.submit(_query_endpoint, endpoints[server], qs.queries[server], params.m, params.q)
            for server in range(params.N)
        ]
        answers = tuple(f.result() for f in futures)
    recovered = recover(params, qs, answers)
    downloaded = params.m * sum(1 for a in answers if a is not None)
    transcript = Transcript(
        W=w,
        query_set=qs,
        answers=answers,
        recovered=recovered,
        download_elements=downloaded,
    )
    return RetrieveResult(transcript=transcript, downloaded_bytes=downloaded * 8)
