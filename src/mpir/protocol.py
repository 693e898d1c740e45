"""One retrieval round: build queries, answer them, recover the demand.

:func:`execute_round` is the one round body.  It checks W once, as a
``plan.Demand``, builds the queries, hands all N of them to an answerer, and
recovers the demand from the answers.  :func:`run_round` answers from an
in-memory store; ``net.retrieve`` answers over TCP.  Randomness is consumed
in a fixed order, one stage function each: the row (``plan.sample_row``), U
(:func:`mixing_vector`), V's block on W per full-rank attempt
(``gf.random_full_rank_V``, on the row's position layout) and the permutation
(:func:`assign`), so a seeded round gives one transcript on either transport.
"""
from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Sequence

from . import gf, plan
from .params import Params
from .prob import ProbTable

Message = bytes  # m elements of gf.element_width(q) bytes each, little-endian
Answer = Message | None  # None when the query was the zero vector
AnswerAll = Callable[[tuple[gf.FieldVector, ...]], Sequence[Answer]]


@dataclass(frozen=True)
class MessageStore:
    """K messages of m field elements, each one element vector (see
    :mod:`mpir.gf`), identical on every server.  :attr:`packed` is cached
    outside the fields, so equality, hash and repr ignore it."""

    q: int
    m: int
    messages: tuple[Message, ...]

    def __post_init__(self) -> None:
        size = self.m * gf.element_width(self.q)
        for idx, msg in enumerate(self.messages, start=1):
            if len(msg) != size:
                raise ValueError(f"message {idx} has {len(msg)} bytes, expected {size}")
            if gf.out_of_range(msg, self.q):
                raise ValueError(f"message {idx} has entries outside [0, {self.q})")

    @property
    def K(self) -> int:
        return len(self.messages)

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """The messages packed in ``gf.slot_width(K, q)``-byte slots, once."""
        w, width = gf.element_width(self.q), gf.slot_width(self.K, self.q)
        return tuple(gf.pack(msg, w, width) for msg in self.messages)

    @classmethod
    def random(cls, params: Params, rng: random.Random) -> "MessageStore":
        """K uniform messages: the same elements, and the same rng state
        afterwards, as rng.randrange(q) per element, message by message
        (one-byte fields draw them in batches, :func:`gf.random_elements`)."""
        msgs = tuple(gf.random_elements(rng, params.q, params.m) for _ in range(params.K))
        return cls(q=params.q, m=params.m, messages=msgs)


@dataclass(frozen=True)
class QuerySet:
    """The N query vectors of one round, keyed by receiving server.

    permutation[n] is the 0-based server receiving column n, and
    queries[permutation[n]] holds that column.  Column 0 is the mixing
    vector U, zero on W; column h is U with W's entries, in ascending order,
    set from row h-1 of the full-rank block A, so both read back from the
    columns.  inverse is A's inverse, kept from the full-rank draw for
    :func:`recover`; a transcript does not write it, since A fixes it.
    """

    row: plan.RowId
    permutation: tuple[int, ...]
    queries: tuple[gf.FieldVector, ...]
    inverse: tuple[gf.FieldVector, ...]


@dataclass(frozen=True)
class Transcript:
    """Everything observable in one round, for auditing and comparison."""

    W: tuple[int, ...]
    query_set: QuerySet
    answers: tuple[Answer, ...]
    recovered: tuple[Message, ...]
    download_elements: int
    q: int

    def to_bytes(self) -> bytes:
        """Canonical byte serialization, for exact transcript comparison;
        answer and recovered elements are written as u64."""
        w = gf.element_width(self.q)
        out = bytearray()
        out += struct.pack("<I", len(self.W)) + struct.pack(f"<{len(self.W)}I", *self.W)
        out += struct.pack("<4I", *self.query_set.row)
        out += struct.pack(f"<{len(self.query_set.permutation)}I", *self.query_set.permutation)
        for vec in self.query_set.queries:
            out += struct.pack(f"<{len(vec)}Q", *vec)
        for ans in self.answers:
            if ans is None:
                out += b"\x00"
            else:
                out += b"\x01" + gf.restride(ans, w, 8)
        for msg in self.recovered:
            out += gf.restride(msg, w, 8)
        out += struct.pack("<Q", self.download_elements)
        return bytes(out)


def make_query_set(
    params: Params, prob: ProbTable, W: Collection[int], rng: random.Random
) -> QuerySet:
    """Sample a row, then draw its queries (:func:`draw_queries`)."""
    w = plan.demand(params, W)
    row = plan.sample_row(params, prob, w, rng)
    return draw_queries(params, w, row, *plan.row_layout(params, w, row), rng)


def draw_queries(params: Params, w: Sequence[int], row: plan.RowId, R: Sequence[int],
                 positions: Sequence[Sequence[int]], rng: random.Random) -> QuerySet:
    """Draw one row's queries in three stages, in this rng order: U over R,
    the full-rank block A on the parts (positions in sorted w) with its
    inverse, and the assignment; column h is U with w[p] set to A[h-1][p]."""
    U = mixing_vector(params, R, rng)
    A, inverse = gf.random_full_rank_V(params.q, positions, rng)
    columns = [U]
    for a in A:
        col = list(U)
        for x, entry in zip(w, a):
            col[x - 1] = entry
        columns.append(tuple(col))
    return QuerySet(row, *assign(params, columns, rng), inverse)


def mixing_vector(params: Params, R: Sequence[int], rng: random.Random) -> gf.FieldVector:
    """U: a uniform nonzero entry at each index of R, drawn in R's (ascending) order."""
    return gf.vector_with_support(params.K, {idx: rng.randrange(1, params.q) for idx in R})


def assign(params: Params, columns: Sequence[gf.FieldVector], rng: random.Random) -> tuple:
    """(permutation, queries): a shuffle of the N servers, column n to server permutation[n]."""
    servers = list(range(params.N))
    rng.shuffle(servers)
    queries = [()] * params.N
    for server, col in zip(servers, columns):
        queries[server] = col
    return tuple(servers), tuple(queries)


def server_answer(store: MessageStore, query: Sequence[int]) -> Answer:
    """Linear combination of the stored messages, or None for a zero query.

    This is the only computation a server performs; it sees nothing but the
    coefficient vector.  It combines over the store's one packing.
    """
    if len(query) != (K := store.K):
        raise ValueError(f"query length {len(query)} != K={K}")
    if not any(query):
        return None
    return gf.combine(query, store.packed, store.m, store.q, gf.slot_width(K, store.q))


def recover(
    params: Params, query_set: QuerySet, answers: Sequence[Answer]
) -> tuple[Message, ...]:
    """Solve for the D demand messages from the N per-server answers.

    Answers are un-permuted back into column order (silent servers count as
    zero).  Column h is the first column plus row h-1 of the full-rank
    block A on W, so demand message t is
    sum_h inv(A)[t][h] * (column h+1 - column 0): one linear combination of
    the N columns per demand message.  inv(A) is the query set's inverse,
    so recovery eliminates nothing.
    """
    width = gf.slot_width(params.N, params.q)
    w = gf.element_width(params.q)
    size = params.m * w
    packed = []
    for server in query_set.permutation:
        if (ans := answers[server]) is None:
            packed.append(0)
        elif len(ans) != size:
            raise ValueError(f"answer of {len(ans)} bytes, expected {size} (m={params.m})")
        else:
            packed.append(int.from_bytes(ans, "little") if width == w else gf.pack(ans, w, width))
    return tuple(
        gf.combine((-sum(row),) + row, packed, params.m, params.q, width)
        for row in query_set.inverse
    )


def execute_round(
    params: Params,
    prob: ProbTable,
    W: Iterable[int],
    rng: random.Random,
    answer_all: AnswerAll,
) -> Transcript:
    """Run one round: build the queries, get the N answers from
    answer_all(queries), where queries[n] goes to server n, and recover."""
    w = plan.demand(params, W)
    qs = make_query_set(params, prob, w, rng)
    answers = tuple(answer_all(qs.queries))
    return Transcript(
        W=w,
        query_set=qs,
        answers=answers,
        recovered=recover(params, qs, answers),
        download_elements=params.m * (len(answers) - answers.count(None)),
        q=params.q,
    )


def run_round(
    params: Params,
    prob: ProbTable,
    W: Iterable[int],
    store: MessageStore,
    rng: random.Random,
) -> Transcript:
    """Execute one full in-memory round against a concrete store."""
    if (store.K, store.q, store.m) != (params.K, params.q, params.m):
        raise ValueError("store shape does not match params")
    return execute_round(
        params, prob, W, rng, lambda queries: [server_answer(store, qv) for qv in queries]
    )
