"""Prime-field arithmetic, small dense linear algebra, and linear
combinations of whole vectors packed into one int each.

Packed slots hold one product where they reduce mod q by byte-lane lookups
(width*(q-1) < 256; :func:`combine` reduces before a slot could carry) and
every term's otherwise (:func:`slot_width`); :func:`inverse` is in place.
:func:`random_elements` draws what per-element ``randrange`` would, for
one-byte fields in batches of 32-bit words that one translate maps to
elements.

Field elements are plain ints in [0, q) and every function takes the prime
modulus q as an argument; :class:`~mpir.params.Params` has already checked
that q is prime.  Coefficient vectors are tuples of ints of length K,
entry t holding the coefficient of message t+1.  Element vectors (messages,
answers, recovered messages) are one ``bytes`` each: little-endian elements
of ``element_width(q)`` bytes, one byte for every q <= 256.
"""
from __future__ import annotations

import functools
import random
import struct
from typing import Callable, Iterable, Sequence

FieldVector = tuple[int, ...]
FullRankDraw = tuple[tuple[FieldVector, ...], tuple[FieldVector, ...]]  # (A, inverse)

_MAX_FULL_RANK_ATTEMPTS = 1000


def inverse(q: int, mat: Sequence[Sequence[int]]) -> tuple[FieldVector, ...] | None:
    """Inverse of a matrix over GF(q), as a tuple of rows, or None when it
    has none (it is singular or not square).

    Gauss-Jordan in place, stopping at the first column with no pivot: each
    pivot column is written over with the inverse's, and the row swaps, made
    for zero diagonal entries only, are undone as column swaps in reverse.
    Entries are reduced once, up front; a row update touches only the pivot
    row's nonzero entries.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    work = [[x % q for x in row] for row in mat]
    swaps = []
    for col in range(n):
        if not work[col][col]:  # bring up the first row below with a pivot
            pivot = next((r for r in range(col + 1, n) if work[r][col]), None)
            if pivot is None:
                return None
            swaps.append((col, pivot))
            work[col], work[pivot] = work[pivot], work[col]
        row = work[col]
        inv = pow(row[col], -1, q)
        row[col] = 1
        row[:] = [x * inv % q for x in row]
        terms = [(c, b) for c, b in enumerate(row) if b]
        for cur in work:
            if (f := cur[col]) and cur is not row:
                cur[col] = 0
                for c, b in terms:
                    cur[c] = (cur[c] - f * b) % q
    for col, pivot in reversed(swaps):
        for row in work:
            row[col], row[pivot] = row[pivot], row[col]
    return tuple(map(tuple, work))


_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


@functools.lru_cache(maxsize=256)
def slot_width(terms: int, q: int) -> int:
    """Bytes per packed slot that hold n products of two elements of [0, q),
    up to 8 rounded up to a struct size (1, 2, 4 or 8): n = 1 where the slots
    reduce on byte lanes (width*(q-1) < 256, so q <= 128), else `terms`."""
    n = 1 if q <= 128 else terms
    nbytes = -(-(n * (q - 1) ** 2).bit_length() // 8)
    return next((w for w in _SLOT_FORMATS if nbytes <= w), nbytes)


def element_width(q: int) -> int:
    """Bytes per element of GF(q): the byte length of q-1, at least 1."""
    return max(1, -(-(q - 1).bit_length() // 8))


def restride(vec: bytes, width: int, new_width: int) -> bytes:
    """vec's little-endian `width`-byte slots as `new_width`-byte ones, one
    slice assignment per byte lane; narrowing drops high bytes."""
    if width == new_width:
        return vec
    out = bytearray(len(vec) // width * new_width)
    for k in range(min(width, new_width)):
        out[k::new_width] = vec[k::width]
    return bytes(out)


def encode(values: Sequence[int], q: int) -> bytes:
    """The element vector of ints in [0, q)."""
    w = element_width(q)
    if w == 1:
        return bytes(values)
    return restride(struct.pack(f"<{len(values)}Q", *values), 8, w)


def decode(vec: bytes, q: int) -> tuple[int, ...]:
    """The ints of an element vector over GF(q)."""
    w = element_width(q)
    if w == 1:
        return tuple(vec)
    return struct.unpack(f"<{len(vec) // w}Q", restride(vec, w, 8))


def out_of_range(vec: bytes, q: int) -> bool:
    """Whether an element of the element vector vec is q or more."""
    if element_width(q) == 1:  # one translate marks each byte >= q
        return vec.translate(_range_table(q)).find(1) != -1
    return max(decode(vec, q), default=0) >= q


@functools.lru_cache(maxsize=64)
def _range_table(q: int) -> bytes:
    return bytes(b >= q for b in range(256))


# The most 32-bit words one getrandbits call in random_elements draws.
_SAMPLE_CHUNK = 1 << 16


def random_elements(rng: random.Random, q: int, n: int) -> bytes:
    """The element vector of n draws of rng.randrange(q), leaving rng as
    that loop leaves it.

    randrange(q) takes k = q.bit_length() bits with getrandbits(k), which
    for k <= 8 is the top k bits of one 32-bit word, and redraws while the
    result is q or more.  So one getrandbits(32*need) yields the next `need`
    words, word i in bits 32i..32i+31, and one translate shifts each word's
    top byte right by 8-k and deletes the bytes the loop rejects.  `need`
    is the shortfall, at most _SAMPLE_CHUNK words, so no word past the n-th
    accepted one is drawn.  Fields wider than one byte draw one randrange
    each.
    """
    if q.bit_length() > 8:
        return encode([rng.randrange(q) for _ in range(n)], q)
    parts, have = [], 0
    while have < n:
        need = min(n - have, _SAMPLE_CHUNK)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        parts.append(words[3::4].translate(*_sample_tables(q)))
        have += len(parts[-1])
    return b"".join(parts)


@functools.lru_cache(maxsize=64)
def _sample_tables(q: int) -> tuple[bytes, bytes]:
    # A top byte b draws b >> shift, rejected when b >= q << shift.
    shift = 8 - q.bit_length()
    return bytes(b >> shift for b in range(256)), bytes(range(q << shift, 256))


def pack(vec: bytes, w: int, width: int) -> int:
    """One int holding the element vector vec, of w-byte elements, in
    `width`-byte slots, entry 0 in the lowest slot."""
    return int.from_bytes(restride(vec, w, width), "little")


def combine(
    coeffs: Sequence[int], packed: Sequence[int], m: int, q: int, width: int
) -> bytes:
    """sum_t coeffs[t] * vec_t mod q, elementwise, as an element vector, for
    length-m vectors packed by :func:`pack` into `width`-byte slots.

    One big-int multiply-add per term (coefficient mod q), then one reduction
    of every slot, also run before a term that could carry: a reduced slot
    plus a product is under q**2, so fits where a product does, and a width
    that cannot hold it raises ValueError.  When width*(q-1) < 256 each byte
    lane k goes through T_k[b] = b*256**k mod q (a slot is congruent to the
    sum), the lanes add without carries, and T_0 maps the sum once more."""
    acc = bound = 0  # bound: the largest value a slot of acc can hold
    limit = 256**width
    for coeff, vec in zip(coeffs, packed, strict=True):
        if coeff and (coeff := coeff % q):
            step = coeff * (q - 1)
            if bound + step >= limit:
                acc, bound = pack(_reduce(acc, m, q, width), element_width(q), width), q - 1
                if bound + step >= limit:
                    raise ValueError(f"{width}-byte slots cannot hold a product mod {q}")
            term = vec if coeff == 1 else coeff * vec
            acc = acc + term if bound else term  # the first term is not copied onto 0
            bound += step
    return _reduce(acc, m, q, width)


def _reduce(acc: int, m: int, q: int, width: int) -> bytes:
    """The element vector of acc's m `width`-byte slots, each mod q."""
    raw = acc.to_bytes(m * width, "little")
    if width * (q - 1) < 256:
        tables = _lane_tables(q, width)
        if width == 1:
            return raw.translate(tables[0])
        lanes = (raw[k::width].translate(table) for k, table in enumerate(tables))
        total = sum(int.from_bytes(lane, "little") for lane in lanes)
        return total.to_bytes(m, "little").translate(tables[0])
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        slots: Iterable[int] = struct.unpack(f"<{m}{fmt}", raw)
    else:
        slots = (int.from_bytes(raw[t : t + width], "little") for t in range(0, len(raw), width))
    return encode([v % q for v in slots], q)


@functools.lru_cache(maxsize=64)
def _lane_tables(q: int, width: int) -> tuple[bytes, ...]:
    return tuple(bytes(b * 256**k % q for b in range(256)) for k in range(width))


def random_full_rank_V(
    q: int, positions: Sequence[Sequence[int]], rng: random.Random
) -> FullRankDraw:
    """(A, inverse): a random D x D block over GF(q), D = len(positions),
    row h nonzero exactly at the sorted columns positions[h], and its inverse;
    in a round, A is V's block on W, column p for message w[p] (w = sorted W).

    Entries are drawn uniformly from the multiplicative group, row by row in
    ascending column order, and the block is redrawn until it inverts (for
    q > D quickly; never with an empty column, which exhausts the attempt
    budget).  An rng with a redraw_until(attempt) method runs the retry
    itself; an attempt returns None when the draw is rejected.
    """
    draw = rng.randrange

    def attempt() -> FullRankDraw | None:
        block = [[0] * len(positions) for _ in positions]
        for row, cols in zip(block, positions):
            for c in cols:
                row[c] = draw(1, q)
        if (inv := inverse(q, block)) is None:
            return None
        return tuple(map(tuple, block)), inv

    return getattr(rng, "redraw_until", _redraw_until)(attempt)


def _redraw_until(attempt: Callable[[], FullRankDraw | None]) -> FullRankDraw:
    """The first attempt() other than None, of up to _MAX_FULL_RANK_ATTEMPTS
    independent attempts."""
    for _ in range(_MAX_FULL_RANK_ATTEMPTS):
        if (value := attempt()) is not None:
            return value
    raise RuntimeError(
        f"no full-rank draw in {_MAX_FULL_RANK_ATTEMPTS} attempts; "
        "this should be impossible for q > D"
    )
