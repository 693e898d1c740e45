"""Prime-field arithmetic, small dense linear algebra, and linear
combinations of whole vectors packed into one int each.

Packed slots are reduced mod q by byte-lane table lookups when
width*(q-1) < 256 (see :func:`combine`), and one slot at a time otherwise.

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
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from .params import Params

FieldVector = tuple[int, ...]
FullRankDraw = tuple[tuple[FieldVector, ...], tuple[FieldVector, ...]]  # (V, inverse)

_MAX_FULL_RANK_ATTEMPTS = 1000


def vec_add(a: Sequence[int], b: Sequence[int], q: int) -> FieldVector:
    """Elementwise a + b mod q."""
    return tuple((x + y) % q for x, y in zip(a, b, strict=True))


def vector_with_support(K: int, entries: dict[int, int]) -> FieldVector:
    """Length-K vector with entries[idx] at each 1-based idx, zero elsewhere."""
    vec = [0] * K
    for idx, val in entries.items():
        vec[idx - 1] = val
    return tuple(vec)


def inverse(q: int, mat: Sequence[Sequence[int]]) -> tuple[FieldVector, ...] | None:
    """Inverse of a matrix over GF(q), as a tuple of rows, or None when it
    has none (it is singular or not square).

    Gauss-Jordan on [mat | I], reducing entries mod q as rows are touched;
    it stops at the first column with no pivot.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    work = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] % q), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, q)
        work[col] = [(x * inv) % q for x in work[col]]
        for r in range(n):
            f = work[r][col] % q
            if r != col and f:
                work[r] = [(a - f * b) % q for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


@functools.lru_cache(maxsize=256)
def slot_width(terms: int, q: int) -> int:
    """Bytes per packed slot that hold a sum of `terms` products of two
    elements of [0, q) without carrying into the next slot.

    Widths up to 8 bytes round up to a struct format size (1, 2, 4 or 8).
    """
    nbytes = -(-(terms * (q - 1) ** 2).bit_length() // 8)
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


def pack(vec: bytes, w: int, width: int) -> int:
    """One int holding the element vector vec, of w-byte elements, in
    `width`-byte slots, entry 0 in the lowest slot."""
    return int.from_bytes(restride(vec, w, width), "little")


def combine(
    coeffs: Sequence[int], packed: Sequence[int], m: int, q: int, width: int
) -> bytes:
    """sum_t coeffs[t] * vec_t mod q, elementwise, as an element vector, for
    length-m vectors packed by :func:`pack` into ``slot_width(n, q)``-byte
    slots, n at least the number of coefficients nonzero mod q.

    Coefficients are reduced mod q first, so the slots never carry: one
    big-int multiply-add per term, then one reduction of every slot.  A slot
    v = sum_k b_k*256**k is congruent to sum_k T_k[b_k], T_k[b] = b*256**k mod q,
    so when width*(q-1) < 256 each byte lane k is translated through T_k, the
    lanes are added without carries, and T_0 maps the sum once more.
    """
    acc = 0
    for coeff, vec in zip(coeffs, packed, strict=True):
        coeff %= q
        if coeff:
            acc += coeff * vec
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
    params: "Params", supports: Sequence[Iterable[int]], rng: random.Random
) -> FullRankDraw:
    """(V, inverse): D random vectors V with the given supports, and the
    inverse of their D x D submatrix on the columns the supports cover.

    Each vector has nonzero entries drawn uniformly from the multiplicative
    group, filled in ascending index order; the whole batch is redrawn until
    that submatrix inverts, which is the stack having rank D (the other
    columns are zero).  Supports covering fewer than D columns never invert,
    and more than D raise ValueError up front.  Success is expected quickly
    for any q > D, so exhausting the attempt budget indicates a broken
    caller.  An rng with a redraw_until(attempt) method runs the retry
    itself; an attempt returns None when the draw is rejected.
    """
    q = params.q
    sorted_supports = [sorted(s) for s in supports]
    if any(not s for s in sorted_supports):
        raise ValueError("every support must be nonempty")
    covered = sorted(set().union(*sorted_supports))
    if len(covered) > len(supports):
        raise ValueError(f"the supports cover {len(covered)} columns, more than {len(supports)}")

    def attempt() -> FullRankDraw | None:
        V = tuple(
            vector_with_support(params.K, {idx: rng.randrange(1, q) for idx in sup})
            for sup in sorted_supports
        )
        inv = inverse(q, [[v[idx - 1] for idx in covered] for v in V])
        return None if inv is None else (V, inv)

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
