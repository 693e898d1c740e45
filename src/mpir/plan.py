"""The query-plan table: row indexing, subset machinery, and row sampling.

A plan table for demand set W has one row per tuple (i, k, j, l):

* sub-table i in 0..K-D fixes how many non-demand messages are mixed in;
* block k picks which i-subset of the complement of W that is;
* sub-block j in 1..D fixes how many demand messages each answering server
  adds on top;
* row l in 1..l_j picks one j-subset T of W from a fixed collection, and the
  row's N supports are R, then R plus each of T's D cyclic shifts within W.

Rows are never materialized as a whole table; everything is reconstructed on
demand from the tuple.  The one form of a demand part is a position bitmask
(bit p for the p-th smallest element of W): the cyclic shifts are rotations
of D-bit masks, and _position_masks caches each sub-block's shifted
collection as one table of them.  A round checks W once, as a Demand, and
reads a row as (R, parts), each part that table's entry as sorted positions;
the privacy audit maps the whole table to message bitmasks (bit x-1 for
message x) through the subset table it builds per demand set.  The collection
of j-subsets backing each sub-block must satisfy an evenness property (every
j-subset of W appears exactly m_j times across the l_j x D shifted columns);
that property is load-bearing for privacy, so it is searched for and
verified here, by the one predicate masks_even, instead of assumed.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import combinations, filterfalse
from typing import Iterable, NamedTuple

from .params import Params, lj_mj
from .prob import ProbTable


class EvennessError(ValueError):
    """No collection of distinct j-subsets can satisfy the evenness property."""


RowParts = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]  # (R, the D parts)


class RowId(NamedTuple):
    """Row address (sub-table, block, sub-block, row); k, j, l are 1-based."""

    i: int
    k: int
    j: int
    l: int


class Demand(tuple):
    """W sorted, with its params and its sorted complement, rest."""


def demand(params: Params, W: Iterable[int]) -> Demand:
    """W as a Demand for params: D distinct indices in [1, K], else
    ValueError.  One already made for params is returned unchecked, so the
    plan functions a round calls check its W once."""
    if type(W) is Demand and W.params is params:
        return W
    w = Demand(sorted(set(W)))
    if len(w) != params.D:
        raise ValueError(f"demand must contain exactly D={params.D} distinct indices")
    if w[0] < 1 or w[-1] > params.K:
        raise ValueError(f"demand indices must lie in [1, {params.K}]")
    w.params, w.rest = params, complement(params, w)
    return w


def complement(params: Params, W: Iterable[int]) -> tuple[int, ...]:
    """Sorted message indices outside the demand."""
    return tuple(filterfalse(set(W).__contains__, range(1, params.K + 1)))


def r_subset(params: Params, W: Iterable[int], i: int, k: int) -> tuple[int, ...]:
    """The k-th i-subset of [K] \\ W in lexicographic order (k is 1-based)."""
    if not 0 <= i <= params.K - params.D:
        raise ValueError(f"i must be in [0, {params.K - params.D}], got {i}")
    pool = demand(params, W).rest
    if not 1 <= k <= math.comb(n := len(pool), i):
        raise ValueError(f"k must be in [1, {math.comb(n, i)}], got {k}")
    # Combinatorial unranking: at each slot, skip over the blocks of
    # combinations that start with earlier pool elements.
    idx = k - 1
    out: list[int] = []
    pos = 0
    for slots_left in range(i - 1, -1, -1):
        while idx >= (block := math.comb(n - pos - 1, slots_left)):
            idx -= block
            pos += 1
        out.append(pool[pos])
        pos += 1
    return tuple(out)


def _position_candidates(D: int, j: int) -> tuple[tuple[int, ...], ...]:
    # All j-subsets of positions 0..D-1 containing position 0, in lex order.
    return tuple(c for c in combinations(range(D), j) if c[0] == 0)


def _shifted(D: int, cands: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """The D cyclic shifts of each position set in cands, as D-bit position
    masks (bit p for position p): shift h moves position p to (p + h) mod D."""
    full = (1 << D) - 1
    masks = [sum(1 << p for p in cand) for cand in cands]
    return tuple((s << h | s >> (D - h)) & full for s in masks for h in range(D))


def masks_even(masks: Iterable[int], D: int, j: int) -> bool:
    """The evenness property: the position masks are the j-subsets of the D
    positions, each exactly m_j times."""
    _, m = lj_mj(D)
    return Counter(masks) == Counter({s: m[j - 1] for s in range(1 << D) if s.bit_count() == j})


@lru_cache(maxsize=None)
def lex_first_positions_even(D: int, j: int) -> bool:
    """Whether the first l_j candidate subsets already satisfy evenness.

    This is the naive 'take any l_j subsets' reading; it fails for some
    (D, j), e.g. D=7 with j=3, which is why the chosen collection below is
    built per cyclic-shift orbit instead.
    """
    l, _ = lj_mj(D)
    return masks_even(_shifted(D, _position_candidates(D, j)[: l[j - 1]]), D, j)


@lru_cache(maxsize=None)
def _chosen_positions(D: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least even collection, found by orbit quotas.

    A candidate's D cyclic shifts cover its shift-orbit, hitting each orbit
    member stab times (stab = D / orbit size).  Evenness therefore holds
    exactly when each orbit contributes m_j / stab chosen candidates, so a
    greedy pass over candidates in lex order, capped per orbit, yields the
    lexicographically least feasible collection directly.
    """
    if not 1 <= j <= D:
        raise ValueError(f"j must be in [1, {D}], got {j}")
    l, m = lj_mj(D)
    lj, mj = l[j - 1], m[j - 1]
    quotas: dict[frozenset[int], int] = {}
    chosen: list[tuple[int, ...]] = []
    for cand in _position_candidates(D, j):
        orbit = frozenset(_shifted(D, [cand]))
        stab = D // len(orbit)
        if mj % stab != 0:
            raise EvennessError(
                f"no even collection exists for D={D}, j={j}: an orbit with "
                f"stabilizer {stab} cannot meet multiplicity {mj}"
            )
        quota = quotas.setdefault(orbit, mj // stab)
        if quota > 0:
            quotas[orbit] = quota - 1
            chosen.append(cand)
            if len(chosen) == lj:
                break
    if len(chosen) != lj or not masks_even(_shifted(D, chosen), D, j):
        raise EvennessError(f"even collection search failed for D={D}, j={j}")
    return tuple(chosen)


@lru_cache(maxsize=None)
def _position_masks(D: int, j: int) -> tuple[int, ...]:
    """Row l of sub-block j's D cyclic shifts of its chosen positions, as
    position bitmasks (bit p for position p), at [(l-1)D, lD)."""
    return _shifted(D, _chosen_positions(D, j))


@lru_cache(maxsize=None)
def _position_parts(D: int, j: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Row l-1 of sub-block j: its D parts in _position_masks as sorted positions."""
    parts = [tuple(p for p in range(D) if s >> p & 1) for s in _position_masks(D, j)]
    return tuple(zip(*[iter(parts)] * D))


@lru_cache(maxsize=None)
def _collections(D: int, sub_blocks: tuple[int, ...]) -> tuple:
    """Each sub-block's chosen positions: EvennessError for one with none."""
    return tuple(_chosen_positions(D, j) for j in sub_blocks)


def sub_block_masks(params: Params, table: list[int], j: int) -> tuple[tuple[int, ...], ...]:
    """Per row l of sub-block j, the D demand parts (T_l's cyclic shifts) that
    its columns 2..N add: the position table mapped through W's subset table,
    whose entry s is the message bitmask of {w[p] : bit p of s}, w = sorted W."""
    parts = map(table.__getitem__, _position_masks(params.D, j))
    return tuple(zip(*[parts] * params.D))  # D consecutive parts per row


def row_layout(params: Params, W: Iterable[int], row: RowId) -> RowParts:
    """One table row as (R, parts): R the complement subset, sorted, and the
    D demand parts that columns 2..N add on top of it, as sorted positions
    in sorted W, from the cached position table.  They are the D cyclic
    shifts of one j-subset, so together they cover all D positions."""
    R = r_subset(params, W, row.i, row.k)
    rows = _position_parts(params.D, row.j)
    if not 1 <= row.l <= len(rows):
        raise ValueError(f"row index {row.l} out of range for sub-block {row.j}")
    return R, rows[row.l - 1]


def total_rows(params: Params) -> int:
    """Number of rows in the full table: 2^(K-D) * sum_j l_j."""
    l, _ = lj_mj(params.D)
    return 2 ** (params.K - params.D) * sum(l)


def sample_row(params: Params, prob: ProbTable, W: Iterable[int], rng: random.Random) -> RowId:
    """Draw one row id with probability P[i][j], uniform across k and l.

    The draw is one uniform integer target in [0, den), den the table's
    least common denominator, located among exact integer thresholds: every row
    gets exactly its probability, at every K.
    """
    demand(params, W)
    if len(prob.nums) != params.K - params.D + 1 or len(prob.nums[0]) != params.D:
        raise ValueError(f"probability table shape does not match K={params.K}, D={params.D}")
    den, groups, ends = prob.sampling_layout
    _collections(params.D, prob.sub_blocks)  # before any draw: EvennessError, if any
    target = rng.randrange(den)
    g = bisect_right(ends, target)  # the first group ending past target
    i, j, k_count, l_count, num = groups[g]
    offset = (target - (ends[g - 1] if g else 0)) // num
    return RowId(i, offset // l_count + 1, j, offset % l_count + 1)
