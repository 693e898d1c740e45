"""The query-plan table: row indexing, subset machinery, and row sampling.

A plan table for demand set W has one row per tuple (i, k, j, l):

* sub-table i in 0..K-D fixes how many non-demand messages are mixed in;
* block k picks which i-subset of the complement of W that is;
* sub-block j in 1..D fixes how many demand messages each answering server
  adds on top;
* row l in 1..l_j picks one j-subset T of W from a fixed collection, and the
  row's N supports are R, R + shift(T, 1), ..., R + shift(T, D).

Rows are never materialized as a whole table; everything is reconstructed on
demand from the tuple, the shifted parts as message bitmasks (bit x-1 for
message x) by sub_block_masks through W's part_table, which row_supports and
the privacy audit (one table per demand set) both read.  The collection of
j-subsets backing each sub-block must satisfy an evenness property (every
j-subset of W appears exactly m_j times across the l_j x D shifted columns);
that property is load-bearing for privacy, so it is searched for and
verified here instead of assumed.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .params import Params, lj_mj
from .prob import ProbTable


class EvennessError(ValueError):
    """No collection of distinct j-subsets can satisfy the evenness property."""


class RowId(NamedTuple):
    """Row address (sub-table, block, sub-block, row); k, j, l are 1-based."""

    i: int
    k: int
    j: int
    l: int


SupportRow = tuple[frozenset[int], ...]


def as_demand(params: Params, W: Iterable[int]) -> tuple[int, ...]:
    """Normalize W to a sorted tuple of D distinct indices in [1, K]."""
    w = tuple(sorted(set(W)))
    if len(w) != params.D:
        raise ValueError(f"demand must contain exactly D={params.D} distinct indices")
    if w[0] < 1 or w[-1] > params.K:
        raise ValueError(f"demand indices must lie in [1, {params.K}]")
    return w


def complement(params: Params, W: Iterable[int]) -> tuple[int, ...]:
    """Sorted message indices outside the demand."""
    return tuple(sorted(set(range(1, params.K + 1)).difference(W)))


def r_subset(params: Params, W: Iterable[int], i: int, k: int) -> tuple[int, ...]:
    """The k-th i-subset of [K] \\ W in lexicographic order (k is 1-based)."""
    if not 0 <= i <= params.K - params.D:
        raise ValueError(f"i must be in [0, {params.K - params.D}], got {i}")
    pool = complement(params, as_demand(params, W))
    if not 1 <= k <= math.comb(len(pool), i):
        raise ValueError(f"k must be in [1, {math.comb(len(pool), i)}], got {k}")
    # Combinatorial unranking: at each slot, skip over the blocks of
    # combinations that start with earlier pool elements.
    idx = k - 1
    out: list[int] = []
    pos = 0
    for slots_left in range(i - 1, -1, -1):
        while idx >= (block := math.comb(len(pool) - pos - 1, slots_left)):
            idx -= block
            pos += 1
        out.append(pool[pos])
        pos += 1
    return tuple(out)


def shifts(W: Iterable[int], T: Iterable[int]) -> tuple[frozenset[int], ...]:
    """All D cyclic shifts of T within sorted W: entry h-1 advances each
    element of T by h-1 positions."""
    w = sorted(W)
    successor = dict(zip(w, w[1:] + w[:1]))
    t = frozenset(T)
    if not successor.keys() >= t:
        raise ValueError(f"{min(t.difference(successor))} is not a demand element")
    out = [t]
    for _ in w[1:]:
        t = frozenset(map(successor.__getitem__, t))
        out.append(t)
    return tuple(out)


def _position_candidates(D: int, j: int) -> tuple[tuple[int, ...], ...]:
    # All j-subsets of positions 0..D-1 containing position 0, in lex order.
    return tuple(c for c in combinations(range(D), j) if c[0] == 0)


def _positions_even(collection: Iterable[tuple[int, ...]], D: int, j: int, mj: int) -> bool:
    counts = Counter(s for cand in collection for s in shifts(range(D), cand))
    return all(counts[frozenset(s)] == mj for s in combinations(range(D), j))


@lru_cache(maxsize=None)
def lex_first_positions_even(D: int, j: int) -> bool:
    """Whether the first l_j candidate subsets already satisfy evenness.

    This is the naive 'take any l_j subsets' reading; it fails for some
    (D, j), e.g. D=7 with j=3, which is why the chosen collection below is
    built per cyclic-shift orbit instead.
    """
    l, m = lj_mj(D)
    return _positions_even(_position_candidates(D, j)[: l[j - 1]], D, j, m[j - 1])


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
    quotas: dict[frozenset[frozenset[int]], int] = {}
    chosen: list[tuple[int, ...]] = []
    for cand in _position_candidates(D, j):
        orbit = frozenset(shifts(range(D), cand))
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
    if len(chosen) != lj or not _positions_even(chosen, D, j, mj):
        raise EvennessError(f"even collection search failed for D={D}, j={j}")
    return tuple(chosen)


def choose_T_collection(params: Params, W: Iterable[int], j: int) -> tuple[frozenset[int], ...]:
    """The l_j distinct j-subsets of W (each containing min W) used by sub-block j.

    Deterministic: depends only on (D, j) in position space, then mapped onto
    the sorted elements of W.  Raises EvennessError if no even collection of
    distinct subsets exists at all.
    """
    w = as_demand(params, W)
    return tuple(frozenset(w[p] for p in cand) for cand in _chosen_positions(params.D, j))


@lru_cache(maxsize=None)
def _position_masks(D: int, j: int) -> tuple[int, ...]:
    """Row l of sub-block j's D cyclic shifts of its chosen positions, as
    position bitmasks (bit p for position p), at [(l-1)D, lD)."""
    shifted = (s for cand in _chosen_positions(D, j) for s in shifts(range(D), cand))
    return tuple(sum(1 << p for p in s) for s in shifted)


def part_table(params: Params, W: Iterable[int]) -> list[int]:
    """W's 2^D subsets as message bitmasks: entry s is {w[p] : bit p of s},
    w = sorted W, so entry -1 is W's own mask."""
    table = [0]
    for x in as_demand(params, W):
        bit = 1 << (x - 1)
        table += [t | bit for t in table]
    return table


def sub_block_masks(params: Params, table: list[int], j: int) -> tuple[tuple[int, ...], ...]:
    """Per row l of sub-block j, the D demand parts shift(T_l, h) that its
    columns 1+h add: the position table mapped through W's part_table."""
    parts = map(table.__getitem__, _position_masks(params.D, j))
    return tuple(zip(*[parts] * params.D))  # D consecutive parts per row


def verify_evenness(
    params: Params, W: Iterable[int], j: int, collection: Iterable[Iterable[int]]
) -> tuple[dict[frozenset[int], int], bool]:
    """Multiplicity of every j-subset of W across all shifted columns.

    Returns the full multiplicity map (zero entries included) and whether
    every j-subset attains exactly m_j.
    """
    w = as_demand(params, W)
    _, m = lj_mj(params.D)
    counts = {frozenset(s): 0 for s in combinations(w, j)}
    for T in collection:
        for s in shifts(w, T):
            if s not in counts:
                raise ValueError(f"{set(T)} is not a {j}-subset of the demand")
            counts[s] += 1
    return counts, all(c == m[j - 1] for c in counts.values())


def row_supports(params: Params, W: Iterable[int], row: RowId) -> SupportRow:
    """The N supports (S_1, ..., S_N) of one table row.

    S_1 is the complement subset alone; server column 1+h adds the row's
    demand part h from sub_block_masks on top.
    """
    w = as_demand(params, W)
    base = frozenset(r_subset(params, w, row.i, row.k))
    masks = sub_block_masks(params, part_table(params, w), row.j)
    if not 1 <= row.l <= len(masks):
        raise ValueError(f"row index {row.l} out of range for sub-block {row.j}")
    supports = [base]
    for part in masks[row.l - 1]:
        members = set(base)
        while part:  # bit x-1 is message x
            members.add((low := part & -part).bit_length())
            part ^= low
        supports.append(frozenset(members))
    return tuple(supports)


def total_rows(params: Params) -> int:
    """Number of rows in the full table: 2^(K-D) * sum_j l_j."""
    l, _ = lj_mj(params.D)
    return 2 ** (params.K - params.D) * sum(l)


def sample_row(params: Params, prob: ProbTable, W: Iterable[int], rng: random.Random) -> RowId:
    """Draw one row id with probability P[i][j], uniform across k and l.

    The draw is one uniform integer target in [0, den), den the table's
    common denominator, located among exact integer thresholds: every row
    gets exactly its probability, at every K.
    """
    as_demand(params, W)
    if len(prob.P) != params.K - params.D + 1 or len(prob.P[0]) != params.D:
        raise ValueError(f"probability table shape does not match K={params.K}, D={params.D}")
    den, groups, ends = prob.sampling_layout
    for j in prob.sub_blocks:  # before any draw, EvennessError for a sub-block no row can use
        _chosen_positions(params.D, j)
    target = rng.randrange(den)
    g = bisect_right(ends, target)  # the first group ending past target
    i, j, k_count, l_count, num = groups[g]
    offset = (target - (ends[g - 1] if g else 0)) // num
    return RowId(i, offset // l_count + 1, j, offset % l_count + 1)
