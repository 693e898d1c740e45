"""Message-space oracles for the plan's shifted collections.

mpir.plan keeps one form of a demand part, a position bitmask whose cyclic
shifts are bit rotations.  These are the set-based forms it replaced, kept
as test oracles: the D cyclic shifts of a subset T within a demand set W as
frozensets of message indices, the chosen collection mapped onto W, and the
multiplicity of every j-subset of W across the shifted columns.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable

from mpir import plan
from mpir.params import Params, lj_mj


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


def choose_T_collection(params: Params, W: Iterable[int], j: int) -> tuple[frozenset[int], ...]:
    """The l_j distinct j-subsets of W (each containing min W) used by sub-block j.

    Deterministic: depends only on (D, j) in position space, then mapped onto
    the sorted elements of W.  Raises EvennessError if no even collection of
    distinct subsets exists at all.
    """
    w = plan.demand(params, W)
    return tuple(frozenset(w[p] for p in cand) for cand in plan._chosen_positions(params.D, j))


def verify_evenness(
    params: Params, W: Iterable[int], j: int, collection: Iterable[Iterable[int]]
) -> tuple[dict[frozenset[int], int], bool]:
    """Multiplicity of every j-subset of W across all shifted columns.

    Returns the full multiplicity map (zero entries included) and whether
    every j-subset attains exactly m_j.
    """
    w = plan.demand(params, W)
    _, m = lj_mj(params.D)
    counts = {frozenset(s): 0 for s in combinations(w, j)}
    for T in collection:
        for s in shifts(w, T):
            if s not in counts:
                raise ValueError(f"{set(T)} is not a {j}-subset of the demand")
            counts[s] += 1
    return counts, all(c == m[j - 1] for c in counts.values())
