"""The tests' field oracles: a vector's support, and whether a full-rank
draw's inverse really inverts its demand submatrix."""
from __future__ import annotations

from typing import Sequence


def support(vec: Sequence[int]) -> frozenset[int]:
    """1-based indices of the nonzero entries."""
    return frozenset(t + 1 for t, v in enumerate(vec) if v != 0)


def inverts(q: int, V: Sequence[Sequence[int]], inverse: Sequence[Sequence[int]]) -> bool:
    """Whether inverse x A == I over GF(q), for A the D x D submatrix of the
    D vectors V on the columns their supports cover, in ascending order."""
    covered = sorted(set().union(*map(support, V)))
    A = [[v[x - 1] for x in covered] for v in V]
    n = len(A)
    return len(covered) == n == len(inverse) and all(
        sum(inverse[r][k] * A[k][c] for k in range(n)) % q == (r == c)
        for r in range(n)
        for c in range(n)
    )
