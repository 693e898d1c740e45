"""The tests' field oracles: a vector's support, elementwise addition,
Gauss-Jordan inversion on [A | I], and whether a full-rank draw's inverse
really inverts its demand submatrix."""
from __future__ import annotations

from typing import Sequence


def support(vec: Sequence[int]) -> frozenset[int]:
    """1-based indices of the nonzero entries."""
    return frozenset(t + 1 for t, v in enumerate(vec) if v != 0)


def vec_add(a: Sequence[int], b: Sequence[int], q: int) -> tuple[int, ...]:
    """Elementwise a + b mod q."""
    return tuple((x + y) % q for x, y in zip(a, b, strict=True))


def augmented_inverse(
    q: int, mat: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...] | None:
    """The inverse of mat over GF(q) by Gauss-Jordan on [mat | I], or None
    when it has none: the same pivot order as gf.inverse, which eliminates
    in place instead, so the two reject the same matrices."""
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
