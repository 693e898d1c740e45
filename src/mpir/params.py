"""Protocol parameters and exact rational linear algebra.

Everything here is computed in arbitrary-precision rationals
(:class:`fractions.Fraction`); there is no floating point anywhere in the
analysis path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

RationalVector = tuple[Fraction, ...]
RationalMatrix = tuple[tuple[Fraction, ...], ...]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class Params:
    """One protocol instance: K messages, demand size D, N = D+1 servers.

    q is the prime field order (default: smallest prime above D) and m the
    message length in field elements.
    """

    K: int
    D: int
    q: int | None = None
    m: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.K, int) or self.K <= 1:
            raise ValueError(f"K must be an integer > 1, got {self.K!r}")
        if not isinstance(self.D, int) or not 1 < self.D <= self.K:
            raise ValueError(f"D must satisfy 1 < D <= K, got D={self.D!r}, K={self.K}")
        if self.q is None:
            object.__setattr__(self, "q", smallest_prime_above(self.D))
        # Checked before primality: is_prime is only proven below 3.3e24.
        if isinstance(self.q, int) and self.q >= 2**64:
            raise ValueError(
                f"q must be below 2**64, since the store file header holds q as a u64; got {self.q}"
            )
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q!r}")
        if self.q <= self.D:
            raise ValueError(f"q must exceed D, got q={self.q}, D={self.D}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")

    @property
    def N(self) -> int:
        """Server count, always D + 1."""
        return self.D + 1


def binomial(n: int, r: int) -> int:
    """C(n, r), with 0 for r < 0 or r > n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def lj_mj(D: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row counts l_j and shift multiplicities m_j for j = 1..D.

    l_j is the number of rows a size-j sub-block carries and m_j the
    multiplicity with which each j-subset of the demand must occur among the
    shifted columns of such a sub-block.  Both are exact integers:
    l_j = lcm(C(D,j), D) / D and m_j = D * l_j / C(D,j), so that
    l_j * D == m_j * C(D,j) always.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    l = []
    m = []
    for j in range(1, D + 1):
        c = math.comb(D, j)
        lj = math.lcm(c, D) // D
        l.append(lj)
        m.append(D * lj // c)
    return tuple(l), tuple(m)


def build_L(D: int) -> RationalVector:
    """The row-count vector (l_1, ..., l_D) as rationals."""
    l, _ = lj_mj(D)
    return tuple(Fraction(x) for x in l)


def sub_diagonal(D: int) -> RationalVector:
    """M's sub-diagonal (m_1/m_2, ..., m_{D-1}/m_D)."""
    _, m = lj_mj(D)
    return tuple(Fraction(m[h - 1], m[h]) for h in range(1, D))


def build_M(D: int) -> RationalMatrix:
    """D x D transition matrix linking consecutive probability rows.

    First row is L = (l_1, ..., l_D); the sub-diagonal entry in row h+1 is
    m_h / m_{h+1}; everything else is zero.
    """
    S = sub_diagonal(D)
    return (build_L(D),) + tuple(
        tuple(S[h - 1] if c == h - 1 else Fraction(0) for c in range(D)) for h in range(1, D)
    )


def compute_FG(params: Params) -> tuple[RationalVector, RationalVector]:
    """Weight vectors F^T = L^T M^(K-D) and G^T = L^T (I+M)^(K-D).

    Computed as K-D successive row-vector products on M's two nonzero parts,
    its first row L and its sub-diagonal S: (v^T M)_c = v_1 l_c + v_{c+1} s_c.
    The matrix power is never materialized, which keeps the integers small
    even for large K.  Every entry of G is strictly positive.
    """
    L, S = build_L(params.D), sub_diagonal(params.D) + (0,)
    F, G = L, L
    for _ in range(params.K - params.D):
        F = tuple(F[0] * l + f * s for l, f, s in zip(L, F[1:] + (0,), S))
        G = tuple(g + G[0] * l + h * s for l, g, h, s in zip(L, G, G[1:] + (0,), S))
    return F, G
