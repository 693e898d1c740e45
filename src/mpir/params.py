"""Protocol parameters and the exact products with M.

M is kept in integers (integer_M) and the weight vectors are computed over
one denominator, returned as :class:`fractions.Fraction`; there is no
floating point anywhere in the analysis path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

RationalVector = tuple[Fraction, ...]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n below
    318665857834031151167461 (about 3.2e23), the least strong pseudoprime
    to every prime base up to 37."""
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
        # Checked before primality: is_prime is only proven below 3.2e23.
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
    l = tuple(math.lcm(math.comb(D, j), D) // D for j in range(1, D + 1))
    return l, tuple(D * lj // math.comb(D, j) for j, lj in enumerate(l, start=1))


def integer_M(D: int) -> tuple[list[int], int, list[int]]:
    """(l, mu, sigma): mu M in integers, mu = lcm(m), sigma_c = m_c mu / m_{c+1}."""
    l, m = lj_mj(D)
    mu = math.lcm(*m)
    return list(l), mu, [a * mu // b for a, b in zip(m, m[1:])] + [0]  # S padded to D entries


def compute_FG(params: Params) -> tuple[RationalVector, RationalVector]:
    """Weight vectors F^T = L^T M^(K-D) and G^T = L^T (I+M)^(K-D).

    Computed as K-D successive row-vector products on M's first row L and
    sub-diagonal S, (v^T M)_c = v_1 l_c + v_{c+1} s_c, in integers over one
    denominator that each step multiplies by mu (integer_M), with one
    Fraction per entry at the end.  Every entry of G is strictly positive.
    """
    l, mu, sigma = integer_M(params.D)
    F, G = l, l
    for _ in range(params.K - params.D):
        F = [F[0] * lc * mu + f * s for lc, f, s in zip(l, F[1:] + [0], sigma)]
        G = [(g + G[0] * lc) * mu + h * s for lc, g, h, s in zip(l, G, G[1:] + [0], sigma)]
    den = mu ** (params.K - params.D)
    return tuple(Fraction(f, den) for f in F), tuple(Fraction(g, den) for g in G)
