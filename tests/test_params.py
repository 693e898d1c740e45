"""Tests for parameter validation and the exact rational linear algebra."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from mpir.params import (
    Params,
    binomial,
    compute_FG,
    is_prime,
    lj_mj,
    smallest_prime_above,
)
from dense import build_L, build_M, sub_diagonal, vec_mat_mul


def F(*args):
    return Fraction(*args)


class TestBinomial:
    def test_small(self):
        assert binomial(4, 2) == 6

    def test_boundary(self):
        assert binomial(2, 0) == 1

    def test_out_of_range(self):
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_matches_math_comb(self):
        for n in range(12):
            for r in range(n + 1):
                assert binomial(n, r) == math.comb(n, r)


class TestLjMj:
    def test_d2(self):
        assert lj_mj(2) == ((1, 1), (1, 2))

    def test_d1(self):
        assert lj_mj(1) == ((1,), (1,))

    def test_d4_j2(self):
        l, m = lj_mj(4)
        assert l[1] == 3
        assert m[1] == 2

    @pytest.mark.parametrize("D", range(1, 9))
    def test_defining_identity(self, D):
        # l_j * D == m_j * C(D, j) restates the definition without division.
        l, m = lj_mj(D)
        for j in range(1, D + 1):
            assert l[j - 1] * D == m[j - 1] * math.comb(D, j)
            assert l[j - 1] >= 1 and m[j - 1] >= 1


class TestBuildM:
    def test_d2(self):
        assert build_M(2) == ((F(1), F(1)), (F(1, 2), F(0)))

    def test_d1(self):
        assert build_M(1) == ((F(1),),)

    def test_d3(self):
        # l = (1, 1, 1) and m = (1, 1, 3), so the sub-diagonal is (1, 1/3).
        assert build_M(3) == (
            (F(1), F(1), F(1)),
            (F(1), F(0), F(0)),
            (F(0), F(1, 3), F(0)),
        )

    def test_sub_diagonal(self):
        assert sub_diagonal(1) == ()
        assert sub_diagonal(2) == (F(1, 2),)
        assert sub_diagonal(3) == (F(1), F(1, 3))

    @pytest.mark.parametrize("D", range(1, 8))
    def test_structure(self, D):
        M = build_M(D)
        l, m = lj_mj(D)
        assert M[0] == tuple(F(x) for x in l)
        for r in range(1, D):
            for c in range(D):
                expected = F(m[r - 1], m[r]) if c == r - 1 else F(0)
                assert M[r][c] == expected


class TestComputeFG:
    def test_k4_d2(self):
        assert compute_FG(Params(K=4, D=2)) == ((F(2), F(3, 2)), (F(6), F(9, 2)))

    def test_k5_d2(self):
        F_vec, G_vec = compute_FG(Params(K=5, D=2))
        assert F_vec == (F(11, 4), F(2))
        assert G_vec == (F(57, 4), F(21, 2))

    @pytest.mark.parametrize("D", range(2, 7))
    def test_k_equals_d(self, D):
        F_vec, G_vec = compute_FG(Params(K=D, D=D))
        assert F_vec == G_vec == build_L(D)

    @pytest.mark.parametrize("K,D", [(6, 2), (9, 3), (10, 4), (12, 5)])
    def test_positive(self, K, D):
        F_vec, G_vec = compute_FG(Params(K=K, D=D))
        assert all(f > 0 for f in F_vec)
        assert all(g > 0 for g in G_vec)

    @pytest.mark.parametrize("K,D", [(5, 2), (8, 3), (9, 4)])
    def test_binomial_expansion_consistency(self, K, D):
        # Expanding (I+M)^(K-D) term by term must agree with iterating I+M.
        L = build_L(D)
        M = build_M(D)
        powers = [L]
        for _ in range(K - D):
            powers.append(vec_mat_mul(powers[-1], M))
        expanded = tuple(
            sum((math.comb(K - D, i) * powers[i][c] for i in range(K - D + 1)), F(0))
            for c in range(D)
        )
        _, G_vec = compute_FG(Params(K=K, D=D))
        assert expanded == G_vec


class TestRationalExactness:
    def test_add_then_subtract_roundtrips(self):
        rng = random.Random(2024)
        for _ in range(300):
            a = F(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12))
            b = F(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12))
            assert (a + b) - b == a
            assert a.denominator > 0
            assert math.gcd(a.numerator, a.denominator) == 1


class TestParams:
    def test_defaults(self):
        p = Params(K=4, D=2)
        assert (p.q, p.m, p.N) == (3, 1, 3)
        assert Params(K=8, D=4).q == 5

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            Params(K=1, D=2)

    @pytest.mark.parametrize("K,D", [(4, 1), (3, 4), (5, 0)])
    def test_rejects_bad_d(self, K, D):
        with pytest.raises(ValueError):
            Params(K=K, D=D)

    def test_rejects_nonprime_q(self):
        with pytest.raises(ValueError):
            Params(K=4, D=2, q=4)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            Params(K=4, D=3, q=3)

    def test_rejects_field_wider_than_u64(self):
        # The store file header holds q as a u64; 2**64 + 13 is prime.
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            Params(K=3, D=2, q=2**64 + 13)
        assert Params(K=3, D=2, q=2**64 - 59).q == 2**64 - 59

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            Params(K=4, D=2, m=0)

    def test_d_equals_k_accepted(self):
        assert Params(K=3, D=3).N == 4


class TestPrimes:
    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(-3, 50):
            assert is_prime(n) == (n in primes)

    def test_is_prime_matches_a_sieve(self):
        n = 10**5
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
        assert [x for x in range(n) if is_prime(x)] == [x for x in range(n) if sieve[x]]

    @pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 2152302898747,
                                   3474749660383, 341550071728321, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # Each is a strong pseudoprime to every prime base below some bound,
        # so a base list that stopped there would call it prime.
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1, 2**64 - 59])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_smallest_above(self):
        assert smallest_prime_above(2) == 3
        assert smallest_prime_above(3) == 5
        assert smallest_prime_above(4) == 5
        assert smallest_prime_above(8) == 11
