"""Tests for the probability table, rate formulas, and capacity bounds."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from mpir.params import Params, binomial, compute_FG, lj_mj
from mpir.prob import (
    ProbTable,
    achievable_rate,
    build_prob_table,
    capacity_divisible,
    capacity_upper_bound,
    expected_download_factor,
    rate_report,
    solve_opt,
    table_mass,
    _bound_geometric_form,
    _bound_ratio_form,
)
from dense import build_M, dense_FG, dense_prob_rows, mat_vec_mul, recursion_FG, recursion_prob_rows


def F(*args):
    return Fraction(*args)


GRID = [(K, D) for D in range(2, 7) for K in range(D, 21)]


class TestSolveOpt:
    def test_tie_breaks_to_smallest_j(self):
        # Both ratios are 1/3 here; the smaller index must win.
        assert solve_opt((F(2), F(3, 2)), (F(6), F(9, 2))) == (1, F(1, 3))

    def test_k5_d2_vectors(self):
        assert solve_opt((F(11, 4), F(2)), (F(57, 4), F(21, 2))) == (1, F(11, 57))

    def test_degenerate(self):
        assert solve_opt((F(1),), (F(1),)) == (1, F(1))

    def test_rejects_nonpositive_g(self):
        with pytest.raises(ValueError):
            solve_opt((F(1),), (F(0),))


class TestBuildProbTable:
    def test_k4_d2_exact_rows(self):
        table = build_prob_table(Params(K=4, D=2))
        assert table.j_star == 1
        assert table.P == (
            (F(1, 4), F(1, 12)),
            (F(1, 6), F(1, 12)),
            (F(1, 6), F(0)),
        )

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_k_equals_d_single_row(self, D):
        table = build_prob_table(Params(K=D, D=D))
        l, _ = lj_mj(D)
        assert len(table.P) == 1
        assert table.P[0][table.j_star - 1] == F(1, l[table.j_star - 1])
        assert sum(1 for p in table.P[0] if p) == 1

    def test_k5_d2_chain(self):
        table = build_prob_table(Params(K=5, D=2))
        assert table.P[3] == (F(4, 57), F(0))
        l, _ = lj_mj(2)
        assert sum(F(l[j]) * table.P[0][j] for j in range(2)) == F(11, 57)

    def test_k4_d2_last_row(self):
        table = build_prob_table(Params(K=4, D=2))
        assert table.P[2] == (F(1, 6), F(0))


class TestTableLaws:
    @pytest.mark.parametrize("K,D", GRID)
    def test_all_laws(self, K, D):
        params = Params(K=K, D=D)
        table = build_prob_table(params)
        l, m = lj_mj(D)
        M = build_M(D)
        top = K - D
        # Mass condition over all rows.
        mass = sum(
            binomial(top, i) * sum(l[j] * table.P[i][j] for j in range(D))
            for i in range(top + 1)
        )
        assert mass == 1 == table_mass(table.P)
        # Scalar recurrences between consecutive rows.
        for i in range(1, top + 1):
            assert sum(l[j] * table.P[i][j] for j in range(D)) == m[0] * table.P[i - 1][0]
            for j in range(1, D):
                assert m[j - 1] * table.P[i][j - 1] == m[j] * table.P[i - 1][j]
        # Matrix form and iterated-power form.
        for i in range(1, top + 1):
            assert tuple(table.P[i - 1]) == mat_vec_mul(M, table.P[i])
        power = tuple(table.P[top])
        for i in range(top - 1, -1, -1):
            power = mat_vec_mul(M, power)
            assert power == tuple(table.P[i])
        # Last-row structure.
        _, G = compute_FG(params)
        assert table.P[top][table.j_star - 1] == 1 / G[table.j_star - 1]
        assert table.P[top][table.j_star - 1] <= 1
        assert all(p == 0 for j, p in enumerate(table.P[top], start=1) if j != table.j_star)
        # Range.
        assert all(0 <= p <= 1 for row in table.P for p in row)

    def test_invalid_table_rejected(self):
        # A hand-built table with mass != 1 must be caught by the sampler's
        # layout check; build_prob_table itself cannot produce one.
        bad = ProbTable(4, ((2, 1),), j_star=1)
        with pytest.raises(ValueError):
            bad.sampling_layout

    @pytest.mark.parametrize("D", range(2, 9))
    def test_den_is_the_least_common_denominator(self, D):
        for K in range(D + 1, D + 14):
            table = build_prob_table(Params(K=K, D=D))
            assert table.den == math.lcm(*(p.denominator for row in table.P for p in row)), K

    @pytest.mark.parametrize("k", [2, 3, 1000])
    @pytest.mark.parametrize("K,D", [(4, 2), (7, 3), (9, 4), (20, 6)])
    def test_scaled_numerators_give_the_reduced_table(self, K, D, k):
        # The table keeps itself in lowest terms, so k den and k nums are the
        # same table, and sampling draws the same targets from it.
        table = build_prob_table(Params(K=K, D=D))
        scaled = ProbTable(k * table.den, tuple(tuple(k * n for n in row) for row in table.nums),
                           table.j_star)
        assert scaled == table
        assert (scaled.den, scaled.nums) == (table.den, table.nums)
        assert scaled.sampling_layout == table.sampling_layout


class TestDenseReference:
    @pytest.mark.parametrize("D", range(2, 9))
    def test_products_on_two_parts_equal_dense_products(self, D):
        # M's first row and sub-diagonal give exactly the dense products.
        for K in range(D, 31):
            params = Params(K=K, D=D)
            assert compute_FG(params) == dense_FG(params)
            table = build_prob_table(params)
            assert (table.j_star, table.P) == dense_prob_rows(params)


class TestIntegerRecursion:
    @pytest.mark.parametrize(
        "D,K_min,K_max", [(D, D + 1, 40) for D in range(2, 13)] + [(20, 200, 200)]
    )
    def test_integers_over_one_denominator_equal_the_fraction_recursion(self, D, K_min, K_max):
        # compute_FG and build_prob_table carry integer numerators over one
        # denominator; the Fraction recursion they replaced is the oracle.
        for K in range(K_min, K_max + 1):
            params = Params(K=K, D=D)
            assert compute_FG(params) == recursion_FG(params), K
            table = build_prob_table(params)
            assert (table.j_star, table.P) == recursion_prob_rows(params), K


class TestRates:
    def test_known_values(self):
        assert achievable_rate(Params(K=5, D=2)) == F(57, 80)
        assert achievable_rate(Params(K=4, D=2)) == F(3, 4)

    def test_k10_d3_exact(self):
        # The reference table prints 1727/2280 for this cell, but that is a
        # float-to-fraction rounding of the true optimum: exact evaluation of
        # the same formula gives 4800/6337, and the two cross-multiply to a
        # difference of exactly 1 (adjacent continued-fraction convergents).
        rate = achievable_rate(Params(K=10, D=3))
        assert rate == F(4800, 6337)
        assert abs(4800 * 2280 - 1727 * 6337) == 1

    @pytest.mark.parametrize("K,D", GRID)
    def test_two_paths_agree(self, K, D):
        params = Params(K=K, D=D)
        table = build_prob_table(params)
        via_table = F(D) / expected_download_factor(params, table)
        assert achievable_rate(params) == via_table

    @pytest.mark.parametrize("K,D", GRID)
    def test_rate_below_bound(self, K, D):
        params = Params(K=K, D=D)
        rate = achievable_rate(params)
        bound = capacity_upper_bound(params)
        assert rate <= bound
        assert (rate == bound) == (K % D == 0)


class TestBounds:
    def test_known_values(self):
        assert capacity_upper_bound(Params(K=5, D=2)) == F(18, 25)
        assert capacity_upper_bound(Params(K=4, D=3)) == F(12, 13)

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_k_equals_d(self, D):
        assert capacity_upper_bound(Params(K=D, D=D)) == 1

    @pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
    def test_boundary_agreement(self, D):
        params = Params(K=2 * D, D=D)
        assert _bound_ratio_form(params) == _bound_geometric_form(params)


class TestCapacityDivisible:
    def test_known_values(self):
        assert capacity_divisible(Params(K=4, D=2)) == F(3, 4)
        assert capacity_divisible(Params(K=9, D=3)) == F(16, 21)

    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_k_equals_d(self, D):
        assert capacity_divisible(Params(K=D, D=D)) == 1

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            capacity_divisible(Params(K=5, D=2))

    @pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_row_zero_mass_identity(self, D, mult):
        # When D | K the weighted first row collapses to (D+1)^(1 - K/D).
        K = D * mult
        params = Params(K=K, D=D)
        table = build_prob_table(params)
        l, _ = lj_mj(D)
        row0 = sum(F(l[j]) * table.P[0][j] for j in range(D))
        assert row0 == F(1, (D + 1) ** (mult - 1))


class TestRateReport:
    def test_divisible(self):
        rep = rate_report(Params(K=6, D=3))
        assert rep.rate == rep.upper_bound == rep.capacity_if_divisible == F(4, 5)
        assert rep.gap == 0

    def test_indivisible(self):
        rep = rate_report(Params(K=3, D=2))
        assert (rep.rate, rep.upper_bound, rep.gap) == (F(5, 6), F(6, 7), F(1, 42))
        assert rep.capacity_if_divisible is None
        assert rep.gap == rep.upper_bound - rep.rate

    @pytest.mark.parametrize("K,D", [(4, 2), (7, 3), (11, 4)])
    def test_download_factor(self, K, D):
        rep = rate_report(Params(K=K, D=D))
        assert rep.expected_download_factor == F(D) / rep.rate
        assert rep.gap >= 0
