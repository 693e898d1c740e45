"""Row-selection probabilities, download rate, and capacity formulas.

The sampling probabilities P[i][j] are pinned down by two facts: privacy
forces every row vector P_i to equal M applied to P_{i+1}, and the total
mass condition sum_i k_i * sum_j l_j * P[i][j] = 1 must hold.  Subject to
those, the free final row P_{K-D} is chosen to maximize the expected number
of silent servers.  That optimization is a one-constraint box LP whose
optimum sits on a single coordinate, so it is solved in closed form here
rather than with a numeric solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import Sequence

from .params import Params, RationalVector, binomial, compute_FG, integer_M, lj_mj


@dataclass(frozen=True)
class ProbTable:
    """Row-selection probabilities P[i][j-1] = nums[i][j-1] / den, i in 0..K-D,
    j in 1..D, kept in lowest terms: construction divides den and the nums by
    their gcd, so den is the lcm of the entries' reduced denominators.

    j_star is the column carrying the single nonzero entry of the last row.
    """

    den: int
    nums: tuple[tuple[int, ...], ...]
    j_star: int

    def __post_init__(self) -> None:
        g = math.gcd(self.den, *chain.from_iterable(self.nums))
        object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "nums", tuple(tuple(n // g for n in row) for row in self.nums))

    @cached_property
    def P(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, for printing."""
        return tuple(tuple(Fraction(n, self.den) for n in row) for row in self.nums)

    @cached_property
    def sampling_layout(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(den, groups, ends) for exact row sampling, built on first use.

        One group (i, j, C(K-D, i), l_j, num) per entry, in table order, with
        num = nums[i][j-1], and ends[g] the row weight of groups 0..g; the
        order is fixed so that a seed reproduces its draws.  Raises ValueError
        unless the row weights sum to den.
        """
        l, _ = lj_mj(len(self.nums[0]))
        groups = tuple(
            (i, j, binomial(len(self.nums) - 1, i), l[j - 1], num)
            for i, row in enumerate(self.nums)
            for j, num in enumerate(row, start=1)
        )
        ends = tuple(accumulate(k_count * l_count * num for _, _, k_count, l_count, num in groups))
        if ends[-1] != self.den:
            raise ValueError("probability table mass is not exactly 1")
        return self.den, groups, ends

    @cached_property
    def sub_blocks(self) -> tuple[int, ...]:
        """The sub-blocks j, ascending, to which some row gives mass."""
        return tuple(j for j, column in enumerate(zip(*self.nums), start=1) if any(column))


def table_mass(P: Sequence[Sequence[Fraction | int]]) -> Fraction | int:
    """Total row mass sum_i C(K-D, i) * sum_j l_j * P[i][j] of a table with
    K-D+1 rows of D entries, Fractions or integers: exactly 1 for a valid
    table, exactly den for a valid table's nums."""
    D = len(P[0])
    l, _ = lj_mj(D)
    return sum(
        binomial(len(P) - 1, i) * sum(l[j] * row[j] for j in range(D)) for i, row in enumerate(P)
    )


@dataclass(frozen=True)
class RateReport:
    """Achievable rate versus capacity bounds, all exact."""

    rate: Fraction
    upper_bound: Fraction
    capacity_if_divisible: Fraction | None
    gap: Fraction
    expected_download_factor: Fraction


def solve_opt(F: RationalVector, G: RationalVector) -> tuple[int, Fraction]:
    """Maximize f_j / g_j; returns (1-based argmax, max value).

    Ties break toward the smallest j so the construction is reproducible.
    """
    if len(F) != len(G) or not F:
        raise ValueError("F and G must be nonempty vectors of equal length")
    if any(g <= 0 for g in G):
        raise ValueError("all entries of G must be positive")
    j_star, best = 1, F[0] / G[0]
    for j in range(2, len(F) + 1):
        v = F[j - 1] / G[j - 1]
        if v > best:
            j_star, best = j, v
    return j_star, best


def build_prob_table(params: Params) -> ProbTable:
    """Construct the optimal probability table for one protocol instance.

    The last row puts mass 1/g_{j*} on column j*, and each earlier row is M
    times its successor, on M's first row and sub-diagonal in integers
    (integer_M); row i, over 1/g_{j*}'s denominator times mu^(K-D-i), is put
    over row 0's by mu^i.  An entry outside [0, 1], or a total mass other
    than 1 (the sampling layout's check), means the construction itself is
    broken: it raises, not clamps.
    """
    K, D = params.K, params.D
    F, G = compute_FG(params)
    j_star, _ = solve_opt(F, G)
    top = Fraction(1) / G[j_star - 1]
    if top > 1:
        raise ValueError(
            f"1/g_{j_star} = {top} exceeds 1; the box constraint binds, which the "
            "closed-form optimum does not support"
        )
    l, mu, sigma = integer_M(D)
    rows = [[top.numerator if j == j_star else 0 for j in range(1, D + 1)]]
    for _ in range(K - D):  # mu M times the row: mu L . row on top, then the row shifted by sigma
        row = rows[-1]
        first = mu * sum(a * p for a, p in zip(l, row))
        rows.append([first] + [s * p for s, p in zip(sigma, row[:-1])])
    den = top.denominator * mu ** (K - D)
    nums = [[p * mu**i for p in row] for i, row in enumerate(reversed(rows))]
    for i, row in enumerate(nums):
        for j, p in enumerate(row, start=1):
            if not 0 <= p <= den:
                raise ValueError(f"P[{i}][{j}] = {Fraction(p, den)} outside [0, 1]")
    table = ProbTable(den, nums, j_star)
    table.sampling_layout  # its exact integer mass check raises here, not at the first draw
    return table


def achievable_rate(params: Params) -> Fraction:
    """Download rate D / (N - max_j f_j/g_j) of the randomized construction."""
    _, value = solve_opt(*compute_FG(params))
    return Fraction(params.D) / (params.N - value)


def expected_download_factor(params: Params, table: ProbTable) -> Fraction:
    """Expected number of answering servers, N - sum_j l_j P[0][j].

    Multiplying by the per-answer size B gives the expected download; dividing
    D by this factor reproduces the rate through an independent path.
    """
    l, _ = lj_mj(params.D)
    return params.N - Fraction(sum(l[j] * table.nums[0][j] for j in range(params.D)), table.den)


def _bound_ratio_form(params: Params) -> Fraction:
    # Tight regime: D >= K/2.
    K, D, N = params.K, params.D, params.N
    return 1 / (1 + Fraction(K - D, D * N))


def _bound_geometric_form(params: Params) -> Fraction:
    # Tight regime: D <= K/2.
    K, D, N = params.K, params.D, params.N
    whole = K // D
    frac = Fraction(K, D) - whole
    inv_pow = Fraction(1, N**whole)
    return 1 / ((1 - inv_pow) / (1 - Fraction(1, N)) + frac * inv_pow)


def capacity_upper_bound(params: Params) -> Fraction:
    """Capacity upper bound, dispatching on the demand density.

    Uses the ratio form when D >= K/2 and the geometric-sum form when
    D <= K/2; at D = K/2 both apply and must agree.
    """
    if 2 * params.D == params.K:
        a, b = _bound_ratio_form(params), _bound_geometric_form(params)
        assert a == b, f"boundary formulas disagree: {a} != {b}"
        return a
    if 2 * params.D > params.K:
        return _bound_ratio_form(params)
    return _bound_geometric_form(params)


def capacity_divisible(params: Params) -> Fraction:
    """Exact capacity (1 - 1/N) / (1 - 1/N^(K/D)), defined only when D | K."""
    K, D, N = params.K, params.D, params.N
    if K % D != 0:
        raise ValueError(f"capacity formula requires D | K, got K={K}, D={D}")
    levels = K // D
    cap = (1 - Fraction(1, N)) / (1 - Fraction(1, N**levels))
    alt = Fraction(D) / (N - Fraction(1, (D + 1) ** (levels - 1)))
    assert cap == alt, f"equivalent capacity forms disagree: {cap} != {alt}"
    return cap


def rate_report(params: Params) -> RateReport:
    """Rate, bounds, and gap for one instance, cross-checked two ways.

    The rate computed from the weight-vector optimum must equal the rate
    implied by row 0 of the probability table; any difference is a bug.
    """
    rate = achievable_rate(params)
    table = build_prob_table(params)
    factor = expected_download_factor(params, table)
    via_table = Fraction(params.D) / factor
    assert rate == via_table, f"rate paths disagree: {rate} != {via_table}"
    upper = capacity_upper_bound(params)
    cap = capacity_divisible(params) if params.K % params.D == 0 else None
    return RateReport(rate=rate, upper_bound=upper, capacity_if_divisible=cap,
                      gap=upper - rate, expected_download_factor=factor)
