"""The tests' references for products with M: M as a dense Fraction matrix
(build_L, sub_diagonal, build_M), general exact matrix-vector products, with
compute_FG and the probability rows built on them, and the Fraction
recursion on M's first row and sub-diagonal that compute_FG and
build_prob_table carry out in integers (params.integer_M)."""
from __future__ import annotations

from fractions import Fraction

from mpir.params import Params, RationalVector, lj_mj
from mpir.prob import solve_opt

RationalMatrix = tuple[tuple[Fraction, ...], ...]


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


def vec_mat_mul(vec: RationalVector, mat: RationalMatrix) -> RationalVector:
    """Row vector times matrix, exactly."""
    n = len(mat)
    assert len(vec) == n
    return tuple(sum((vec[r] * mat[r][c] for r in range(n)), Fraction(0)) for c in range(n))


def mat_vec_mul(mat: RationalMatrix, vec: RationalVector) -> RationalVector:
    """Matrix times column vector, exactly."""
    n = len(mat)
    assert len(vec) == n
    return tuple(sum((mat[r][c] * vec[c] for c in range(n)), Fraction(0)) for r in range(n))


def dense_FG(params: Params) -> tuple[RationalVector, RationalVector]:
    """F^T = L^T M^(K-D) and G^T = L^T (I+M)^(K-D), one dense product per step."""
    D = params.D
    M = build_M(D)
    IM = tuple(tuple(M[r][c] + (r == c) for c in range(D)) for r in range(D))
    F, G = build_L(D), build_L(D)
    for _ in range(params.K - D):
        F, G = vec_mat_mul(F, M), vec_mat_mul(G, IM)
    return F, G


def dense_prob_rows(params: Params) -> tuple[int, tuple[RationalVector, ...]]:
    """(j*, rows): the last row puts 1/g_{j*} on column j*, and each earlier
    row is the dense product of M with its successor."""
    F, G = dense_FG(params)
    j_star, _ = solve_opt(F, G)
    rows = [tuple(1 / G[j - 1] if j == j_star else Fraction(0) for j in range(1, params.D + 1))]
    M = build_M(params.D)
    for _ in range(params.K - params.D):
        rows.append(mat_vec_mul(M, rows[-1]))
    return j_star, tuple(reversed(rows))


def recursion_FG(params: Params) -> tuple[RationalVector, RationalVector]:
    """F and G by K-D row-vector products on M's first row L and
    sub-diagonal S in Fractions: (v^T M)_c = v_1 l_c + v_{c+1} s_c."""
    L, S = build_L(params.D), sub_diagonal(params.D) + (0,)
    F, G = L, L
    for _ in range(params.K - params.D):
        F = tuple(F[0] * l + f * s for l, f, s in zip(L, F[1:] + (0,), S))
        G = tuple(g + G[0] * l + h * s for l, g, h, s in zip(L, G, G[1:] + (0,), S))
    return F, G


def recursion_prob_rows(params: Params) -> tuple[int, tuple[RationalVector, ...]]:
    """(j*, rows) from recursion_FG: the last row puts 1/g_{j*} on column j*,
    and each earlier row is M times its successor in Fractions, L . row on
    top, then the row shifted down by S."""
    F, G = recursion_FG(params)
    j_star, _ = solve_opt(F, G)
    L, S = build_L(params.D), sub_diagonal(params.D)
    rows = [tuple(1 / G[j - 1] if j == j_star else Fraction(0) for j in range(1, params.D + 1))]
    for _ in range(params.K - params.D):
        row = rows[-1]
        rows.append((sum(l * p for l, p in zip(L, row)),) + tuple(s * p for s, p in zip(S, row)))
    return j_star, tuple(reversed(rows))
