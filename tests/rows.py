"""The tests' row oracles: every row address of a plan table in table order,
the row a sampling target addresses, found by a linear scan, a row's N
supports as sets, built from the set-based oracles in evenness.py, and
plan's position layout of a row read as message indices."""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from mpir import plan
from mpir.params import Params, binomial, lj_mj
from mpir.plan import RowId
import evenness


def iter_row_ids(params: Params) -> Iterator[RowId]:
    """All row addresses (i, k, j, l) in table order."""
    l, _ = lj_mj(params.D)
    for i in range(params.K - params.D + 1):
        for k in range(1, binomial(params.K - params.D, i) + 1):
            for j in range(1, params.D + 1):
                for row_l in range(1, l[j - 1] + 1):
                    yield RowId(i, k, j, row_l)


def scan_row(groups: tuple[tuple[int, int, int, int, int], ...], target: int) -> RowId:
    """The row that a sampling target in [0, den) addresses: the layout's
    groups (i, j, C(K-D, i), l_j, num) are scanned in order, each covering
    the next C(K-D, i) * l_j * num targets, num per row, k-major."""
    acc = 0
    for i, j, k_count, l_count, num in groups:
        width = k_count * l_count * num
        if target < acc + width:
            offset = (target - acc) // num
            return RowId(i, offset // l_count + 1, j, offset % l_count + 1)
        acc += width
    raise AssertionError("sampling target beyond total mass")


def row_supports(params: Params, W: Iterable[int], row: RowId) -> tuple[frozenset[int], ...]:
    """The N supports (S_1, ..., S_N) of one table row: S_1 is R, the k-th
    i-subset of the complement in lexicographic order, and S_{1+h} is R plus
    the h-th cyclic shift within W of sub-block j's l-th collected subset."""
    w = plan.demand(params, W)
    base = frozenset(list(combinations(plan.complement(params, w), row.i))[row.k - 1])
    T = evenness.choose_T_collection(params, w, row.j)[row.l - 1]
    return (base, *(base | part for part in evenness.shifts(w, T)))


def message_parts(params: Params, W: Iterable[int], row: RowId) -> tuple:
    """plan.row_layout's (R, parts) with each part's position p read as
    message w[p], w = sorted W."""
    w = plan.demand(params, W)
    R, positions = plan.row_layout(params, w, row)
    return R, tuple(tuple(w[p] for p in part) for part in positions)


def parts_as_supports(params: Params, W: Iterable[int], row: RowId) -> tuple[frozenset[int], ...]:
    """message_parts' (R, parts) as the N supports: R, then R with each part."""
    R, parts = message_parts(params, W, row)
    return (frozenset(R), *(frozenset(R).union(part) for part in parts))
