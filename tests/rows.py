"""The tests' row oracles: every row address of a plan table in table order,
and the row a sampling target addresses, found by a linear scan."""
from __future__ import annotations

from typing import Iterator

from mpir.params import Params, binomial, lj_mj
from mpir.plan import RowId


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
