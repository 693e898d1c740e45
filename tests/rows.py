"""The tests' row oracle: every row address of a plan table, in table order."""
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
