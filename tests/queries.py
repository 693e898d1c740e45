"""The tests' oracle for a round's query draw: the draw as it stood in
message space, before it moved to the row's cached position layout.

Each part is sorted message indices, taken from rows.row_supports' set-based
supports; the full-rank draw sorts, unions and indexes them on every call
and spreads its block through a dict.  The rng calls, and so the values,
are the shipped round's: the row target, U in ascending order over R, each
full-rank attempt row by row in ascending index order, then the shuffle.
read_back reads U and the full-rank block back from a query set's columns.
"""
from __future__ import annotations

import random
from typing import Iterable, Sequence

from mpir import gf, plan
from mpir.params import Params
from mpir.prob import ProbTable
from mpir.protocol import QuerySet
from rows import row_supports, scan_row


def random_full_rank_V(params: Params, supports: Sequence[Iterable[int]],
                       rng: random.Random) -> gf.FullRankDraw:
    """(V, inverse) over message-index supports, redrawn until the block on
    the covered columns inverts."""
    q = params.q
    sorted_supports = [sorted(s) for s in supports]
    covered = sorted(set().union(*sorted_supports))
    slots = [[covered.index(idx) for idx in sup] for sup in sorted_supports]
    while True:
        block = [[0] * len(covered) for _ in slots]
        for row, cols in zip(block, slots):
            for c in cols:
                row[c] = rng.randrange(1, q)
        if (inv := gf.inverse(q, block)) is not None:
            return tuple(gf.vector_with_support(params.K, dict(zip(covered, row)))
                         for row in block), inv


def draw_queries(params: Params, row: plan.RowId, R: Sequence[int],
                 parts: Sequence[Sequence[int]], rng: random.Random) -> QuerySet:
    """U over R, V over the parts, then the shuffle, each column U with its
    part's entries set and the columns sorted into server order."""
    U = gf.vector_with_support(params.K, {idx: rng.randrange(1, params.q) for idx in R})
    V, inverse = random_full_rank_V(params, parts, rng)
    columns = [U]
    for v, part in zip(V, parts):
        col = list(U)
        for idx in part:
            col[idx - 1] = v[idx - 1]
        columns.append(tuple(col))
    servers = list(range(params.N))
    rng.shuffle(servers)
    queries = tuple(col for _, col in sorted(zip(servers, columns)))
    return QuerySet(row, tuple(servers), queries, inverse)


def read_back(query_set: QuerySet, W: Iterable[int]) -> tuple:
    """(columns, U, A) of a query set: column n is the query that server
    permutation[n] receives, U is column 0, and row h-1 of the full-rank
    block A is column h read at W's indices in ascending order."""
    columns = [query_set.queries[server] for server in query_set.permutation]
    w = sorted(W)
    return columns, columns[0], tuple(tuple(col[x - 1] for x in w) for col in columns[1:])


def make_query_set(params: Params, prob: ProbTable, W: Iterable[int],
                   rng: random.Random) -> QuerySet:
    """The row a uniform target in [0, den) addresses (rows.scan_row), then
    its queries drawn over rows.row_supports' R and parts."""
    den, groups, _ = prob.sampling_layout
    row = scan_row(groups, rng.randrange(den))
    base, *supports = row_supports(params, W, row)
    return draw_queries(params, row, sorted(base), [sorted(s - base) for s in supports], rng)
