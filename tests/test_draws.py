"""The round's rng draws, call by call.

A recording rng logs every randrange and shuffle call that
protocol.make_query_set makes, with its arguments and its result, and the
round stage that made it.  The expected calls of each fixed row were
recorded from the round as it stood before the draws were split into
stages, so any change of the order, the number or the values of the draws
fails here; ReplayRng and every seeded transcript depend on them.
"""
from __future__ import annotations

import random
import sys

import pytest

from mpir import protocol
from mpir.params import Params
from mpir.prob import build_prob_table
from queries import read_back

# The functions that make the round's draws, in the order they run.
STAGES = ("sample_row", "mixing_vector", "random_full_rank_V", "assign")

# (K, D, q), W, seed, the drawn row (i, k, j, l), and its calls as
# (method, arguments, result); a shuffle's arguments are the list it is given.
# (4, 2, 3), (9, 2, 3) and (20, 6, 7) each redraw V once.
ROWS = [
    ((4, 2, 3), (1, 2), 5, (1, 2, 2, 1), (
        ('randrange', (12,), 9), ('randrange', (1, 3), 2), ('randrange', (1, 3), 2),
        ('randrange', (1, 3), 1), ('randrange', (1, 3), 2), ('randrange', (1, 3), 1),
        ('randrange', (1, 3), 1), ('randrange', (1, 3), 1), ('randrange', (1, 3), 1),
        ('randrange', (1, 3), 2), ('shuffle', (0, 1, 2), (2, 0, 1)),
    )),
    ((9, 2, 3), (3, 7), 0, (5, 15, 2, 1), (
        ('randrange', (7155,), 6917), ('randrange', (1, 3), 2), ('randrange', (1, 3), 2),
        ('randrange', (1, 3), 1), ('randrange', (1, 3), 2), ('randrange', (1, 3), 2),
        ('randrange', (1, 3), 2), ('randrange', (1, 3), 2), ('randrange', (1, 3), 2),
        ('randrange', (1, 3), 2), ('randrange', (1, 3), 1), ('randrange', (1, 3), 1),
        ('randrange', (1, 3), 2), ('randrange', (1, 3), 1), ('shuffle', (0, 1, 2), (2, 1, 0)),
    )),
    ((20, 6, 7), (2, 5, 9, 13, 17, 20), 38, (5, 1300, 3, 6), (
        ('randrange', (4561179932015,), 3705008327754), ('randrange', (1, 7), 4),
        ('randrange', (1, 7), 6), ('randrange', (1, 7), 1), ('randrange', (1, 7), 1),
        ('randrange', (1, 7), 3), ('randrange', (1, 7), 6), ('randrange', (1, 7), 4),
        ('randrange', (1, 7), 3), ('randrange', (1, 7), 1), ('randrange', (1, 7), 5),
        ('randrange', (1, 7), 6), ('randrange', (1, 7), 2), ('randrange', (1, 7), 5),
        ('randrange', (1, 7), 3), ('randrange', (1, 7), 3), ('randrange', (1, 7), 3),
        ('randrange', (1, 7), 6), ('randrange', (1, 7), 3), ('randrange', (1, 7), 5),
        ('randrange', (1, 7), 6), ('randrange', (1, 7), 3), ('randrange', (1, 7), 4),
        ('randrange', (1, 7), 5), ('randrange', (1, 7), 4), ('randrange', (1, 7), 2),
        ('randrange', (1, 7), 5), ('randrange', (1, 7), 1), ('randrange', (1, 7), 5),
        ('randrange', (1, 7), 4), ('randrange', (1, 7), 2), ('randrange', (1, 7), 4),
        ('randrange', (1, 7), 5), ('randrange', (1, 7), 2), ('randrange', (1, 7), 1),
        ('randrange', (1, 7), 4), ('randrange', (1, 7), 3), ('randrange', (1, 7), 6),
        ('randrange', (1, 7), 5), ('randrange', (1, 7), 6), ('randrange', (1, 7), 5),
        ('randrange', (1, 7), 5), ('shuffle', (0, 1, 2, 3, 4, 5, 6), (2, 4, 5, 6, 3, 1, 0)),
    )),
    ((6, 2, 65521), (2, 5), 24, (2, 2, 2, 1), (
        ('randrange', (135,), 98), ('randrange', (1, 65521), 55038),
        ('randrange', (1, 65521), 38193), ('randrange', (1, 65521), 11967),
        ('randrange', (1, 65521), 14305), ('randrange', (1, 65521), 65424),
        ('randrange', (1, 65521), 10967), ('shuffle', (0, 1, 2), (1, 2, 0)),
    )),
]


IDS = ["-".join(map(str, shape)) for shape, *_ in ROWS]


class RecordingRng(random.Random):
    """random.Random that logs each randrange and shuffle call as
    (stage, method, arguments, result), stage the innermost STAGES function
    on the call stack."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.calls: list[tuple] = []

    def _log(self, method: str, args: tuple, result) -> None:
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_name not in STAGES:
            frame = frame.f_back
        self.calls.append((frame and frame.f_code.co_name, method, args, result))

    def randrange(self, *args):
        value = super().randrange(*args)
        self._log("randrange", args, value)
        return value

    def shuffle(self, x: list) -> None:
        before = tuple(x)
        super().shuffle(x)
        self._log("shuffle", before, tuple(x))


def record(shape, W, seed):
    K, D, q = shape
    params = Params(K=K, D=D, q=q)
    rng = RecordingRng(seed)
    qs = protocol.make_query_set(params, build_prob_table(params), W, rng)
    return qs, rng.calls


@pytest.mark.parametrize("shape,W,seed,row,calls", ROWS, ids=IDS)
def test_the_round_makes_the_recorded_draws(shape, W, seed, row, calls):
    qs, recorded = record(shape, W, seed)
    assert tuple(qs.row) == row
    assert [call[1:] for call in recorded] == list(calls)


@pytest.mark.parametrize("shape,W,seed,row,calls", ROWS, ids=IDS)
def test_each_stage_makes_its_own_draws(shape, W, seed, row, calls):
    # In order: the row, U's entries on R, every full-rank attempt, the
    # shuffle; U (column 0) takes its entries, the block on W (each other
    # column read at W) the last attempt's, and the permutation is the
    # shuffle's result.
    qs, recorded = record(shape, W, seed)
    _, U, A = read_back(qs, W)
    i = row[0]
    stages = [stage for stage, *_ in recorded]
    assert stages == (["sample_row"] + ["mixing_vector"] * i
                      + ["random_full_rank_V"] * (len(calls) - 2 - i) + ["assign"])
    assert [c for c in U if c] == [value for _, _, _, value in recorded[1:1 + i]]
    accepted = [c for a in A for c in a if c]
    assert accepted == [value for _, _, _, value in recorded[len(recorded) - 1 - len(accepted):-1]]
    assert qs.permutation == recorded[-1][3]
