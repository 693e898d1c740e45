"""The client's round path against its oracles: the query draw equals the
message-space draw in tests/queries.py, the position layout it reads covers
every position, and each public entry point checks W."""
from __future__ import annotations

import random

import pytest

from mpir import net, plan, protocol
from mpir.params import Params
from mpir.prob import build_prob_table
import queries


@pytest.mark.parametrize("K,D,q", [(4, 2, 3), (9, 2, 3), (20, 6, 7), (12, 5, 131), (6, 2, 65521)])
def test_draw_equals_the_message_space_oracle(K, D, q):
    # The whole QuerySet (row, permutation, queries and inverse) and
    # the rng state after it, over 500 seeded draws; (12, 5, 131) has 2-byte
    # elements.
    params = Params(K=K, D=D, q=q)
    prob = build_prob_table(params)
    inputs = random.Random(f"oracle:{K}:{D}:{q}")
    for seed in range(500):
        W = inputs.sample(range(1, K + 1), D)
        shipped, oracle = random.Random(seed), random.Random(seed)
        assert protocol.make_query_set(params, prob, W, shipped) == \
            queries.make_query_set(params, prob, W, oracle), (W, seed)
        assert shipped.getstate() == oracle.getstate()


def test_every_row_covers_all_positions():
    # The draw puts block column p at message w[p]: that needs each row's D
    # parts to cover the D positions, for every (D, j) the plan builds.
    built = 0
    for D in range(2, 17):
        for j in range(1, D + 1):
            try:
                rows = plan._position_parts(D, j)
            except plan.EvennessError:
                continue
            built += 1
            for row in rows:
                assert len(row) == D and all(len(part) == j for part in row), (D, j)
                assert set().union(*row) == set(range(D)), (D, j, row)
    assert built > 100


PARAMS = Params(K=5, D=2, q=3, m=2)
BAD_W = {"repeated": (2, 2), "zero": (0, 2), "K+1": (1, 6), "D-1": (1,)}


def entry_points(params: Params):
    prob = build_prob_table(params)
    store = protocol.MessageStore.random(params, random.Random(0))
    row = plan.RowId(1, 1, 1, 1)
    # Nothing listens on these ports: a round that got past its W check
    # would fail to connect instead of raising ValueError.
    endpoints = [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)]
    return {
        "sample_row": lambda W: plan.sample_row(params, prob, W, random.Random(0)),
        "row_layout": lambda W: plan.row_layout(params, W, row),
        "r_subset": lambda W: plan.r_subset(params, W, 1, 1),
        "make_query_set": lambda W: protocol.make_query_set(params, prob, W, random.Random(0)),
        "run_round": lambda W: protocol.run_round(params, prob, W, store, random.Random(0)),
        "retrieve": lambda W: net.retrieve(endpoints, W, params, seed=0),
    }


@pytest.mark.parametrize("name", list(entry_points(PARAMS)))
@pytest.mark.parametrize("bad", list(BAD_W))
def test_public_entry_points_check_W(name, bad):
    with pytest.raises(ValueError, match="demand"):
        entry_points(PARAMS)[name](BAD_W[bad])


@pytest.mark.parametrize("name", list(entry_points(PARAMS)))
def test_a_demand_is_checked_again_for_other_params(name):
    # A Demand passes unchecked only for the params it was made for: (4, 5)
    # is a demand set at K=5 and out of range at K=4.
    made = plan.demand(PARAMS, (4, 5))
    assert plan.demand(PARAMS, made) is made
    with pytest.raises(ValueError, match=r"lie in \[1, 4\]"):
        entry_points(Params(K=4, D=2, q=3, m=2))[name](made)
