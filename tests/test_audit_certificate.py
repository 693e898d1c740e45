"""The exact privacy audit's per-demand-set certificate.

privacy_check passes a demand set W without comparing supports when, at
every sub-block and position, W's demand-part counts are the reference's
size function: every part inside W, each counted f[|t|] times, and as many
parts as subsets t of W with f[|t|] != 0.  These tests check that a correct
plan takes that path, and that a part outside W does not slip through it.
"""
from __future__ import annotations

import pytest

from mpir import audit, plan
from mpir.params import Params
from mpir.prob import build_prob_table


@pytest.mark.parametrize("K,D", [(7, 3), (9, 4)])
def test_correct_plan_passes_every_demand_set_by_its_counts(monkeypatch, K, D):
    def never(*args):
        raise AssertionError("a demand set of a correct plan was compared by support class")

    monkeypatch.setattr(audit, "_differences", never)
    assert audit.privacy_check(Params(K=K, D=D)).passed


@pytest.mark.parametrize("permute", [True, False])
def test_a_part_outside_the_demand_fails(monkeypatch, permute):
    # One demand set's sub-block 1 carries {3} where it should carry {6}.
    # Its counts keep the reference's sizes and counts (the empty part once
    # and three singletons once each), so only a check that every part lies
    # inside W sees that W's own singleton {6} is never sent.
    params = Params(K=6, D=3)
    table = build_prob_table(params)
    broken = (4, 5, 6)
    masks = plan.sub_block_masks

    def outside_masks(params, W, j):
        rows = masks(params, W, j)
        if tuple(W) != broken or j != 1:
            return rows
        return tuple(tuple(0b100 if part == 0b100000 else part for part in row) for row in rows)

    monkeypatch.setattr(plan, "sub_block_masks", outside_masks)
    report = audit.privacy_check(params, table, permute=permute)
    assert not report.passed
    assert {v.W for v in report.violations} >= {broken}
