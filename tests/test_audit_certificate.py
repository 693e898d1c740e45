"""The exact privacy audit's per-demand-set certificate.

privacy_check builds one plan.part_table per demand set W and maps each
column of W's demand parts into position space: a subset of W becomes its
position mask, any other part -1.  W passes without comparing supports when
every sorted column equals the template of the reference's size function f,
each position mask s f[|s|] times, and the reference must pass the same
comparison before it is certified.  These tests check that a correct plan
takes that path with one table per demand set, that a part outside W does
not slip through it, and that a reference with a part outside W_ref is not
certified.
"""
from __future__ import annotations

import math

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

    def outside_masks(params, table, j):
        rows = masks(params, table, j)
        if table[-1] != 0b111000 or j != 1:
            return rows
        return tuple(tuple(0b100 if part == 0b100000 else part for part in row) for row in rows)

    monkeypatch.setattr(plan, "sub_block_masks", outside_masks)
    report = audit.privacy_check(params, table, permute=permute)
    assert not report.passed
    assert {v.W for v in report.violations} >= {broken}


def test_a_passing_audit_reads_one_part_table_per_demand_set(monkeypatch):
    # One table per demand set, and one more for the reference's counts.
    calls = []
    part_table = plan.part_table
    monkeypatch.setattr(plan, "part_table", lambda *args: calls.append(args) or part_table(*args))
    assert audit.privacy_check(Params(K=9, D=4)).passed
    assert len(calls) <= math.comb(9, 4) + 1


def test_a_reference_part_outside_its_demand_is_not_certified(monkeypatch):
    # The reference's sub-block 1 rows each carry {6} on top of their parts.
    # Its counts at the subsets of W_ref keep their size function, so only
    # the reference's own comparison with the template sees the extra part,
    # and every other demand set is then compared by support class.
    params = Params(K=6, D=3)
    masks = plan.sub_block_masks

    def extra_masks(params, table, j):
        rows = masks(params, table, j)
        return tuple(row + (0b100000,) for row in rows) if table[-1] == 0b111 and j == 1 else rows

    compared = []
    differences = audit._differences

    def counted_differences(*args):
        compared.append(args[1])
        return differences(*args)

    monkeypatch.setattr(plan, "sub_block_masks", extra_masks)
    monkeypatch.setattr(audit, "_differences", counted_differences)
    audit.privacy_check(params, build_prob_table(params))
    assert len(compared) == math.comb(6, 3) - 1
