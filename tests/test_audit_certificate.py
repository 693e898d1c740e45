"""The exact privacy audit's per-demand-set certificate.

privacy_check certifies the reference once, by three checks: every part in
its rows lies in the subset table of W_ref that the audit builds, its
weights pass the size-class certificate c, and each of its rows holds D
parts.  It then keeps the reference's parts as positions, row by row.  Any
other demand set W gets one subset table from the audit, which
plan.sub_block_masks maps the position table through, and passes without
comparing supports when, at every sub-block, plan's rows for W equal those
positions mapped through that table, D parts to a row: the reference's rows
relabelled by φ: W_ref[p] ↦ W[p], so W's weights are φ of the reference's
and every support weighs c of its size under both.  These tests check that
a correct plan takes that path; that the audit builds one subset table per
demand set, the reference's included, and plan reads no other; that a part
outside W, a row moved to the next sub-block, or rows regrouped within one
do not slip through it; that rows in another order are compared by class
and pass; that a reference with a part outside W_ref, or a row that does not
hold D parts, is not certified; that a reference row in a sub-block the
table gives no mass is still compared row by row; and that every single
edit of the position table that all demand sets map gives the full
crossing's report, whichever path each demand set takes.
"""
from __future__ import annotations

import math

import pytest

from mpir import audit, plan
from mpir.params import Params
from mpir.prob import build_prob_table
from test_privacy_oracle import full_crossing_report


def compared_demands(monkeypatch) -> list:
    """The demand sets privacy_check compares by support class, in order."""
    compared = []
    differences = audit._differences

    def counted_differences(*args):
        compared.append(args[1])
        return differences(*args)

    monkeypatch.setattr(audit, "_differences", counted_differences)
    return compared


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


def test_a_passing_audit_builds_one_subset_table_per_demand_set(monkeypatch):
    # The audit builds one subset table per demand set, the reference's
    # included, and plan.sub_block_masks maps the position table through
    # those tables and no other.
    built, received = [], []
    subsets, masks = audit._subsets, plan.sub_block_masks
    monkeypatch.setattr(audit, "_subsets", lambda w: built.append(subsets(w)) or built[-1])
    monkeypatch.setattr(plan, "sub_block_masks",
                        lambda params, table, j: received.append(table) or masks(params, table, j))
    assert audit.privacy_check(Params(K=9, D=4)).passed
    assert len(built) == math.comb(9, 4)
    assert received and all(any(table is b for b in built) for table in received)


def test_a_reference_part_outside_its_demand_is_not_certified(monkeypatch):
    # The reference's sub-block 1 rows each carry {6} on top of their parts.
    # Its weights at the subsets of W_ref keep their size classes, so only
    # the reference's other checks see the extra part: its rows hold D + 1
    # parts, and {6} is not in W_ref's subset table.  Every other demand set
    # is then compared by support class.
    params = Params(K=6, D=3)
    masks = plan.sub_block_masks

    def extra_masks(params, table, j):
        rows = masks(params, table, j)
        return tuple(row + (0b100000,) for row in rows) if table[-1] == 0b111 and j == 1 else rows

    compared = compared_demands(monkeypatch)
    monkeypatch.setattr(plan, "sub_block_masks", extra_masks)
    audit.privacy_check(params, build_prob_table(params))
    assert len(compared) == math.comb(6, 3) - 1


# At (6, 4) sub-block 2 has three rows and sub-blocks 3 and 4 one each, and
# W = (3, 4, 5, 6) is the last demand set.
SHAPE = Params(K=6, D=4)
LAST = 0b111100


def test_a_row_moved_to_the_next_sub_block_is_not_certified(monkeypatch):
    # W's last sub-block-2 row becomes sub-block 3's first: the parts, read
    # in order across all sub-blocks, are unchanged, so only a comparison
    # that keeps sub-block boundaries sees the row weigh P[i][3], not P[i][2].
    table = build_prob_table(SHAPE)
    masks = plan.sub_block_masks

    def moved_masks(params, table, j):
        rows = masks(params, table, j)
        if table[-1] != LAST or j not in (2, 3):
            return rows
        return rows[:-1] if j == 2 else masks(params, table, 2)[-1:] + rows

    w_table = audit._subsets((3, 4, 5, 6))
    flat = [part for j in range(1, 5) for row in masks(SHAPE, w_table, j) for part in row]
    assert [part for j in range(1, 5) for row in moved_masks(SHAPE, w_table, j)
            for part in row] == flat
    compared = compared_demands(monkeypatch)
    monkeypatch.setattr(plan, "sub_block_masks", moved_masks)
    report = audit.privacy_check(SHAPE, table)
    assert compared == [(3, 4, 5, 6)]
    assert not report.passed
    assert report == full_crossing_report(SHAPE, table, permute=True)


def test_rows_regrouped_within_a_sub_block_are_not_certified(monkeypatch):
    # W's twelve sub-block-2 parts, in the same order, as four rows of three:
    # only a comparison that keeps row boundaries sees column 1 carry the
    # empty part four times there, not three.
    table = build_prob_table(SHAPE)
    masks = plan.sub_block_masks

    def regrouped_masks(params, table, j):
        rows = masks(params, table, j)
        return tuple(zip(*[iter(sum(rows, ()))] * 3)) if table[-1] == LAST and j == 2 else rows

    compared = compared_demands(monkeypatch)
    monkeypatch.setattr(plan, "sub_block_masks", regrouped_masks)
    report = audit.privacy_check(SHAPE, table)
    assert compared == [(3, 4, 5, 6)]
    assert not report.passed
    assert report == full_crossing_report(SHAPE, table, permute=True)


def test_rows_in_another_order_are_compared_by_class_and_pass(monkeypatch):
    # W's sub-block-2 rows in reverse order: every column keeps its parts,
    # so W's distribution is the reference's, but its rows are not the
    # reference's rows in W's positions; the class comparison passes it.
    table = build_prob_table(SHAPE)
    masks = plan.sub_block_masks

    def reversed_masks(params, table, j):
        rows = masks(params, table, j)
        return rows[::-1] if table[-1] == LAST and j == 2 else rows

    compared = compared_demands(monkeypatch)
    monkeypatch.setattr(plan, "sub_block_masks", reversed_masks)
    report = audit.privacy_check(SHAPE, table)
    assert compared == [(3, 4, 5, 6)]
    assert report.passed
    assert report == full_crossing_report(SHAPE, table, permute=True)


def test_a_reference_row_short_of_D_parts_is_not_certified(monkeypatch):
    # The reference's first sub-block-2 row hands its last part to the front
    # of the second row.  Its parts, read in order, are unchanged, and so are
    # its counts and weights under the permutation, but its rows no longer
    # hold D parts each, so no demand set is compared with them row by row:
    # every one is compared by support class, and all pass.
    table = build_prob_table(SHAPE)
    masks = plan.sub_block_masks

    def short_masks(params, table, j):
        rows = masks(params, table, j)
        if table[-1] != 0b1111 or j != 2:
            return rows
        return (rows[0][:-1], rows[0][-1:] + rows[1], *rows[2:])

    compared = compared_demands(monkeypatch)
    monkeypatch.setattr(plan, "sub_block_masks", short_masks)
    report = audit.privacy_check(SHAPE, table)
    assert len(compared) == math.comb(6, 4) - 1
    assert report.passed


@pytest.mark.parametrize("row", [(0b11111,) * 4, (0b1111,) * 3 + (0b0111,)])
def test_a_reference_sub_block_without_mass_is_still_checked(monkeypatch, row):
    # The table gives sub-block 4 no mass at (6, 4), so the reference's
    # weights and their certificate do not see its one sub-block-4 row, and
    # that row still holds D parts.  It carries W_ref ∪ {5} in each column,
    # which is not in W_ref's subset table, so the reference is not
    # certified; or {1, 2, 3} in one column, which is, so the reference is
    # certified, and no other demand set's correct row equals that row
    # relabelled.  Either way every other demand set is compared by class.
    table = build_prob_table(SHAPE)
    assert all(p[3] == 0 for p in table.P)
    masks = plan.sub_block_masks

    def broken_masks(params, table, j):
        return (row,) if table[-1] == 0b1111 and j == 4 else masks(params, table, j)

    compared = compared_demands(monkeypatch)
    monkeypatch.setattr(plan, "sub_block_masks", broken_masks)
    report = audit.privacy_check(SHAPE, table)
    assert len(compared) == math.comb(6, 4) - 1
    assert report.passed


def edited_tables(D: int):
    """(j, table): plan's position table of sub-block j with one entry
    changed to another D-bit mask, for every entry and every other mask."""
    for j in range(1, D + 1):
        table = plan._position_masks(D, j)
        for index, entry in enumerate(table):
            for mask in range(1 << D):
                if mask != entry:
                    yield j, table[:index] + (mask,) + table[index + 1:]


@pytest.mark.parametrize("K,D,permute",
                         [(5, 3, True), (5, 3, False), (5, 4, True), (5, 4, False), (6, 4, True)])
def test_a_position_table_edited_alike_for_every_demand_set(monkeypatch, K, D, permute):
    # One entry of the position table that every demand set maps, edited:
    # every demand set's rows are then the reference's relabelled, so each
    # passes by the row comparison whenever the reference passes its three
    # checks.  Whichever path a demand set takes, the report must equal the
    # full crossing's.  At (5, 4) the table gives sub-blocks 3 and 4 no mass,
    # so an edit there changes no weight: each of those 2 x 4 x 15 edited
    # plans passes by the row comparison alone.
    params = Params(K=K, D=D)
    table = build_prob_table(params)
    masks = plan._position_masks
    compared = compared_demands(monkeypatch)
    certified = 0
    for j, edited in edited_tables(D):
        monkeypatch.setattr(plan, "_position_masks", lambda d, sub_block, j=j, edited=edited:
                            edited if sub_block == j else masks(d, sub_block))
        compared.clear()
        report = audit.privacy_check(params, table, permute=permute)
        assert report == full_crossing_report(params, table, permute), (j, edited)
        certified += report.passed and not compared
    if (K, D, permute) == (5, 4, True):
        assert certified == 120
