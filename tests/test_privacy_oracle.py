"""The exact privacy audit against a full crossing of its own.

privacy_check accepts a demand set whose rows are the reference's rows
relabelled, once the reference passes its three checks (its parts in its own
subset table, its size-class certificate, D parts to a row), and compares
any other demand set with the reference class by class, expanding only the
support classes whose weights differ.  The oracle here shares only the weights w_i[t]
(audit._demand_counts, audit._support_weights): it crosses every demand
set's weights with all complement subsets into tallies keyed by support
bitmask and diffs them support by support, so the two reports must be equal,
violation order included: on the instances of acceptance criterion 3, on
every single-entry perturbation of small tables, with and without the
permutation, on two perturbed wider shapes, and on four broken plans built
to slip past a weaker certificate.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from mpir import audit, plan
from mpir.params import Params
from mpir.prob import ProbTable, build_prob_table, table_mass

# Acceptance criterion 3's instances up to K = 12; its (13, 6) and (14, 6)
# are left out, since their full crossing alone takes about 16 s.
CRITERION_3 = [(K, D) for D in range(2, 7) for K in range(D + 1, 13)]
MUTATED = [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4)]
# Without the permutation no certificate holds at position 1 (it sees
# complement subsets alone), so every demand set is compared by class
# there; (8, 4) is left out, as its 21 reports of ~31k violations each take
# about 10 s for nothing the smaller instances do not cover.
MUTATED_UNPERMUTED = MUTATED[:-1]


def support_tallies(
    params: Params, w: tuple[int, ...], nums: tuple[tuple[int, ...], ...], permute: bool
) -> list[dict[int, int]]:
    """Per server position, each support's probability times the scale,
    keyed by the support as an int bitmask (bit t-1 for message t).

    Support b | t, b an i-subset of the complement, weighs w_i[t].  b and t
    are disjoint, so each support is written once.
    """
    comp = [1 << (t - 1) for t in plan.complement(params, w)]
    tallies = []
    counts = audit._demand_counts(audit._sub_block_rows(params, audit._subsets(w)), permute)
    for weights in audit._support_weights(nums, counts):
        tallies.append({
            base | t: v
            for i, weight in enumerate(weights)
            for base in map(sum, combinations(comp, i))
            for t, v in weight.items()
        })
    return tallies


def support(mask: int) -> frozenset[int]:
    """The message indices of a support bitmask."""
    return frozenset(t + 1 for t in range(mask.bit_length()) if mask >> t & 1)


def differences(ref: dict[int, int], cur: dict[int, int]) -> tuple[list[tuple], int]:
    """The (mask, ref value, cur value) entries where two tallies differ, and
    the sum of |ref - cur| over all masks."""
    diffs = []
    abs_sum = 0
    if ref == cur:
        return diffs, abs_sum
    for key in set(ref) | set(cur):
        a, b = ref.get(key, 0), cur.get(key, 0)
        if a != b:
            diffs.append((key, a, b))
            abs_sum += abs(a - b)
    return diffs, abs_sum


def full_crossing_report(params: Params, prob: ProbTable, permute: bool) -> audit.PrivacyReport:
    """privacy_check without the certificate or the classes: every demand
    set's tallies are crossed out and diffed against the reference's."""
    den, nums = prob.den, prob.nums
    scale = params.N * den if permute else den
    demands = list(combinations(range(1, params.K + 1), params.D))
    w_ref = demands[0]
    reference = support_tallies(params, w_ref, nums, permute)
    # Few distinct values recur across ~10^4 violations: build each once.
    cached_support, fraction = cache(support), cache(lambda v: Fraction(v, scale))
    max_abs_sum = 0
    violations = []
    for w in demands[1:]:
        tallies = support_tallies(params, w, nums, permute)
        compared = [
            (sorted(((cached_support(mask), a, b) for mask, a, b in diffs),
                    key=lambda d: (len(d[0]), sorted(d[0]))), abs_sum)
            for diffs, abs_sum in map(differences, reference, tallies)
        ]
        for n, (diffs, abs_sum) in enumerate(compared * (params.N // len(compared)), start=1):
            violations.extend(
                audit.PrivacyViolation(W_ref=w_ref, W=w, server_n=n, support=sup,
                                       p_ref=fraction(v_ref), p=fraction(v))
                for sup, v_ref, v in diffs
            )
            max_abs_sum = max(max_abs_sum, abs_sum)
    return audit.PrivacyReport(
        params=params,
        passed=not violations,
        max_tv_distance=Fraction(max_abs_sum, 2 * scale),
        demands_checked=len(demands),
        violations=tuple(violations),
    )


@pytest.mark.parametrize("K,D", CRITERION_3)
def test_equals_full_crossing_on_criterion_3(K, D):
    params = Params(K=K, D=D)
    table = build_prob_table(params)
    report = audit.privacy_check(params, table)
    assert report.passed
    assert report == full_crossing_report(params, table, permute=True)


@pytest.mark.parametrize(
    "K,D,permute",
    [(K, D, True) for K, D in MUTATED] + [(K, D, False) for K, D in MUTATED_UNPERMUTED],
)
def test_equals_full_crossing_on_every_single_entry_mutation(K, D, permute):
    params = Params(K=K, D=D)
    table = build_prob_table(params)
    entries = [(i, j) for i in range(K - D + 1) for j in range(1, D + 1)]
    for entry in [None, *entries]:
        prob = table if entry is None else audit.perturb_prob_table(table, *entry)
        report = audit.privacy_check(params, prob, permute=permute)
        assert report == full_crossing_report(params, prob, permute), entry
        if entry is not None:
            assert not report.passed, entry


@pytest.mark.parametrize(
    "K,D,permute,i,j", [(12, 4, True, 0, 1), (12, 4, True, 1, 4), (9, 3, False, 0, 1)]
)
def test_equals_full_crossing_on_a_wider_mutation(K, D, permute, i, j):
    # Complements of W ∪ W_ref of up to 7 (K = 12) or 5 (K = 9) messages.
    # Under the permutation a nudged P[0][j] changes sub-table 0 alone, where
    # every differing class is one support; P[1][4] also makes classes of
    # r = 1 differ, each standing for |rest| supports in the TV sum and in
    # the violations.
    params = Params(K=K, D=D)
    prob = audit.perturb_prob_table(build_prob_table(params), i, j)
    report = audit.privacy_check(params, prob, permute=permute)
    assert not report.passed
    assert report == full_crossing_report(params, prob, permute)


@pytest.mark.parametrize("permute", [True, False])
def test_uniform_weights_unlike_the_reference_fail(monkeypatch, permute):
    # A plan that lists one demand set's collections twice doubles all of its
    # weights: its own certificate holds, with twice the reference's c.
    params = Params(K=6, D=3)
    table = build_prob_table(params)
    doubled = (4, 5, 6)
    masks = plan.sub_block_masks

    def doubled_masks(params, table, j):
        rows = masks(params, table, j)
        return rows * 2 if table[-1] == 0b111000 else rows

    monkeypatch.setattr(plan, "sub_block_masks", doubled_masks)
    report = audit.privacy_check(params, table, permute=permute)
    assert not report.passed
    assert {v.W for v in report.violations} >= {doubled}
    assert report == full_crossing_report(params, table, permute)


@pytest.mark.parametrize("permute", [True, False])
def test_demand_parts_never_sent_fail(monkeypatch, permute):
    # A plan whose rows for one demand set lose their last column when T is
    # a proper subset of W: each count it keeps equals the reference's, so
    # only a check that reads the zero counts sees the demand parts it lost.
    params = Params(K=6, D=3)
    table = build_prob_table(params)
    broken = (4, 5, 6)
    masks = plan.sub_block_masks

    def dropped_masks(params, table, j):
        rows = masks(params, table, j)
        return tuple(r[:-1] for r in rows) if table[-1] == 0b111000 and j < params.D else rows

    monkeypatch.setattr(plan, "sub_block_masks", dropped_masks)
    report = audit.privacy_check(params, table, permute=permute)
    assert not report.passed
    assert {v.W for v in report.violations} >= {broken}
    assert report == full_crossing_report(params, table, permute)


@pytest.mark.parametrize("permute", [True, False])
def test_a_part_swapped_for_another_of_its_size_fails(monkeypatch, permute):
    # One demand set's sub-block 2 carries {4, 6} where it should carry
    # {4, 5}, in one column.  Every size keeps its count, so only a check
    # that counts each subset of W sees {4, 5} never sent and {4, 6} twice.
    params = Params(K=6, D=3)
    table = build_prob_table(params)
    broken = (4, 5, 6)
    masks = plan.sub_block_masks

    def swapped_masks(params, table, j):
        rows = masks(params, table, j)
        if table[-1] != 0b111000 or j != 2:
            return rows
        return tuple(tuple(0b101000 if part == 0b011000 else part for part in row)
                     for row in rows)

    sizes = sorted(part.bit_count() for row in masks(params, audit._subsets(broken), 2)
                   for part in row)
    swapped = swapped_masks(params, audit._subsets(broken), 2)
    assert sorted(part.bit_count() for row in swapped for part in row) == sizes
    assert sum(row.count(0b101000) for row in swapped) == 2
    monkeypatch.setattr(plan, "sub_block_masks", swapped_masks)
    report = audit.privacy_check(params, table, permute=permute)
    assert not report.passed
    assert {v.W for v in report.violations} >= {broken}
    assert report == full_crossing_report(params, table, permute)


@pytest.mark.parametrize("permute", [True, False])
def test_asking_for_the_demand_itself_fails(permute):
    # All mass on sub-table 0, sub-block D: each answering server is asked
    # for W itself.  Every weight but w_0[{}] and w_0[W] is 0, so only a
    # certificate that counts zero weights sees sizes 0 and D clash with them.
    params = Params(K=5, D=2)
    rows = [[0] * params.D for _ in range(params.K - params.D + 1)]
    rows[0][-1] = 1
    table = ProbTable(table_mass(rows), rows, j_star=params.D)
    report = audit.privacy_check(params, table, permute=permute)
    assert not report.passed
    assert report == full_crossing_report(params, table, permute)
