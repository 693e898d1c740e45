"""Tests for table indexing, subset shifts, evenness, and row sampling."""
from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from scipy.stats import chi2

from mpir import audit, plan
from mpir.params import Params, lj_mj
from mpir.prob import build_prob_table
import evenness
from rows import iter_row_ids, message_parts, parts_as_supports, row_supports, scan_row


class TestRSubset:
    def test_first_singleton(self):
        assert plan.r_subset(Params(K=4, D=2), (1, 2), 1, 1) == (3,)

    def test_empty(self):
        assert plan.r_subset(Params(K=4, D=2), (1, 2), 0, 1) == ()

    def test_full_pair(self):
        assert plan.r_subset(Params(K=4, D=2), (1, 2), 2, 1) == (3, 4)

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            plan.r_subset(Params(K=4, D=2), (1, 2), 1, 3)
        with pytest.raises(ValueError):
            plan.r_subset(Params(K=4, D=2), (1, 2), 3, 1)

    @pytest.mark.parametrize("K,D,i", [(7, 2, 3), (8, 3, 2), (9, 4, 5), (6, 2, 0)])
    def test_matches_lexicographic_enumeration(self, K, D, i):
        # Oracle: itertools.combinations emits subsets in lex order.
        params = Params(K=K, D=D)
        W = tuple(range(1, D + 1))
        pool = plan.complement(params, W)
        for k, expected in enumerate(combinations(pool, i), start=1):
            assert plan.r_subset(params, W, i, k) == expected


class TestShiftSubset:
    def test_single_element(self):
        assert evenness.shifts((1, 2), {1})[1] == frozenset({2})

    def test_identity_shift(self):
        rng = random.Random(3)
        for _ in range(50):
            D = rng.randrange(2, 7)
            W = tuple(sorted(rng.sample(range(1, 30), D)))
            j = rng.randrange(1, D + 1)
            T = frozenset(rng.sample(W, j))
            assert evenness.shifts(W, T)[0] == T

    def test_full_set_fixed(self):
        assert evenness.shifts((1, 2), {1, 2})[1] == frozenset({1, 2})

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_bijection_per_shift(self, D):
        W = tuple(range(10, 10 + D))
        for j in range(1, D + 1):
            subsets = [frozenset(c) for c in combinations(W, j)]
            for h in range(1, D + 1):
                image = {evenness.shifts(W, T)[h - 1] for T in subsets}
                assert image == set(subsets)

    def test_rejects_non_demand_element(self):
        with pytest.raises(ValueError):
            evenness.shifts((1, 2), {3})

    @pytest.mark.parametrize("D", range(1, 7))
    def test_every_shift_of_every_subset(self, D):
        # Oracle: entry h-1 moves each element h-1 places along sorted W,
        # wrapping around.  Every D-subset W of 1..8, passed in reverse.
        for w in combinations(range(1, 9), D):
            outsider = min(set(range(1, 9)) - set(w))
            for size in range(D + 1):
                for T in combinations(w, size):
                    expected = tuple(
                        frozenset(w[(w.index(x) + h - 1) % D] for x in T) for h in range(1, D + 1)
                    )
                    assert evenness.shifts(w[::-1], T) == expected
                    with pytest.raises(ValueError, match="not a demand element"):
                        evenness.shifts(w, T + (outsider,))


class TestChooseCollection:
    def test_d2(self):
        params = Params(K=4, D=2)
        assert evenness.choose_T_collection(params, (1, 2), 1) == (frozenset({1}),)
        assert evenness.choose_T_collection(params, (1, 2), 2) == (frozenset({1, 2}),)

    def test_d3_j2_shift_coverage(self):
        params = Params(K=5, D=3)
        (T,) = evenness.choose_T_collection(params, (1, 2, 3), 2)
        assert T == frozenset({1, 2})
        shifts = [evenness.shifts((1, 2, 3), T)[h - 1] for h in (1, 2, 3)]
        assert Counter(shifts) == Counter(
            [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
        )

    @pytest.mark.parametrize("D", range(2, 9))
    def test_all_collections_valid(self, D):
        params = Params(K=D + 1, D=D)
        W = tuple(range(2, 2 + D))
        l, _ = lj_mj(D)
        for j in range(1, D + 1):
            coll = evenness.choose_T_collection(params, W, j)
            assert len(coll) == l[j - 1]
            assert len(set(coll)) == l[j - 1]
            assert all(min(W) in T for T in coll)
            assert all(len(T) == j and T <= set(W) for T in coll)


class TestVerifyEvenness:
    def test_d2_j1(self):
        params = Params(K=4, D=2)
        counts, ok = evenness.verify_evenness(params, (1, 2), 1, [{1}])
        assert ok
        assert counts == {frozenset({1}): 1, frozenset({2}): 1}

    def test_d2_j2(self):
        params = Params(K=4, D=2)
        counts, ok = evenness.verify_evenness(params, (1, 2), 2, [{1, 2}])
        assert ok
        assert counts == {frozenset({1, 2}): 2}

    def test_d4_j2_all_candidates(self):
        params = Params(K=5, D=4)
        W = (1, 2, 3, 4)
        coll = [{1, 2}, {1, 3}, {1, 4}]
        counts, ok = evenness.verify_evenness(params, W, 2, coll)
        assert ok
        assert set(counts.values()) == {2}

    def test_detects_uneven_choice(self):
        # Two subsets from the same shift orbit starve the other orbit.
        params = Params(K=6, D=5)
        W = (1, 2, 3, 4, 5)
        counts, ok = evenness.verify_evenness(params, W, 2, [{1, 2}, {1, 5}])
        assert not ok
        assert counts[frozenset({1, 3})] == 0

    @pytest.mark.parametrize("D", range(2, 9))
    def test_chosen_collections_even(self, D):
        params = Params(K=D + 1, D=D)
        W = tuple(range(1, D + 1))
        _, m = lj_mj(D)
        for j in range(1, D + 1):
            coll = evenness.choose_T_collection(params, W, j)
            counts, ok = evenness.verify_evenness(params, W, j, coll)
            assert ok
            assert set(counts.values()) == {m[j - 1]}

    def test_lex_first_failures_are_the_known_set(self):
        # Finding: the naive first-l_j choice is NOT always even, so the
        # evenness property genuinely depends on which subsets are chosen.
        failures = {
            (D, j)
            for D in range(2, 9)
            for j in range(1, D + 1)
            if not plan.lex_first_positions_even(D, j)
        }
        assert failures == {(7, 3), (7, 4), (7, 5), (8, 3), (8, 5), (8, 6)}

    def test_chosen_collections_pinned(self):
        # Every chosen collection for D <= 13 that exists, in position space,
        # hashed: the shift rule the search uses must not move one.  D=10
        # and D=12 are the first D with a sub-block that has none.
        digest = hashlib.sha256()
        missing = set()
        for D in range(1, 14):
            for j in range(1, D + 1):
                try:
                    positions = plan._chosen_positions(D, j)
                except plan.EvennessError:
                    missing.add((D, j))
                    continue
                digest.update(repr((D, j, positions)).encode())
        assert missing == {(10, 4), (10, 6), (12, 6)}
        assert digest.hexdigest() == (
            "30d005cca331ae8d798d0012b8d88633885f0dd2f6563d2dac67af0a29387f38"
        )

    def test_a_collection_that_fails_the_final_check_raises(self, monkeypatch):
        # The orbit quotas fill l_j rows at (4, 2); the search still
        # verifies them with masks_even, patched here to reject them.  The
        # cache is cleared on both sides so no other test sees this call.
        plan._chosen_positions.cache_clear()
        monkeypatch.setattr(plan, "masks_even", lambda masks, D, j: False)
        try:
            with pytest.raises(plan.EvennessError,
                               match="even collection search failed for D=4, j=2"):
                plan._chosen_positions(4, 2)
        finally:
            plan._chosen_positions.cache_clear()


class TestRowSupports:
    def test_worked_rows(self):
        # The oracle's supports, and plan's (R, parts) unioned into them.
        params = Params(K=4, D=2)
        W = (1, 2)
        worked = {
            plan.RowId(2, 1, 1, 1): (frozenset({3, 4}), frozenset({1, 3, 4}), frozenset({2, 3, 4})),
            plan.RowId(0, 1, 2, 1): (frozenset(), frozenset({1, 2}), frozenset({1, 2})),
            plan.RowId(1, 1, 1, 1): (frozenset({3}), frozenset({1, 3}), frozenset({2, 3})),
        }
        for row, supports in worked.items():
            assert row_supports(params, W, row) == supports
            assert parts_as_supports(params, W, row) == supports
        assert message_parts(params, W, plan.RowId(2, 1, 1, 1)) == ((3, 4), ((1,), (2,)))
        assert plan.row_layout(params, (4, 2), plan.RowId(2, 1, 1, 1)) == ((1, 3), ((0,), (1,)))

    def test_invalid_row(self):
        params = Params(K=4, D=2)
        with pytest.raises(ValueError):
            plan.row_layout(params, (1, 2), plan.RowId(0, 1, 2, 2))

    @pytest.mark.parametrize("row", [(3, 1, 1, 1), (1, 3, 1, 1), (0, 1, 3, 1), (0, 1, 1, 0)])
    def test_each_row_field_bounded(self, row):
        # At K=4, D=2: i beyond K-D, k beyond C(2, 1), j beyond D, and l = 0,
        # which as an index would silently pick the last subset.
        with pytest.raises(ValueError, match="must be in|out of range"):
            plan.row_layout(Params(K=4, D=2), (1, 2), plan.RowId(*row))

    @pytest.mark.parametrize("K,D", [(5, 2), (6, 3), (7, 4)])
    def test_intersection_structure(self, K, D):
        # R and every part sorted, the parts inside W and R outside it; the
        # union of R with each part is the oracle's support.
        params = Params(K=K, D=D)
        rng = random.Random(K * 10 + D)
        W = tuple(sorted(rng.sample(range(1, K + 1), D)))
        for row in iter_row_ids(params):
            R, parts = message_parts(params, W, row)
            assert R == tuple(sorted(R)) and not set(R) & set(W)
            assert len(parts) == D
            for part in parts:
                assert part == tuple(sorted(part)) and len(part) == row.j
                assert set(part) <= set(W)
            assert parts_as_supports(params, W, row) == row_supports(params, W, row), row


def members(mask: int) -> frozenset[int]:
    """The message indices of a bitmask, bit x-1 for message x."""
    return frozenset(x + 1 for x in range(mask.bit_length()) if mask >> x & 1)


# Every demand set at K <= 9, D <= 5.
SMALL_SHAPES = [(K, D) for K in range(3, 10) for D in range(2, min(K, 5) + 1)]


class TestSubBlockMasks:
    @pytest.mark.parametrize("K,D", SMALL_SHAPES)
    def test_equals_the_shifted_collection(self, K, D):
        # Row l's parts are the D shifts of the l-th collected subset, in
        # order, whichever order W is given in.
        params = Params(K=K, D=D)
        for w in combinations(range(1, K + 1), D):
            for j in range(1, D + 1):
                expected = [evenness.shifts(w, T) for T in evenness.choose_T_collection(params, w, j)]
                for W in (w, w[::-1]):
                    rows = plan.sub_block_masks(params, audit._subsets(plan.demand(params, W)), j)
                    assert [tuple(map(members, row)) for row in rows] == expected, (W, j)

    @pytest.mark.parametrize("K,D", SMALL_SHAPES)
    def test_row_supports_add_the_parts(self, K, D):
        # plan's (R, parts) for every row with k = 1 of every demand set:
        # R is r_subset's, the parts are sub_block_masks' read as sorted
        # indices, and their unions with R are the oracle's supports.
        params = Params(K=K, D=D)
        for w in combinations(range(1, K + 1), D):
            table = audit._subsets(w)
            masks = {j: plan.sub_block_masks(params, table, j) for j in range(1, D + 1)}
            for row in iter_row_ids(params):
                if row.k == 1:
                    R, parts = message_parts(params, w, row)
                    assert R == plan.r_subset(params, w, row.i, row.k)
                    assert parts == tuple(
                        tuple(sorted(members(part))) for part in masks[row.j][row.l - 1]
                    ), (w, row)
                    assert parts_as_supports(params, w, row) == row_supports(params, w, row)

    def test_validates_demand_and_sub_block(self):
        params = Params(K=5, D=3)
        with pytest.raises(ValueError, match="exactly D"):
            plan.demand(params, (1, 2))
        table = audit._subsets(plan.demand(params, (1, 2, 3)))
        with pytest.raises(ValueError, match="j must be in"):
            plan.sub_block_masks(params, table, 4)
        wide = Params(K=11, D=10)
        table = audit._subsets(plan.demand(wide, range(1, 11)))
        with pytest.raises(plan.EvennessError):
            plan.sub_block_masks(wide, table, 4)

    def test_part_table_lists_the_subsets_by_position(self):
        # Entry s holds w[p] for each bit p of s, whichever order W is given in.
        params = Params(K=9, D=4)
        w = (2, 3, 7, 9)
        expected = [frozenset(w[p] for p in range(4) if s >> p & 1) for s in range(16)]
        for W in (w, w[::-1]):
            assert list(map(members, audit._subsets(plan.demand(params, W)))) == expected


class TestRowEnumeration:
    @pytest.mark.parametrize("K,D", [(4, 2), (7, 2), (10, 4), (6, 3), (10, 3)])
    def test_total_rows(self, K, D):
        params = Params(K=K, D=D)
        ids = list(iter_row_ids(params))
        l, _ = lj_mj(D)
        assert len(ids) == plan.total_rows(params) == 2 ** (K - D) * sum(l)
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("K,D", [(4, 2), (6, 3)])
    def test_row_probability_completeness(self, K, D):
        params = Params(K=K, D=D)
        table = build_prob_table(params)
        total = sum(table.P[row.i][row.j - 1] for row in iter_row_ids(params))
        assert total == 1


class TestSampleRow:
    def test_zero_probability_row_never_drawn(self):
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        rng = random.Random(11)
        draws = [plan.sample_row(params, table, (1, 2), rng) for _ in range(10_000)]
        assert plan.RowId(2, 1, 2, 1) not in draws

    def test_deterministic_given_seed(self):
        params = Params(K=5, D=2)
        table = build_prob_table(params)
        a = [plan.sample_row(params, table, (1, 2), random.Random(9)) for _ in range(100)]
        b = [plan.sample_row(params, table, (1, 2), random.Random(9)) for _ in range(100)]
        assert a == b

    def test_frequencies_chi_square(self):
        # 1e5 draws against the exact row probabilities, significance 0.001.
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        rng = random.Random(2718)
        n = 100_000
        counts = Counter(plan.sample_row(params, table, (1, 2), rng) for _ in range(n))
        rows = [r for r in iter_row_ids(params) if table.P[r.i][r.j - 1] > 0]
        stat = 0.0
        for row in rows:
            expected = float(table.P[row.i][row.j - 1]) * n
            stat += (counts[row] - expected) ** 2 / expected
        dof = len(rows) - 1
        assert stat < chi2.ppf(0.999, dof)
        assert sum(counts.values()) == n

    def test_every_group_boundary_at_large_K(self):
        # At K=200, D=3 the denominator has 386 bits.  Targets 0, den-1 and
        # the first and last target of every group land on the rows the
        # layout assigns them.
        class Target:
            def __init__(self, target):
                self.target = target

            def randrange(self, n):
                assert 0 <= self.target < n == den
                return self.target

        params = Params(K=200, D=3)
        table = build_prob_table(params)
        den, groups, _ = table.sampling_layout
        expected = {}
        acc = 0
        for i, j, k_count, l_count, num in groups:
            width = k_count * l_count * num
            if width:
                expected[acc] = plan.RowId(i, 1, j, 1)
                expected[acc + width - 1] = plan.RowId(i, k_count, j, l_count)
            acc += width
        assert den.bit_length() == 386 and {0, den - 1} <= expected.keys()
        assert len(expected) == 2 * 589
        for target, row in expected.items():
            assert plan.sample_row(params, table, (1, 2, 3), Target(target)) == row

    @pytest.mark.parametrize("K,D", [(3, 2), (4, 2), (7, 3), (8, 4), (7, 5), (9, 2)])
    def test_every_target_lands_where_a_linear_scan_does(self, K, D):
        class Target:
            def __init__(self, target):
                self.target = target

            def randrange(self, n):
                assert 0 <= self.target < n == den
                return self.target

        params = Params(K=K, D=D)
        table = build_prob_table(params)
        den, groups, _ = table.sampling_layout
        for target in range(den):
            row = plan.sample_row(params, table, range(1, D + 1), Target(target))
            assert row == scan_row(groups, target), target

    def test_validates_demand(self):
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        with pytest.raises(ValueError):
            plan.sample_row(params, table, (1, 2, 3), random.Random(0))

    @pytest.mark.parametrize("table_K", [4, 6])
    def test_rejects_table_of_other_shape(self, table_K):
        table = build_prob_table(Params(K=table_K, D=2))
        with pytest.raises(ValueError, match="shape"):
            plan.sample_row(Params(K=5, D=2), table, (1, 2), random.Random(0))


class TestDemandValidation:
    def test_as_demand_sorts(self):
        assert plan.demand(Params(K=5, D=3), [5, 1, 3]) == (1, 3, 5)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            plan.demand(Params(K=5, D=3), [1, 2])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            plan.demand(Params(K=5, D=2), [1, 6])

    def test_evenness_error_when_impossible(self):
        # D=10, j=4 has shift orbits whose stabilizer cannot divide the
        # multiplicity, so no collection of distinct subsets works.
        with pytest.raises(plan.EvennessError):
            evenness.choose_T_collection(Params(K=11, D=10), tuple(range(1, 11)), 4)


class TestUnevenSubBlocks:
    """D=10 (j = 4, 6) and D=12 (j = 6) have sub-blocks with no even
    collection; every K >= D+4 gives one of them mass."""

    @pytest.mark.parametrize("K,D", [(14, 10), (15, 10), (16, 12)])
    def test_sample_row_refuses_before_any_draw(self, K, D):
        params = Params(K=K, D=D)
        table = build_prob_table(params)  # the analysis accepts the instance
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(plan.EvennessError, match=f"D={D}, j="):
            plan.sample_row(params, table, range(1, D + 1), rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("K,D,sub_blocks", [(13, 10, (1, 2, 3, 10)), (15, 12, (1, 2, 3, 12))])
    def test_instances_without_mass_there_still_draw(self, K, D, sub_blocks):
        params = Params(K=K, D=D)
        table = build_prob_table(params)
        assert table.sub_blocks == sub_blocks
        rng = random.Random(1)
        for _ in range(200):
            row = plan.sample_row(params, table, range(1, D + 1), rng)
            assert row.j in sub_blocks
            W = range(1, D + 1)
            assert parts_as_supports(params, W, row) == row_supports(params, W, row)
