"""Tests for the exact privacy auditor and the statistical checks."""
from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from mpir import audit, cli, gf, plan
from mpir.params import Params, lj_mj
from mpir.prob import build_prob_table, table_mass
from field import inverts, support
from rows import iter_row_ids, parts_as_supports, row_supports


def F(*args):
    return Fraction(*args)


class TestSupportDistribution:
    def test_worked_value_for_every_demand(self):
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        for w in combinations(range(1, 5), 2):
            dist = audit.support_distribution(params, table, w, 1)
            assert dist[frozenset({3, 4})] == F(1, 18)

    def test_empty_support_probability(self):
        # P(zero query at one server) = (1/N) * sum_j l_j * P[0][j].
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        l, _ = lj_mj(params.D)
        expected = sum(F(l[j]) * table.P[0][j] for j in range(params.D)) / params.N
        for w in ((1, 2), (2, 4), (3, 4)):
            dist = audit.support_distribution(params, table, w, 2)
            assert dist[frozenset()] == expected == F(1, 9)

    def test_total_mass_is_one(self):
        params = Params(K=5, D=2)
        table = build_prob_table(params)
        dist = audit.support_distribution(params, table, (2, 5), 1)
        assert sum(dist.values()) == 1

    def test_same_for_every_server_position(self):
        params = Params(K=5, D=3)
        table = build_prob_table(params)
        dists = [
            audit.support_distribution(params, table, (1, 3, 5), n)
            for n in range(1, params.N + 1)
        ]
        assert all(d == dists[0] for d in dists)

    @pytest.mark.parametrize("K,D", [(4, 2), (5, 2), (6, 3), (7, 3), (6, 4), (7, 4)])
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("permute", [True, False])
    def test_matches_enumeration_of_sent_supports(self, K, D, perturbed, permute):
        # Oracle: the supports the protocol sends for every row (the rows
        # oracle, equal to the unions of plan's (R, parts)), each column
        # reaching a position with probability 1/N under the permutation,
        # or column n-1 alone reaching server n.
        params = Params(K=K, D=D)
        table = build_prob_table(params)
        if perturbed:
            table = audit.perturb_prob_table(table, 1, 2)
        for w in combinations(range(1, K + 1), D):
            expected = [defaultdict(Fraction) for _ in range(params.N)]
            for row in iter_row_ids(params):
                p_row = table.P[row.i][row.j - 1]
                supports = row_supports(params, w, row)
                assert parts_as_supports(params, w, row) == supports, (w, row)
                for col, sup in enumerate(supports):
                    if permute:
                        for dist in expected:
                            dist[sup] += p_row / params.N
                    else:
                        expected[col][sup] += p_row
            for n, dist in enumerate(expected, start=1):
                got = audit.support_distribution(params, table, w, n, permute=permute)
                assert got == {sup: p for sup, p in dist.items() if p}, (w, n)

    def test_rejects_bad_server(self):
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        with pytest.raises(ValueError):
            audit.support_distribution(params, table, (1, 2), 4)


class TestPrivacyCheck:
    @pytest.mark.parametrize("K,D", [(4, 2), (5, 2), (6, 3), (7, 4)])
    def test_passes_exactly(self, K, D):
        report = audit.privacy_check(Params(K=K, D=D))
        assert report.passed
        assert report.max_tv_distance == 0
        assert report.violations == ()

    def test_mutated_table_fails(self):
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        report = audit.privacy_check(params, audit.perturb_prob_table(table, 1, 2))
        assert not report.passed
        assert report.max_tv_distance > 0
        v = report.violations[0]
        assert v.p != v.p_ref

    def test_every_single_entry_mutation_detected(self):
        params = Params(K=4, D=2)
        table = build_prob_table(params)
        for i in range(3):
            for j in (1, 2):
                mutated = audit.perturb_prob_table(table, i, j)
                assert not audit.privacy_check(params, mutated).passed

    @pytest.mark.parametrize("i,j", [(0, 0), (-1, 1), (3, 1), (9, 1), (0, 3), (1, -1)])
    def test_perturb_outside_the_table_rejected(self, i, j):
        # K=4, D=2: rows i = 0..2, columns j = 1..2.  Negative indices would
        # silently perturb another entry, and large ones raise IndexError.
        table = build_prob_table(Params(K=4, D=2))
        with pytest.raises(ValueError, match=rf"no entry P\[{i}\]\[{j}\]"):
            audit.perturb_prob_table(table, i, j)

    def test_violations_and_tv_match_exact_distributions(self):
        # Every reported probability and the TV distance must be the exact
        # rational values of the per-demand support distributions.
        params = Params(K=4, D=2)
        mutated = audit.perturb_prob_table(build_prob_table(params), 1, 2)
        report = audit.privacy_check(params, mutated, permute=False)
        demands = list(combinations(range(1, 5), 2))
        positions = range(1, params.N + 1)
        dists = {
            (w, n): audit.support_distribution(params, mutated, w, n, permute=False)
            for w in demands
            for n in positions
        }
        assert report.violations
        for v in report.violations:
            assert isinstance(v.p, Fraction) and isinstance(v.p_ref, Fraction)
            assert v.p == dists[(v.W, v.server_n)].get(v.support, 0)
            assert v.p_ref == dists[(v.W_ref, v.server_n)].get(v.support, 0)
        w_ref = demands[0]
        expected_violations = set()
        expected_tv = Fraction(0)
        for w in demands[1:]:
            for n in positions:
                ref, cur = dists[(w_ref, n)], dists[(w, n)]
                tv = Fraction(0)
                for sup in set(ref) | set(cur):
                    gap = abs(ref.get(sup, 0) - cur.get(sup, 0))
                    if gap:
                        expected_violations.add((w, n, sup))
                    tv += gap
                expected_tv = max(expected_tv, tv / 2)
        assert {(v.W, v.server_n, v.support) for v in report.violations} == expected_violations
        assert len(report.violations) == len(expected_violations)
        assert isinstance(report.max_tv_distance, Fraction)
        assert report.max_tv_distance == expected_tv > 0

    @pytest.mark.parametrize("permute", [True, False])
    def test_violation_order_does_not_depend_on_tally_construction(self, monkeypatch, permute):
        # The same weights built as a plain dict, in reverse insertion order,
        # or as returned must give the same report, violation order included.
        params = Params(K=7, D=3)
        mutated = audit.perturb_prob_table(build_prob_table(params), 1, 2)
        built = audit._support_weights
        reports = []
        for rebuild in (lambda t: t, dict, lambda t: dict(reversed(list(t.items())))):
            monkeypatch.setattr(
                audit, "_support_weights",
                lambda *a, r=rebuild: [[r(t) for t in by_i] for by_i in built(*a)],
            )
            reports.append(audit.privacy_check(params, mutated, permute=permute))
        assert reports[0].violations
        assert reports[1] == reports[0] and reports[2] == reports[0]
        keys = [(v.W, v.server_n, len(v.support), sorted(v.support)) for v in reports[0].violations]
        assert keys == sorted(keys)

    def test_skipping_permutation_fails(self):
        params = Params(K=4, D=2)
        report = audit.privacy_check(params, permute=False)
        assert not report.passed
        assert report.max_tv_distance > 0


class TestCoefficientPrivacy:
    @pytest.mark.parametrize("K,D,q", [(4, 2, 3), (5, 2, 3), (4, 2, 5)])
    def test_exact_equality_at_small_instances(self, K, D, q):
        # Settles the question left open by the support-level reduction: even
        # with the full-rank conditioning, the coefficient-vector
        # distribution is exactly demand-independent at these instances.
        report = audit.coefficient_privacy_check(Params(K=K, D=D, q=q))
        assert report.passed
        assert report.max_tv_distance == 0

    def test_distribution_mass(self):
        params = Params(K=4, D=2, q=3)
        table = build_prob_table(params)
        dists = audit.coefficient_distributions(params, table, (1, 2))
        assert len(dists) == params.N
        assert all(sum(dist.values()) == 1 for dist in dists)
        # The zero vector appears exactly when the empty-support row is drawn.
        assert dists[0][(0, 0, 0, 0)] == F(1, 9)

    def test_mutation_detected_at_coefficient_level(self):
        params = Params(K=4, D=2, q=3)
        table = build_prob_table(params)
        report = audit.coefficient_privacy_check(params, audit.perturb_prob_table(table, 0, 1))
        assert not report.passed

    def test_identity_shuffle_detected(self, monkeypatch):
        # The replay runs the client's own shuffle: a client whose shuffle
        # leaves the servers in order sends U to server 1 every time.
        monkeypatch.setattr(audit.ReplayRng, "shuffle", lambda self, x: None)
        report = audit.coefficient_privacy_check(Params(K=4, D=2, q=3))
        assert not report.passed
        assert report.max_tv_distance > 0

    def test_oversized_instance_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            audit.coefficient_distributions(
                Params(K=12, D=2, q=13),
                build_prob_table(Params(K=12, D=2, q=13)),
                (1, 2),
            )

    @pytest.mark.parametrize("K", [4, 5, 6])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_support_projection_equals_support_distribution(self, K, perturbed):
        # The replayed query vectors, projected onto their supports, give the
        # support-level audit's distribution at every server position.
        params = Params(K=K, D=2, q=3)
        table = build_prob_table(params)
        if perturbed:
            table = audit.perturb_prob_table(table, 1, 2)
        demands = list(combinations(range(1, K + 1), 2))
        for w in (demands[0], demands[-1]):
            dists = audit.coefficient_distributions(params, table, w)
            for n, dist in enumerate(dists, start=1):
                projected = defaultdict(Fraction)
                for query, p in dist.items():
                    projected[support(query)] += p
                assert projected == audit.support_distribution(params, table, w, n), (w, n)


class TestReplay:
    def test_randrange_branches_uniformly(self):
        dist = audit._replay(lambda rng: [(rng.randrange(3), rng.randrange(1, 5))])
        assert dist == {(a, b): F(1, 12) for a in range(3) for b in range(1, 5)}

    def test_shuffle_reaches_every_order_once(self):
        def shuffled(rng):
            order = list(range(4))
            rng.shuffle(order)
            return [tuple(order)]

        assert audit._replay(shuffled) == {
            p: F(1, 24) for p in permutations(range(4))
        }

    @pytest.mark.parametrize("name", ["random", "getrandbits", "choice", "sample", "randint"])
    def test_other_methods_fail(self, name):
        with pytest.raises(AttributeError, match="randrange and shuffle only"):
            getattr(audit.ReplayRng([]), name)

    def test_full_rank_attempt_renormalised_per_prefix(self):
        # After u=0 every attempt is full rank; after u=1 half of the 16 are.
        # Each prefix keeps its 1/2, spread evenly over its accepted draws.
        def run(rng):
            u = rng.randrange(2)
            positions = ((0,), (1,)) if u == 0 else ((0, 1), (0, 1))
            return [(u, gf.random_full_rank_V(3, positions, rng))]

        dist = audit._replay(run)
        assert sum(p for (u, _), p in dist.items() if u == 0) == F(1, 2)
        assert {p for (u, _), p in dist.items() if u == 0} == {F(1, 8)}
        assert {p for (u, _), p in dist.items() if u == 1} == {F(1, 16)}
        assert all(inverts(3, vecs, inverse) for _, (vecs, inverse) in dist)

    def test_never_full_rank_raises(self):
        with pytest.raises(RuntimeError, match="no full-rank draw"):
            audit._replay(
                lambda rng: [gf.random_full_rank_V(3, ((0,), (0,)), rng)]
            )

    def test_ordinary_rng_keeps_the_shipped_retry(self):
        # Only the replay rng makes one full-rank attempt: an ordinary rng
        # drawn from inside a replay keeps the shipped retry.  Seed 3's first
        # attempt here is rank-deficient, so a one-attempt retry would raise.
        shipped = gf.random_full_rank_V(3, ((0, 1), (0, 1)), random.Random(3))
        assert shipped == (((2, 1), (1, 1)), ((1, 2), (2, 2)))
        dist = audit._replay(
            lambda rng: [
                (
                    rng.randrange(2),
                    gf.random_full_rank_V(3, ((0, 1), (0, 1)), random.Random(3)),
                )
            ]
        )
        assert dist == {(0, shipped): F(1, 2), (1, shipped): F(1, 2)}


class TestRowDistribution:
    @pytest.mark.parametrize("K,D", [(4, 2), (5, 2), (6, 3)])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_each_row_gets_its_probability(self, K, D, perturbed):
        # Replaying every target of the shipped row draw gives each row
        # exactly P[i][j-1]: its group's mass C(K-D, i) * l_j * P[i][j-1],
        # split evenly over the group's rows.
        params = Params(K=K, D=D)
        table = build_prob_table(params)
        if perturbed:
            table = audit.perturb_prob_table(table, 1, 2)
        expected = {
            row: table.P[row.i][row.j - 1]
            for row in iter_row_ids(params)
            if table.P[row.i][row.j - 1]
        }
        assert audit.row_distribution(params, table, range(1, D + 1)) == expected

    def test_oversized_denominator_rejected(self):
        params = Params(K=200, D=3)
        with pytest.raises(ValueError, match="too large"):
            audit.row_distribution(params, build_prob_table(params), (1, 2, 3))


class TestPerturbProbTable:
    def test_mass_remains_one(self):
        from mpir.params import binomial

        params = Params(K=5, D=2)
        table = build_prob_table(params)
        mutated = audit.perturb_prob_table(table, 2, 1)
        l, _ = lj_mj(params.D)
        mass = sum(
            binomial(3, i) * sum(l[j] * mutated.P[i][j] for j in range(2))
            for i in range(4)
        )
        assert mass == 1
        assert mutated.P != table.P

    @pytest.mark.parametrize("K,D", [(4, 2), (7, 3), (9, 4)])
    def test_equals_the_fraction_renormalization(self, K, D):
        # The integer nudge against the Fraction one it replaced: P[i][j]
        # plus 1/1000, every entry then divided by the table's new mass.
        table = build_prob_table(Params(K=K, D=D))
        for i, j in [(i, j) for i in range(K - D + 1) for j in range(1, D + 1)]:
            rows = [list(row) for row in table.P]
            rows[i][j - 1] += F(1, 1000)
            mass = table_mass(rows)
            expected = tuple(tuple(p / mass for p in row) for row in rows)
            mutated = audit.perturb_prob_table(table, i, j)
            assert mutated.P == expected
            assert mutated.den == math.lcm(*(p.denominator for row in expected for p in row))


class TestEvenness:
    @pytest.mark.parametrize("D", range(2, 9))
    def test_passes(self, D):
        report = audit.evenness_check(D)
        assert report.passed
        assert len(report.findings) == D

    def test_known_lex_first_findings(self):
        report = audit.evenness_check(7)
        uneven = {f.j for f in report.findings if not f.lex_first_even}
        assert uneven == {3, 4, 5}

    def test_reads_the_shipped_table(self, monkeypatch, capsys):
        # Sub-block 2's last rotation replaced by its first in the table that
        # rounds and the privacy audit map: the search's own collection is
        # still even, so only a check of that table sees positions {0, 1}
        # three times and {2, 3} once at D=4, not twice each.
        masks = plan._position_masks

        def uneven(D, j):
            table = masks(D, j)
            return table[:-1] + table[:1] if j == 2 else table

        monkeypatch.setattr(plan, "_position_masks", uneven)
        report = audit.evenness_check(4)
        assert not report.passed
        assert [f.j for f in report.findings if not f.even] == [2]
        assert cli.main(["audit", "evenness", "--D", "4"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("FAIL\n")
        lines = {line.split(":")[0]: line for line in out.splitlines()[:4]}
        assert "verified" not in lines["j=2"]
        assert all("verified" in lines[f"j={j}"] for j in (1, 3, 4))


class TestRecoverability:
    def test_small_run_all_succeed(self):
        params = Params(K=4, D=2, m=8)
        report = audit.recoverability_check(params, 2000, random.Random(101))
        assert report.passed
        assert report.successes == report.trials == 2000
        assert report.within_3_sigma

    def test_larger_instance(self):
        params = Params(K=9, D=3, m=8)
        report = audit.recoverability_check(params, 500, random.Random(5))
        assert report.passed

    def test_expected_matches_rate_module(self):
        params = Params(K=4, D=2, m=8)
        report = audit.recoverability_check(params, 10, random.Random(0))
        assert report.expected_answering == F(8, 3)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            audit.recoverability_check(Params(K=4, D=2), 0, random.Random(0))
