"""Tests for query generation, server answering, and recovery."""
from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from mpir import gf, plan
from mpir.params import Params
from mpir.prob import build_prob_table, expected_download_factor
from mpir.protocol import (
    MessageStore,
    QuerySet,
    execute_round,
    make_query_set,
    recover,
    run_round,
    server_answer,
)
import evenness
from field import inverts, support, vec_add
from queries import read_back


class ScriptedRng:
    """Replays a fixed script: randrange values, no-op shuffle."""

    def __init__(self, ranges):
        self._ranges = list(ranges)

    def randrange(self, start, stop=None):
        v = self._ranges.pop(0)
        assert (start if stop is not None else 0) <= v < (stop if stop is not None else start)
        return v

    def shuffle(self, seq):
        pass


def make_store(q, m, rows):
    return MessageStore(q=q, m=m, messages=tuple(gf.encode(r, q) for r in rows))


def decoded(vecs, q):
    """Element vectors (None for a silent server) as tuples of ints."""
    return tuple(None if v is None else gf.decode(v, q) for v in vecs)


class TestServerAnswer:
    def test_zero_query_is_silent(self):
        store = make_store(3, 2, [(1, 2), (0, 1)])
        assert server_answer(store, (0, 0)) is None

    def test_single_message(self):
        store = make_store(5, 3, [(1, 2, 3), (4, 0, 1)])
        assert gf.decode(server_answer(store, (1, 0)), 5) == (1, 2, 3)

    def test_weighted_combination(self):
        store = make_store(3, 1, [(1,), (2,), (1,), (2,)])
        # coefficient 1 on message 3, coefficient 2 on message 4
        assert gf.decode(server_answer(store, (0, 0, 1, 2)), 3) == ((1 + 2 * 2) % 3,)

    def test_length_mismatch(self):
        store = make_store(3, 1, [(1,), (2,)])
        with pytest.raises(ValueError):
            server_answer(store, (1, 0, 0))


class TestWorkedExample:
    """One fully pinned round: K=4, D=2, q=3, W={1,2}, row (2,1,1,1)."""

    def build(self):
        params = Params(K=4, D=2, q=3, m=1)
        table = build_prob_table(params)
        # Row weights over the common denominator 12 are laid out in (i, j)
        # groups; the (2,1) group occupies [10, 12), so a row target of 10
        # lands on row (2,1,1,1).
        rng = ScriptedRng(
            ranges=[10, 1, 2, 2, 1],  # row; U entries at indices 3,4; V entries at 1 then 2
        )
        return params, make_query_set(params, table, (1, 2), rng)

    def test_row_and_vectors(self):
        _, qs = self.build()
        assert qs.row == plan.RowId(2, 1, 1, 1)
        _, U, A = read_back(qs, (1, 2))
        assert U == (0, 0, 1, 2)
        assert A == ((2, 0), (0, 1))
        assert qs.inverse == ((2, 0), (0, 1))
        assert qs.permutation == (0, 1, 2)
        assert qs.queries == ((0, 0, 1, 2), (2, 0, 1, 2), (0, 1, 1, 2))

    def test_answers_and_recovery(self):
        params, qs = self.build()
        store = make_store(3, 1, [(1,), (2,), (0,), (1,)])
        answers = tuple(server_answer(store, qvec) for qvec in qs.queries)
        x1, x2, x3, x4 = (m[0] for m in decoded(store.messages, 3))
        assert decoded(answers, 3) == (
            ((x3 + 2 * x4) % 3,), ((2 * x1 + x3 + 2 * x4) % 3,), ((x2 + x3 + 2 * x4) % 3,)
        )
        assert decoded(recover(params, qs, answers), 3) == ((x1,), (x2,))


class TestMakeQuerySet:
    @pytest.mark.parametrize("K,D,q", [(4, 2, 3), (6, 3, 5), (8, 4, 5)])
    def test_structure(self, K, D, q):
        params = Params(K=K, D=D, q=q)
        table = build_prob_table(params)
        rng = random.Random(K * 100 + D)
        W = tuple(range(1, D + 1))
        for _ in range(50):
            qs = make_query_set(params, table, W, rng)
            base = frozenset(plan.r_subset(params, W, qs.row.i, qs.row.k))
            columns, U, _ = read_back(qs, W)
            assert support(U) == base
            assert sorted(qs.permutation) == list(range(D + 1))
            V = [vec_add(col, [-u for u in U], q) for col in columns[1:]]  # column h is U + V_h
            T = evenness.choose_T_collection(params, W, qs.row.j)[qs.row.l - 1]
            for h, v in enumerate(V, start=1):
                assert support(v) == evenness.shifts(W, T)[h - 1]
            assert inverts(q, V, qs.inverse)

    def test_zero_query_when_base_empty(self):
        params = Params(K=4, D=2, q=3)
        table = build_prob_table(params)
        rng = random.Random(0)
        seen_zero = False
        for _ in range(200):
            qs = make_query_set(params, table, (1, 2), rng)
            if qs.row.i == 0:
                seen_zero = True
                assert qs.queries[qs.permutation[0]] == (0, 0, 0, 0)
        assert seen_zero

    def test_permutation_marginal_uniform(self):
        # Column 0 should land on each server with frequency about 1/N.
        params = Params(K=4, D=2, q=3)
        table = build_prob_table(params)
        rng = random.Random(5)
        n = 30_000
        counts = Counter(
            make_query_set(params, table, (1, 2), rng).permutation[0] for _ in range(n)
        )
        for server in range(3):
            assert abs(counts[server] / n - 1 / 3) < 0.015


class TestRecover:
    def test_diagonal_case(self):
        # A sub-block-D row over disjoint singleton supports is direct scaling.
        params = Params(K=4, D=2, q=5, m=2)
        qs = QuerySet(
            row=plan.RowId(0, 1, 1, 1),
            permutation=(0, 1, 2),
            queries=((0, 0, 0, 0), (3, 0, 0, 0), (0, 2, 0, 0)),
            inverse=((2, 0), (0, 3)),
        )
        store = make_store(5, 2, [(1, 2), (3, 4), (0, 0), (0, 0)])
        answers = tuple(server_answer(store, qvec) for qvec in qs.queries)
        assert decoded(recover(params, qs, answers), 5) == ((1, 2), (3, 4))

    def test_recovery_eliminates_nothing(self, monkeypatch):
        # The full-rank draw's inversion is the round's only elimination:
        # recover decodes from the inverse the query set keeps.
        params = Params(K=6, D=3, q=5, m=4)
        table = build_prob_table(params)
        rng = random.Random(11)
        store = MessageStore.random(params, rng)
        rounds = []
        for _ in range(20):
            w = tuple(sorted(rng.sample(range(1, 7), 3)))
            qs = make_query_set(params, table, w, rng)
            rounds.append((w, qs, tuple(server_answer(store, qv) for qv in qs.queries)))

        def no_elimination(*args):
            raise AssertionError("recover ran an elimination")

        monkeypatch.setattr(gf, "inverse", no_elimination)
        for w, qs, answers in rounds:
            assert recover(params, qs, answers) == tuple(store.messages[x - 1] for x in w)

    def test_random_rounds_match_store(self):
        params = Params(K=5, D=2, q=3, m=4)
        table = build_prob_table(params)
        rng = random.Random(77)
        store = MessageStore.random(params, rng)
        for _ in range(300):
            w = tuple(sorted(rng.sample(range(1, 6), 2)))
            transcript = run_round(params, table, w, store, rng)
            assert transcript.recovered == tuple(store.messages[x - 1] for x in w)

    def test_wrong_answer_length_rejected(self):
        # A server answering with other than m elements, say one serving a
        # different store, is refused instead of decoded.
        params = Params(K=4, D=2, q=3, m=2)
        table = build_prob_table(params)
        with pytest.raises(ValueError, match=r"answer of 3 bytes, expected 2 \(m=2\)"):
            execute_round(
                params, table, (1, 2), random.Random(5), lambda queries: [bytes(3)] * len(queries)
            )


class TestRunRound:
    @pytest.mark.parametrize(
        "K,D,q,m",
        [(4, 2, 3, 1), (4, 2, 3, 8), (6, 3, 5, 2), (8, 4, 5, 3), (7, 2, 3, 64), (5, 3, 2**64 - 59, 9)],
    )
    def test_all_demands_recover(self, K, D, q, m):
        from itertools import combinations

        params = Params(K=K, D=D, q=q, m=m)
        table = build_prob_table(params)
        rng = random.Random(K + D)
        store = MessageStore.random(params, rng)
        for w in combinations(range(1, K + 1), D):
            for _ in range(5):
                transcript = run_round(params, table, w, store, rng)
                assert transcript.recovered == tuple(store.messages[x - 1] for x in w)
                assert transcript.W == w

    def test_silent_round_download(self):
        params = Params(K=4, D=2, q=3, m=8)
        table = build_prob_table(params)
        rng = random.Random(123)
        store = MessageStore.random(params, rng)
        seen = {True: False, False: False}
        for _ in range(200):
            transcript = run_round(params, table, (1, 2), store, rng)
            silent = transcript.query_set.row.i == 0
            seen[silent] = True
            expected = params.m * (params.D if silent else params.N)
            assert transcript.download_elements == expected
        assert all(seen.values())

    def test_mean_answering_servers(self):
        params = Params(K=4, D=2, q=3, m=8)
        table = build_prob_table(params)
        rng = random.Random(31337)
        store = MessageStore.random(params, rng)
        n = 10_000
        total = sum(
            run_round(params, table, (1, 2), store, rng).download_elements // params.m
            for _ in range(n)
        )
        expected = expected_download_factor(params, table)  # 8/3 for this instance
        assert expected == Fraction(8, 3)
        p0 = params.N - expected
        sigma = float(p0 * (1 - p0) / n) ** 0.5
        assert abs(total / n - float(expected)) <= 3 * sigma

    def test_difference_vectors_ignore_non_demand_messages(self):
        # Same queries against stores differing only outside W must recover
        # the identical demand messages.
        params = Params(K=5, D=2, q=3, m=4)
        table = build_prob_table(params)
        rng = random.Random(55)
        store_a = MessageStore.random(params, rng)
        w = (2, 4)
        other = [x for x in range(1, 6) if x not in w]
        for _ in range(100):
            qs = make_query_set(params, table, w, rng)
            messages = list(store_a.messages)
            for x in other:
                messages[x - 1] = gf.encode([rng.randrange(3) for _ in range(4)], 3)
            store_b = MessageStore(q=3, m=4, messages=tuple(messages))
            rec_a = recover(params, qs, tuple(server_answer(store_a, c) for c in qs.queries))
            rec_b = recover(params, qs, tuple(server_answer(store_b, c) for c in qs.queries))
            assert rec_a == rec_b == tuple(store_a.messages[x - 1] for x in w)

    def test_store_shape_checked(self):
        params = Params(K=4, D=2, q=3, m=2)
        table = build_prob_table(params)
        store = make_store(3, 3, [(0, 0, 0)] * 4)
        with pytest.raises(ValueError):
            run_round(params, table, (1, 2), store, random.Random(0))


class TestTranscriptBytes:
    def test_deterministic_and_discriminating(self):
        params = Params(K=4, D=2, q=3, m=8)
        table = build_prob_table(params)
        store = MessageStore.random(params, random.Random(4))
        t1 = run_round(params, table, (1, 2), store, random.Random(10))
        t2 = run_round(params, table, (1, 2), store, random.Random(10))
        t3 = run_round(params, table, (1, 2), store, random.Random(11))
        assert t1.to_bytes() == t2.to_bytes()
        assert t1.to_bytes() != t3.to_bytes()

    def test_golden_digest(self):
        # Fixed seeded rounds hash to a recorded value, so a change in the
        # order or number of RNG draws, or in any computed field, fails here.
        # K=20 has mixing supports whose frozenset order is not ascending;
        # q = 2**64 - 59 uses the widest slots; K=4 has rounds with a
        # silent server.
        cases = [
            (Params(K=20, D=6, q=7, m=64), (2, 5, 9, 13, 17, 20)),
            (Params(K=9, D=4), (1, 3, 6, 8)),
            (Params(K=5, D=3, q=2**64 - 59, m=9), (2, 3, 5)),
            (Params(K=4, D=2, q=3, m=8), (1, 2)),
        ]
        digest = hashlib.sha256()
        silent = 0
        for params, W in cases:
            table = build_prob_table(params)
            store = MessageStore.random(params, random.Random(f"store:{params.K}"))
            for seed in range(10):
                t = run_round(params, table, W, store, random.Random(seed))
                silent += None in t.answers
                digest.update(t.to_bytes())
        assert silent == 11
        assert digest.hexdigest() == (
            "6aad73ae4b9b196a90d154b0dfc52518240aeb77120308e6747765f4ff944a95"
        )


    def test_many_shapes_digest(self):
        # 540 rounds over nine shapes, every combine path among them, with
        # the demand set drawn from each round's own rng.
        shapes = [(20, 6, 7, 4096), (9, 2, 3, 16), (9, 4, 5, 64), (5, 3, 2**64 - 59, 9),
                  (4, 2, 3, 8), (7, 2, 3, 64), (12, 3, 5, 300), (6, 5, 251, 50), (30, 2, 3, 100)]
        digest = hashlib.sha256()
        for K, D, q, m in shapes:
            params = Params(K=K, D=D, q=q, m=m)
            table = build_prob_table(params)
            store = MessageStore.random(params, random.Random(f"store:{K}"))
            for seed in range(60):
                rng = random.Random(seed)
                W = tuple(sorted(rng.sample(range(1, K + 1), D)))
                digest.update(run_round(params, table, W, store, rng).to_bytes())
        assert digest.hexdigest() == (
            "8d2b32f82ba1580265a40da81e27739bd0584dcc77478b7fbd92af06880e755c"
        )

    def test_wide_field_digest(self):
        # Elements of two, four and eight bytes, reduced one slot at a time
        # (no byte lanes): q = 65521, 2**31 - 1 and 2**64 - 59.
        cases = [
            (Params(K=6, D=2, q=65521, m=40), (2, 5)),
            (Params(K=7, D=3, q=2**31 - 1, m=20), (1, 4, 7)),
            (Params(K=5, D=4, q=2**64 - 59, m=12), (1, 2, 3, 5)),
        ]
        digest = hashlib.sha256()
        silent = 0
        for params, W in cases:
            table = build_prob_table(params)
            store = MessageStore.random(params, random.Random(f"store:{params.K}"))
            for seed in range(10):
                t = run_round(params, table, W, store, random.Random(seed))
                assert t.recovered == tuple(store.messages[x - 1] for x in W)
                silent += None in t.answers
                digest.update(t.to_bytes())
        assert silent == 9
        assert digest.hexdigest() == (
            "16e982f92191e0b1cd0993f2d04875a09d9bf8cb3bc2f64243cba3314c43cd9a"
        )

class TestMessageStore:
    def test_validates_entries(self):
        # Short, long and out-of-range vectors at one- and two-byte elements.
        for q in (3, 65521):
            w = gf.element_width(q)
            make_store(q, 2, [(0, q - 1), (q - 1, 0)])
            with pytest.raises(ValueError, match=rf"message 1 has entries outside \[0, {q}\)"):
                make_store(q, 2, [(0, q), (0, 0)])
            with pytest.raises(ValueError, match=rf"message 2 has {w} bytes, expected {2 * w}"):
                make_store(q, 2, [(0, 0), (0,)])
            with pytest.raises(ValueError, match=rf"message 1 has {3 * w} bytes, expected {2 * w}"):
                make_store(q, 2, [(0, 0, 0), (0, 0)])
            with pytest.raises(ValueError, match=rf"message 1 has {2 * w + 1} bytes"):
                MessageStore(q=q, m=2, messages=(bytes(2 * w + 1), bytes(2 * w)))

    @pytest.mark.parametrize("bad", [3, 255])
    def test_last_entry_of_last_message_checked(self, bad):
        with pytest.raises(ValueError, match=r"message 3 has entries outside \[0, 3\)"):
            make_store(3, 2, [(0, 1), (2, 2), (1, bad)])

    @pytest.mark.parametrize("bad", [65521, 65535])
    def test_last_two_byte_entry_checked(self, bad):
        # q = 65521 = 0xFFF1 shares its top byte with q - 1 = 0xFFF0.
        with pytest.raises(ValueError, match=r"message 3 has entries outside \[0, 65521\)"):
            make_store(65521, 2, [(0, 1), (2, 2), (1, bad)])

    def test_random_store_shape(self):
        params = Params(K=6, D=2, q=7, m=5)
        store = MessageStore.random(params, random.Random(8))
        assert store.K == 6
        assert all(len(msg) == 5 for msg in store.messages)
        assert all(0 <= v < 7 for msg in store.messages for v in msg)

    def test_random_store_draws(self):
        # The same randrange draws, in the same order, as a store of int
        # tuples, and the rng left where that loop leaves it: one-byte
        # fields either side of a power of two, a two-byte one, and
        # messages of one word, a few, and past one getrandbits batch.
        sizes = [1, 5, 4096, gf._SAMPLE_CHUNK + 1]
        for q, m in product([3, 5, 7, 13, 127, 131, 251, 65521], sizes):
            params = Params(K=3, D=2, q=q, m=m)
            rng = random.Random(8)
            expected = [[rng.randrange(q) for _ in range(m)] for _ in range(params.K)]
            drawn = random.Random(8)
            store = MessageStore.random(params, drawn)
            assert [list(gf.decode(msg, q)) for msg in store.messages] == expected, (q, m)
            assert drawn.getstate() == rng.getstate(), (q, m)
