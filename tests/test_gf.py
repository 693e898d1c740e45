"""Tests for prime-field arithmetic, the small linear solvers and the packed combine."""
from __future__ import annotations

import math
import random
from itertools import permutations, product

import pytest

from mpir import gf, plan
from mpir.params import Params
from field import augmented_inverse, inverts, support, vec_add


def add(a, b, q):
    width = gf.slot_width(2, q)
    packed = [gf.pack(gf.encode((x,), q), gf.element_width(q), width) for x in (a, b)]
    return gf.decode(gf.combine((1, 1), packed, 1, q, width), q)[0]


def mul(a, b, q):
    width = gf.slot_width(1, q)
    packed = gf.pack(gf.encode((b,), q), gf.element_width(q), width)
    return gf.decode(gf.combine((a,), (packed,), 1, q, width), q)[0]


def slots(values, width):
    """One int holding raw `width`-byte slot values, entry 0 lowest: what
    gf.pack makes of an element vector, without its range limit."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def combined(coeffs, packed, m, q, width):
    return gf.decode(gf.combine(coeffs, packed, m, q, width), q)


def inv(a, q):
    return gf.inverse(q, [[a]])[0][0]


class TestFieldOps:
    # Scalar field operations, through the vector functions that carry them:
    # combine (two unit terms, or one) and a 1x1 inverse.  The vec_add cases
    # check the tests' own oracle (field.py), which the query tests use.
    def test_add_wraps(self):
        assert vec_add((2, 1), (2, 1), 3) == (1, 2)

    def test_inverse(self):
        assert inv(2, 3) == 2

    def test_mul(self):
        assert mul(3, 4, 5) == 2

    def test_zero_inverse_rejected(self):
        assert gf.inverse(5, [[0]]) is None

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_axioms_exhaustive(self, q):
        for a, b, c in product(range(q), repeat=3):
            assert add(add(a, b, q), c, q) == add(a, add(b, c, q), q)
            assert mul(mul(a, b, q), c, q) == mul(a, mul(b, c, q), q)
            assert mul(a, add(b, c, q), q) == add(mul(a, b, q), mul(a, c, q), q)
        for a in range(1, q):
            assert mul(a, inv(a, q), q) == 1
        for a in range(q):
            assert add(a, -a % q, q) == 0

    @pytest.mark.parametrize("q", [11, 13])
    def test_axioms_sampled(self, q):
        rng = random.Random(q)
        for _ in range(500):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert mul(a, add(b, c, q), q) == add(mul(a, b, q), mul(a, c, q), q)
            assert add(add(a, b, q), c, q) == add(a, add(b, c, q), q)

    def test_vec_add_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vec_add((1, 2), (1,), 3)


class TestSupport:
    def test_support_indices_are_one_based(self):
        assert support((0, 2, 0, 1)) == frozenset({2, 4})
        assert support((0, 0)) == frozenset()


def mat_mul(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def eye(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def det(mat, q):
    """The determinant mod q, by the Leibniz sum: an oracle that shares no
    code with the elimination."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(mat[r][perm[r]] for r in range(n))
    return total % q


class TestSolvers:
    def test_identity(self):
        assert gf.inverse(5, eye(3)) == tuple(tuple(row) for row in eye(3))

    def test_diagonal(self):
        assert gf.inverse(3, [[2, 0], [0, 1]]) == ((2, 0), (0, 1))

    def test_singular_rejected(self):
        assert gf.inverse(5, [[1, 2], [2, 4]]) is None
        assert gf.inverse(5, [[1, 2]]) is None  # not square
        assert gf.inverse(5, [[1], [2]]) is None

    def test_known_cases(self):
        assert gf.inverse(3, [[1, 2], [2, 2]]) == ((2, 1), (1, 1))
        assert gf.inverse(3, [[1, 2], [2, 4]]) is None
        assert gf.inverse(3, [[1, 2], [2, 1]]) is None  # det = -3 = 0 mod 3
        assert gf.inverse(3, [[0, 0], [0, 0]]) is None
        assert gf.inverse(3, [[0, 1], [1, 0]]) == ((0, 1), (1, 0))  # pivot needs a swap
        assert gf.inverse(3, []) == ()

    def test_against_exhaustive_search(self):
        # Oracle: column c of the inverse is the unique one of all 125
        # candidates x in GF(5)^3 with mat @ x = e_c.
        rng = random.Random(17)
        for _ in range(20):
            mat = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            inv = gf.inverse(5, mat)
            if inv is None:
                # Singular: some nonzero x has mat @ x = 0.
                assert any(
                    all(sum(mat[r][k] * x[k] for k in range(3)) % 5 == 0 for r in range(3))
                    for x in product(range(5), repeat=3)
                    if any(x)
                )
                continue
            for c in range(3):
                brute = [
                    x
                    for x in product(range(5), repeat=3)
                    if all(sum(mat[r][k] * x[k] for k in range(3)) % 5 == (r == c) for r in range(3))
                ]
                assert brute == [tuple(row[c] for row in inv)]

    def test_round_trip(self):
        rng = random.Random(23)
        for q in (5, 7):
            inverted = 0
            for _ in range(50):
                n = rng.randrange(1, 6)
                mat = [[rng.randrange(-q, 2 * q) for _ in range(n)] for _ in range(n)]
                result = gf.inverse(q, mat)
                assert (result is None) == (det(mat, q) == 0)
                if result is None:
                    continue
                inv = [list(row) for row in result]
                assert all(0 <= x < q for row in inv for x in row)
                assert mat_mul(inv, mat, q) == eye(n)
                assert mat_mul(mat, inv, q) == eye(n)
                inverted += 1
            assert inverted >= 30

    @pytest.mark.parametrize("q,n", [(3, 3), (7, 2)])
    def test_every_small_matrix_matches_augmented_oracle(self, q, n):
        # In-place elimination against Gauss-Jordan on [A | I], singular
        # matrices (None) included.
        for entries in product(range(q), repeat=n * n):
            mat = [entries[r * n : (r + 1) * n] for r in range(n)]
            assert gf.inverse(q, mat) == augmented_inverse(q, mat), mat

    def test_permutations_times_diagonal_match_augmented_oracle(self):
        # Every row-swap pattern the pivot search can meet up to 4x4, with
        # the swaps undone as column swaps in reverse order.
        rng = random.Random(41)
        for n in range(1, 5):
            for perm in permutations(range(n)):
                q = rng.choice((3, 5, 7))
                diag = [rng.randrange(1, q) for _ in range(n)]
                mat = [[diag[c] if perm[r] == c else 0 for c in range(n)] for r in range(n)]
                assert gf.inverse(q, mat) == augmented_inverse(q, mat), (q, mat)
                assert mat_mul(gf.inverse(q, mat), mat, q) == eye(n)

    def test_inverse_with_combine_matches_columnwise(self):
        # The recovery path: one combine per inverse row over packed
        # right-hand-side rows solves every column at once.
        q = 5
        rng = random.Random(31)
        mat = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
        while (inv := gf.inverse(q, mat)) is None:
            mat = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
        rhs_rows = [[rng.randrange(q) for _ in range(6)] for _ in range(3)]
        width = gf.slot_width(3, q)
        packed = [gf.pack(gf.encode(row, q), 1, width) for row in rhs_rows]
        solved = [combined(row, packed, 6, q, width) for row in inv]
        for c in range(6):
            x = [solved[t][c] for t in range(3)]
            assert [sum(mat[r][t] * x[t] for t in range(3)) % q for r in range(3)] == [
                rhs_rows[r][c] for r in range(3)
            ]


class TestCombine:
    @pytest.mark.parametrize(
        "terms,q,width",
        [(1, 2, 1), (20, 3, 1), (63, 3, 1), (64, 3, 1), (20, 7, 1), (20, 13, 1),
         (20, 17, 2), (20, 127, 2), (1, 131, 2), (20, 131, 4), (20, 65521, 8),
         (20, 2**31 - 1, 9), (20, 2**61 - 1, 16), (20, 2**64 - 59, 17)],
    )
    def test_slot_width(self, terms, q, width):
        # One product always fits; slots that reduce on byte lanes hold just
        # that, and any others hold every term's.
        assert gf.slot_width(terms, q) == width
        assert (q - 1) ** 2 < 256**width
        assert width * (q - 1) < 256 or terms * (q - 1) ** 2 < 256**width

    @pytest.mark.parametrize("q,width", [(17, 1), (131, 1), (65521, 2)])
    def test_too_narrow_for_a_reduced_slot_plus_a_product(self, q, width):
        # One product fills the slots past their top value, and so does the
        # second term after a reduction leaves q-1 in them.
        packed = [gf.pack(gf.encode((q - 1,), q), gf.element_width(q), width)] * 2
        with pytest.raises(ValueError):
            gf.combine((q - 1,), packed[:1], 1, q, width)
        small = (256**width - 1) // (q - 1)  # the largest coefficient that fits alone
        assert 1 <= small < q
        with pytest.raises(ValueError):
            gf.combine((1, small), packed, 1, q, width)

    @pytest.mark.parametrize("q", [2, 7, 2**61 - 1, 2**64 - 59])
    def test_extreme_entries_do_not_carry(self, q):
        # Every term at its largest: each slot holds exactly terms*(q-1)^2.
        terms, m = 9, 5
        width = gf.slot_width(terms, q)
        vec = [q - 1] * m
        packed = [gf.pack(gf.encode(vec, q), gf.element_width(q), width)] * terms
        expected = (terms * (q - 1) ** 2 % q,) * m
        assert combined([q - 1] * terms, packed, m, q, width) == expected
        assert combined([-1] * terms, packed, m, q, width) == expected

    @pytest.mark.parametrize("q", [p for p in range(2, 252) if all(p % d for d in range(2, p))])
    def test_every_one_byte_slot_value(self, q):
        # One term with coefficient 1 hands combine every value a slot can hold.
        values = range(256)
        assert combined([1], [slots(values, 1)], 256, q, 1) == tuple(v % q for v in values)

    @pytest.mark.parametrize("q", [127, 131])
    def test_every_two_byte_slot_value(self, q):
        # 2*(127-1) < 256 reduces on byte lanes; 2*(131-1) does not.
        values = range(256**2)
        assert combined([1], [slots(values, 2)], len(values), q, 2) == tuple(
            v % q for v in values
        )

    @pytest.mark.parametrize("q,width", [(61, 4), (67, 4), (31, 8), (37, 8)])
    def test_lane_boundary_at_wide_struct_widths(self, q, width):
        # 61 and 31 are the largest primes on the byte-lane path at their
        # width, 67 and 37 the smallest beyond it.
        rng = random.Random(q * width)
        terms, m = 9, 300
        top = [q - 1] * m
        expected = (terms * (q - 1) ** 2 % q,) * m
        assert combined([q - 1] * terms, [slots(top, width)] * terms, m, q, width) == expected
        vecs = [[rng.randrange(q) for _ in range(m)] for _ in range(terms)]
        coeffs = [rng.randrange(-q, 2 * q) for _ in range(terms)]
        naive = tuple(sum(c * v[t] for c, v in zip(coeffs, vecs)) % q for t in range(m))
        packed = [slots(v, width) for v in vecs]
        assert combined(coeffs, packed, m, q, width) == naive
        # Raw slot values over the whole width, led by the one whose every
        # byte maps to q-1: the largest sum of translated lanes.
        worst = sum((q - 1) * pow(256**k, -1, q) % q * 256**k for k in range(width))
        raw = [worst, 256**width - 1] + [rng.randrange(256**width) for _ in range(m)]
        assert combined([1], [slots(raw, width)], len(raw), q, width) == tuple(
            v % q for v in raw
        )

    @pytest.mark.parametrize("q", [3, 7, 13])
    def test_lane_path_agrees_with_slot_path(self, q):
        # The same vectors in narrow slots (byte lanes) and in the narrowest
        # slots with width*(q-1) >= 256 (one reduction per slot).
        rng = random.Random(q)
        terms, m = 12, 300
        vecs = [[rng.randrange(q) for _ in range(m)] for _ in range(terms)]
        coeffs = [rng.randrange(q) for _ in range(terms)]
        narrow, wide = gf.slot_width(terms, q), -(-256 // (q - 1))
        assert narrow * (q - 1) < 256 <= wide * (q - 1)
        narrow_result, wide_result = (
            gf.combine(coeffs, [gf.pack(gf.encode(v, q), 1, w) for v in vecs], m, q, w)
            for w in (narrow, wide)
        )
        assert narrow_result == wide_result

    def test_zero_combination(self):
        width = gf.slot_width(2, 3)
        packed = [gf.pack(bytes((1, 2)), 1, width), gf.pack(bytes((2, 2)), 1, width)]
        assert gf.combine((0, 3), packed, 2, 3, width) == bytes(2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gf.combine((1, 2), [gf.pack(b"\x01", 1, 1)], 1, 3, 1)

    @pytest.mark.parametrize("q", [3, 251, 257, 65521, 2**31 - 1, 2**64 - 59])
    def test_pack_matches_slot_values(self, q):
        # Element vectors of every width, widened to slots wider, equal and
        # (for the lane path's one-byte slots) as wide as an element.
        rng = random.Random(q)
        values = [q - 1, 0] + [rng.randrange(q) for _ in range(40)]
        vec = gf.encode(values, q)
        for width in sorted({gf.element_width(q), 8, gf.slot_width(7, q)}):
            assert gf.pack(vec, gf.element_width(q), width) == slots(values, width)


class TestElementVectors:
    @pytest.mark.parametrize(
        "q,w", [(2, 1), (3, 1), (251, 1), (257, 2), (65521, 2), (65537, 3),
                (2**31 - 1, 4), (2**61 - 1, 8), (2**64 - 59, 8)],
    )
    def test_element_width(self, q, w):
        assert gf.element_width(q) == w
        assert q - 1 < 256**w

    @pytest.mark.parametrize("q", [3, 251, 65521, 65537, 2**31 - 1, 2**64 - 59])
    def test_encode_is_little_endian_and_decodes(self, q):
        rng = random.Random(q)
        values = (q - 1, 0, 1) + tuple(rng.randrange(q) for _ in range(50))
        w = gf.element_width(q)
        vec = gf.encode(values, q)
        assert vec == b"".join(v.to_bytes(w, "little") for v in values)
        assert gf.decode(vec, q) == values

    @pytest.mark.parametrize("width,new_width", [(1, 2), (2, 8), (3, 8), (8, 17), (2, 1), (8, 3)])
    def test_restride(self, width, new_width):
        rng = random.Random(width * 100 + new_width)
        fit = 256 ** min(width, new_width)
        values = [fit - 1, 0] + [rng.randrange(fit) for _ in range(30)]
        vec = b"".join(v.to_bytes(width, "little") for v in values)
        assert gf.restride(vec, width, new_width) == b"".join(
            v.to_bytes(new_width, "little") for v in values
        )

    @pytest.mark.parametrize("q", [2, 3, 251, 257, 65521, 2**31 - 1, 2**64 - 59])
    def test_out_of_range(self, q):
        w = gf.element_width(q)
        valid = gf.encode([q - 1, 0, q - 1], q)
        assert not gf.out_of_range(valid, q)
        for bad in (q, 256**w - 1):
            for pos in range(3):
                vec = bytearray(valid)
                vec[pos * w : (pos + 1) * w] = bad.to_bytes(w, "little")
                assert gf.out_of_range(bytes(vec), q)

    @pytest.mark.parametrize(
        "q", [2, 3, 251, 65521, 257, 65537, 2**31 - 1, 2**32 - 5, 2**32 + 15]
    )
    @pytest.mark.parametrize("n", [0, 1, 5, gf._SAMPLE_CHUNK + 1])
    def test_random_elements_are_randranges(self, q, n):
        # The per-element loop is the reference: equal bytes, and the rng
        # left in the same state, so n = 0 returns b"" and draws nothing.
        # q = 2 is a field no Params allows (q > D >= 2), so the store tests
        # cannot reach it.  2**32 - 5 is the largest prime below 2**32, whose
        # draws use all 32 bits of a word; 2**32 + 15, the smallest above,
        # draws per element.
        ref, rng = random.Random(f"elements:{q}"), random.Random(f"elements:{q}")
        expected = gf.encode([ref.randrange(q) for _ in range(n)], q)
        assert gf.random_elements(rng, q, n) == (expected if n else b"")
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("q", [2, 7, 251, 65521])
    def test_random_elements_from_system_random(self, q):
        vec = gf.random_elements(random.SystemRandom(), q, 1000)
        assert len(vec) == 1000 * gf.element_width(q)
        assert not gf.out_of_range(vec, q)


class TestRandomFullRankV:
    def test_disjoint_supports(self):
        rng = random.Random(1)
        block, inverse = gf.random_full_rank_V(3, ((0,), (1,)), rng)
        assert support(block[0]) == frozenset({1})
        assert support(block[1]) == frozenset({2})
        assert inverts(3, block, inverse)

    def test_overlapping_supports_reject_proportional(self):
        # Oracle: of the 16 nonzero-entry 2x2 blocks over GF(3), exactly 8
        # have a nonzero determinant; the draw must always land among those,
        # and reach each of them.
        full_rank = {
            ((a1, a2), (b1, b2))
            for a1, a2, b1, b2 in product((1, 2), repeat=4)
            if (a1 * b2 - a2 * b1) % 3
        }
        assert len(full_rank) == 8
        rng = random.Random(99)
        seen = set()
        for _ in range(200):
            block, inverse = gf.random_full_rank_V(3, ((0, 1), (0, 1)), rng)
            assert block in full_rank
            assert inverts(3, block, inverse)
            seen.add(block)
        assert seen == full_rank

    @pytest.mark.parametrize("q", [3, 5])
    def test_rank_for_both_small_primes(self, q):
        # The D=3 cyclic shifts of {0, 1}, as a sub-block-2 row lays them out.
        positions = ((0, 1), (1, 2), (0, 2))
        rng = random.Random(q)
        for _ in range(100):
            block, inverse = gf.random_full_rank_V(q, positions, rng)
            assert [support(row) for row in block] == [{1, 2}, {2, 3}, {1, 3}]
            assert inverts(q, block, inverse)

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_kept_block_is_zero_exactly_off_the_positions(self, D):
        # Every row layout the plan builds at D, drawn over the default q.
        q = Params(K=D, D=D).q
        rng = random.Random(D)
        for j in range(1, D + 1):
            for positions in plan._position_parts(D, j):
                block, inverse = gf.random_full_rank_V(q, positions, rng)
                assert len(block) == D and all(len(row) == D for row in block)
                for row, cols in zip(block, positions):
                    assert {c for c, entry in enumerate(row) if entry} == set(cols)
                assert inverts(q, block, inverse)

    def test_a_column_no_row_covers_exhausts_the_attempt_budget(self):
        # Column 1 is zero in every attempt, so no block inverts.
        with pytest.raises(RuntimeError, match="no full-rank draw"):
            gf.random_full_rank_V(3, ((0,), (0,)), random.Random(0))
