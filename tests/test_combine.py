"""Property tests: the packed-integer server answer equals the per-element sum."""
from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import tracemalloc

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mpir import gf  # noqa: E402
from mpir.protocol import MessageStore, server_answer  # noqa: E402

# Small and large fields, each slot-width path: 1, 2 and 8 byte struct slots,
# and exact widths of 9 to 17 bytes for q >= 2**31.  61, 67, 127 and 131 sit
# on either side of width*(q-1) < 256, where combine reduces on byte lanes
# and so packs one product a slot, reducing before a term could carry.
FIELDS = [2, 3, 7, 61, 67, 127, 131, 65521, 2**31 - 1, 2**61 - 1, 2**64 - 59]


def naive_answer(store, query):
    messages = [gf.decode(msg, store.q) for msg in store.messages]
    return tuple(
        sum(c * msg[t] for c, msg in zip(query, messages)) % store.q for t in range(store.m)
    )


def store_of(q, m, messages):
    return MessageStore(q=q, m=m, messages=tuple(gf.encode(msg, q) for msg in messages))


@st.composite
def store_and_query(draw, m, nonzero):
    q = draw(st.sampled_from(FIELDS))
    # Up to 24 terms: several in-place reductions at q=7 and q=127.
    K = draw(st.integers(1, 24))
    elem = st.integers(0, q - 1)
    messages = tuple(tuple(draw(st.lists(elem, min_size=m, max_size=m))) for _ in range(K))
    # Coefficients may be negative or >= q; the answer is taken mod q.
    coeff = st.integers(-2 * q, 2 * q)
    if nonzero:
        coeff = coeff.filter(lambda c: c != 0)
    query = tuple(draw(st.lists(coeff, min_size=K, max_size=K)))
    return store_of(q, m, messages), query


def check(store, query):
    if all(c == 0 for c in query):
        assert server_answer(store, query) is None
    else:
        assert gf.decode(server_answer(store, query), store.q) == naive_answer(store, query)


@settings(max_examples=150, deadline=None, database=None)
@given(store_and_query(m=1, nonzero=False))
def test_single_element_messages(case):
    check(*case)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(2, 64).flatmap(lambda m: store_and_query(m=m, nonzero=False)))
def test_longer_messages(case):
    check(*case)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 64).flatmap(lambda m: store_and_query(m=m, nonzero=True)))
def test_all_nonzero_queries(case):
    check(*case)


@pytest.mark.parametrize("q", FIELDS)
def test_coefficients_congruent_mod_q_agree(q):
    store = store_of(q, 3, ((q - 1, 1, 0), (q - 1, q - 1, 1)))
    reduced = server_answer(store, (q - 1, 1))
    assert server_answer(store, (-1, q + 1)) == reduced
    assert server_answer(store, (2 * q - 1, 1 - q)) == reduced
    # A nonzero query that is zero mod q answers, with all-zero entries.
    assert gf.decode(server_answer(store, (q, -q)), q) == (0, 0, 0)


@pytest.mark.parametrize("q", FIELDS)
def test_largest_sums_at_every_term_count(q):
    # With every entry and coefficient at q-1, n terms weigh n*(q-1) and
    # each slot holds the largest sum n*(q-1)**2 that n terms can make, so a
    # width one term too narrow carries into the next slot.
    K, m = 20, 3
    store = store_of(q, m, [(q - 1,) * m] * K)
    for c in (q - 1, -1):
        for n in range(1, K + 1):
            query = (c,) * n + (0,) * (K - n)
            assert gf.decode(server_answer(store, query), q) == naive_answer(store, query), (c, n)


def one_packing(store, width):
    """Whether the store caches exactly one packing, in `width`-byte slots."""
    cached = set(vars(store)) - {f.name for f in dataclasses.fields(store)}
    w = gf.element_width(store.q)
    return cached == {"packed"} and store.packed == tuple(
        gf.pack(msg, w, width) for msg in store.messages
    )


@pytest.mark.parametrize("q", [2, 3, 7, 13, 17, 127])
def test_every_weight_from_one_packing(q):
    # Every query weight 1..K(q-1), built from coefficients q-1 and one
    # remainder, over entries mostly at q-1: each weight's largest sums.
    K, m = 20, 4
    rng = random.Random(q)
    store = store_of(q, m, [(q - 1, q - 1, rng.randrange(q), 0) for _ in range(K)])
    for weight in range(1, K * (q - 1) + 1):
        full, rest = divmod(weight, q - 1)
        query = (q - 1,) * full + (rest,) * (K > full) + (0,) * (K - full - 1)
        assert gf.decode(server_answer(store, query), q) == naive_answer(store, query), weight
    assert one_packing(store, gf.slot_width(K, q))


def test_answers_hold_one_packing_in_memory():
    # A light and a heavy query (weight 6 and 48, either side of 42, the
    # last weight that fits 1-byte slots unreduced at q=7) add one packing
    # of the messages' size and nothing per width.
    q, K, m = 7, 20, 2**16
    store = store_of(q, m, [(q - 1,) * m] * K)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for query in ((q - 1,) + (0,) * (K - 1), (q - 1,) * 8 + (0,) * (K - 8)):
            assert len(server_answer(store, query)) == m
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 1.1 * K * m


def one_byte_weight(q):
    """The largest query weight (sum of coefficients mod q) whose sum
    fits 1-byte slots unreduced: ceil(weight/(q-1)) products fit 255."""
    return 255 // (q - 1) ** 2 * (q - 1)


@pytest.mark.parametrize("q,top", [(2, 255), (3, 126), (7, 42)])
def test_weight_boundary_of_one_byte_slots(q, top):
    # Every entry at q-1, so a weight-w query sums w*(q-1) in every slot:
    # 252 and 258 at q=7 either side of the 1-byte limit.  Coefficients
    # are q-1 but one, written both as residues and as negatives.
    assert one_byte_weight(q) == top
    K, m = -(-(top + 1) // (q - 1)), 3
    store = store_of(q, m, [(q - 1,) * m] * K)
    for weight in (top, top + 1):
        full, rest = divmod(weight, q - 1)
        query = (q - 1,) * full + (rest,) * (K > full) + (0,) * (K - full - 1)
        for coeffs in (query, tuple(c - q if c else 0 for c in query)):
            assert gf.decode(server_answer(store, coeffs), q) == naive_answer(store, coeffs)
    assert one_packing(store, 1)


@pytest.mark.parametrize("q,terms", [(2, 255), (3, 64), (7, 20)])
def test_unit_coefficients_stay_in_one_byte_slots(q, terms):
    # Unit coefficients weigh one each: 20 terms at q=7 (and 64 at q=3) fit
    # 1-byte slots by weight, where the count of terms would take 2 bytes.
    m = 3
    store = store_of(q, m, [(q - 1,) * m] * terms)
    query = (1,) * terms
    assert gf.decode(server_answer(store, query), q) == naive_answer(store, query)
    assert one_packing(store, 1)


def test_store_identity_ignores_cached_packings():
    q, m = 7, 4
    msgs = [tuple((t * 3 + i) % q for i in range(m)) for t in range(20)]
    used, fresh = store_of(q, m, msgs), store_of(q, m, msgs)
    answers = [server_answer(used, (q - 1,) * n + (0,) * (20 - n)) for n in (7, 8)]
    # 7 terms at q-1 fit 1-byte slots at q=7 (7*36 < 256); 8 reduce once.
    assert one_packing(used, 1)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    for clone in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
        assert clone == fresh and hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
        assert [server_answer(clone, (q - 1,) * n + (0,) * (20 - n)) for n in (7, 8)] == answers
