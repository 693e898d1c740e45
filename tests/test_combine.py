"""Property tests: the packed-integer server answer equals the per-element sum."""
from __future__ import annotations

import copy
import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mpir import gf  # noqa: E402
from mpir.protocol import MessageStore, server_answer  # noqa: E402

# Small and large fields, each slot-width path: 1, 2 and 8 byte struct slots,
# and exact widths of 9 to 17 bytes for q >= 2**31.  61, 67, 127 and 131 sit
# on either side of width*(q-1) < 256, where combine reduces on byte lanes.
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
    K = draw(st.integers(1, 8))
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
    # The answer's slot width follows the query's nonzero count n; with
    # every entry and coefficient at q-1 each slot holds the largest sum
    # n*(q-1)**2, so a width one term too narrow carries into the next slot.
    K, m = 20, 3
    store = store_of(q, m, [(q - 1,) * m] * K)
    for c in (q - 1, -1):
        for n in range(1, K + 1):
            query = (c,) * n + (0,) * (K - n)
            assert gf.decode(server_answer(store, query), q) == naive_answer(store, query), (c, n)


def test_store_identity_ignores_cached_packings():
    q, m = 7, 4
    msgs = [tuple((t * 3 + i) % q for i in range(m)) for t in range(20)]
    used, fresh = store_of(q, m, msgs), store_of(q, m, msgs)
    answers = [server_answer(used, (1,) * n + (0,) * (20 - n)) for n in (7, 8)]
    # 7 terms fit 1-byte slots at q=7 (7*36 < 256) and 8 do not.
    assert [gf.slot_width(n, q) for n in (7, 8)] == [1, 2]
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    for clone in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
        assert clone == fresh and hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
        assert [server_answer(clone, (1,) * n + (0,) * (20 - n)) for n in (7, 8)] == answers
