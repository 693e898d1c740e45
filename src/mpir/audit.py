"""Exhaustive privacy verification and statistical protocol checks.

The privacy auditor does not reuse the analysis that motivated the
probability table; per demand set W and server position, it counts how often
sub-block j's columns carry each demand part t ⊆ W (a message bitmask, from
plan.sub_block_masks over W's subset table, _subsets, built once per demand
set), count_j[t], and folds them into integer weights w_i[t] = sum_j
nums[i][j-1] count_j[t] over the table's denominator den: the exact
probability of each support b | t, b an i-subset of the complement.  Privacy
holds iff these distributions are identical (rational equality, not
approximate) across all C(K, D) demand sets.  The reference W_ref is
certified once, by three checks: every part in its rows lies in its own
subset table; its weights pass the size-class certificate c, w_i[t] ==
c[i + |t|] for every i and t ⊆ W_ref; and each of its rows holds D parts.
Another W passes if at every j plan's rows for it are the reference's rows
relabelled by φ: W_ref[p] ↦ W[p] (through W's own subset table).  Then W's
weights are φ of the reference's, w_i[φ(t)] = c[i + |t|]; φ keeps sizes
and maps W_ref's subsets onto W's, so every support S weighs c[|S|] under
both.  Any other W, the reference's rows in another order included, is
compared class by class: a support S weighs w_i[S ∩ W], i = |S ∖ W|, so
both its weights depend only on u = S ∩ (W ∪ W_ref) and r = |S ∖ u|, and
only a class whose two weights differ is expanded into its supports.

The coefficient-level audit replays the shipped code instead of modelling
it: a ReplayRng branches each randrange(n) over its n values and each
shuffle over all N! orders, and plan.sample_row, then protocol.draw_queries
(the round's own stages) on each drawn row's plan.row_layout, run once per
choice sequence.  Only gf's full-rank retry does not run verbatim: the
shipped builder hands its attempt (a D x D block drawn on the row's
positions, then the inversion that accepts it, or None) to its rng's
redraw_until when the rng has one, and a ReplayRng's calls it once.
Attempts are i.i.d., so the retry's value is uniform over one attempt's
accepted values; the replay drops rejected leaves and scales each prefix's
accepted ones up to the prefix's weight.
"""
from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from typing import Callable, Hashable, Iterable

from . import gf, plan
from .params import Params, lj_mj
from .prob import ProbTable, build_prob_table, expected_download_factor, table_mass
from .protocol import MessageStore, draw_queries, run_round

SupportDistribution = dict[frozenset[int], Fraction]
_PERTURB_SCALE = 1000  # perturb_prob_table nudges one entry by 1/_PERTURB_SCALE


def _mask(xs: Iterable[int]) -> int:
    """The message bitmask of a set of indices, bit x-1 for message x."""
    return sum(1 << (x - 1) for x in xs)


def _subsets(w: tuple[int, ...]) -> list[int]:
    """The subset table of sorted w: its 2^D subsets as message bitmasks,
    entry s the mask of {w[p] : bit p of s}, so entry -1 is w's own."""
    table = [0]
    for bit in [1 << (x - 1) for x in w]:
        table += [t | bit for t in table]
    return table


def _sub_block_rows(params: Params, table: list[int]) -> list[tuple[tuple[int, ...], ...]]:
    """plan.sub_block_masks' rows for each sub-block j, over one subset table."""
    return [plan.sub_block_masks(params, table, j) for j in range(1, params.D + 1)]


def _demand_counts(by_j: list[tuple[tuple[int, ...], ...]], permute: bool):
    """counts[j-1][n]: a Counter, by bitmask, of the demand parts that
    sub-block j's columns carry to server position n: 0 in column 1 and the
    row's part h in column 1+h, all at one position under the permutation.
    The rows are _sub_block_rows'."""
    counts = []
    for rows in by_j:
        empty = (0,) * len(rows)  # column 1, row by row
        columns = [chain(empty, *rows)] if permute else [empty, *zip(*rows)]
        counts.append(list(map(Counter, columns)))
    return counts


def _support_weights(
    nums: tuple[tuple[int, ...], ...], counts: list[list[Counter]]
) -> list[list[dict[int, int]]]:
    """Per server position n and sub-table i, the weight w_i[t] of each demand
    part t, as weights[n][i][t].

    Row (i, k, j, l) weighs nums[i][j-1], so w_i[t] = sum_j nums[i][j-1]
    count_j[t] is the probability, times the scale, of each support b | t
    with b an i-subset of the complement.  A t of weight 0 has no entry.
    """
    weights: list[list[dict]] = [[{} for _ in nums] for _ in counts[0]]
    for n, by_i in enumerate(weights):
        for row, weight in zip(nums, by_i):
            for num, count in zip(row, counts):
                if num:
                    for t, c in count[n].items():
                        weight[t] = weight.get(t, 0) + num * c
    return weights


def _size_classes(table: list[int], weights: list[dict]) -> tuple[int, ...] | None:
    """The size-class certificate of one demand set at one server position:
    the c with w_i[t] == c[i + |t|] for every sub-table i and every subset t
    in the demand set's subset table (|t| the popcount of t's position
    index), a t without weight counting as 0, else None."""
    c: dict[int, int] = {}
    for i, weight in enumerate(weights):
        for s, t in enumerate(table):
            v = weight.get(t, 0)
            if c.setdefault(i + s.bit_count(), v) != v:
                return None
    return tuple(c[size] for size in range(len(c)))


def _differences(
    w_ref: tuple[int, ...], w: tuple[int, ...], rest: tuple[int, ...], ref_w: list, cur_w: list
) -> tuple[list[tuple], int]:
    """The (support, ref weight, cur weight) entries where two demand sets'
    weights at one position differ, smaller supports first and ties by their
    sorted indices, and the sum of |ref - cur| over all supports.  rest is
    the complement of W ∪ W_ref; class (u, r), u ⊆ W ∪ W_ref, holds one
    support u ∪ c per r-subset c of rest, each weighing w_{|u ∖ W| + r}[u ∩ W]
    under W, and likewise under W_ref."""
    diffs = []
    abs_sum = 0
    ref_mask, cur_mask = _mask(w_ref), _mask(w)
    union = sorted(set(w_ref) | set(w))
    for u in chain.from_iterable(combinations(union, size) for size in range(len(union) + 1)):
        u_mask = _mask(u)
        t_ref, t = u_mask & ref_mask, u_mask & cur_mask
        for r in range(len(rest) + 1):
            a = ref_w[len(u) - t_ref.bit_count() + r].get(t_ref, 0)
            b = cur_w[len(u) - t.bit_count() + r].get(t, 0)
            if a != b:
                abs_sum += math.comb(len(rest), r) * abs(a - b)
                diffs.extend((frozenset(u + c), a, b) for c in combinations(rest, r))
    diffs.sort(key=lambda d: (len(d[0]), sorted(d[0])))
    return diffs, abs_sum


def support_distribution(
    params: Params,
    prob: ProbTable,
    W: Iterable[int],
    server_n: int,
    permute: bool = True,
) -> SupportDistribution:
    """Exact distribution of the query support seen by one server position.

    Rows are weighted by their selection probability and summed per
    (sub-table i, demand part t) into _support_weights' w_i[t]; each support
    b | t, b an i-subset of the complement, weighs w_i[t].
    With permute=True each of a row's N columns reaches server n with
    probability 1/N (the uniform-permutation marginal); permute=False models
    a broken client that always sends column n to server n, which is what
    the permutation-skip mutation check exercises.
    """
    w = plan.demand(params, W)
    if not 1 <= server_n <= params.N:
        raise ValueError(f"server position must be in [1, {params.N}]")
    scale = params.N * prob.den if permute else prob.den
    counts = _demand_counts(_sub_block_rows(params, _subsets(w)), permute)
    weights = _support_weights(prob.nums, counts)[0 if permute else server_n - 1]
    parts = {t: frozenset(x for x in w if t >> (x - 1) & 1) for weight in weights for t in weight}
    return {frozenset(b) | parts[t]: Fraction(v, scale) for i, weight in enumerate(weights)
            for b in combinations(w.rest, i) for t, v in weight.items()}


@dataclass(frozen=True)
class PrivacyViolation:
    W_ref: tuple[int, ...]
    W: tuple[int, ...]
    server_n: int
    support: frozenset[int]
    p_ref: Fraction
    p: Fraction


@dataclass(frozen=True)
class PrivacyReport:
    params: Params
    passed: bool
    max_tv_distance: Fraction
    demands_checked: int
    violations: tuple[PrivacyViolation, ...]


def privacy_check(
    params: Params, prob: ProbTable | None = None, permute: bool = True
) -> PrivacyReport:
    """Compare the support distribution across all demand sets, exactly.

    Reports the maximum total-variation distance between any demand set's
    distribution and the reference (first) demand set, per server position.
    A correct construction yields distance exactly 0; any nonzero entry is
    returned as a violation.  Distributions are compared as integer weights
    over one common scale, which is exact equality of the probabilities.
    Violations are ordered by demand set, then server position, then support
    (smaller supports first, ties by their sorted indices).

    A demand set passes when plan's rows for it are the reference's rows
    relabelled by φ: W_ref[p] ↦ W[p], and the reference passes its three
    checks: its parts lie in W_ref's subset table, its weights pass the
    size-class certificate c, and its rows hold D parts each.  W's weights
    are then φ of the reference's, so every support S weighs c[|S|] under
    both, as the module docstring sets out.  Any other demand set, or every
    one if the reference fails a check, is compared by support class
    (_differences).
    """
    if prob is None:
        prob = build_prob_table(params)
    scale = params.N * prob.den if permute else prob.den
    demands = [tuple(c) for c in combinations(range(1, params.K + 1), params.D)]

    w_ref = demands[0]
    ref_table = _subsets(w_ref)
    ref_rows = _sub_block_rows(params, ref_table)
    reference = _support_weights(prob.nums, _demand_counts(ref_rows, permute))
    inverse = {t: s for s, t in enumerate(ref_table)}  # message mask -> position mask
    in_table = all(len(row) == params.D and inverse.keys() >= set(row)
                   for row in chain.from_iterable(ref_rows))
    rows_in = None  # W's subset table -> the reference's rows relabelled by φ
    if in_table and None not in [_size_classes(ref_table, weights) for weights in reference]:
        ps = [[inverse[t] for row in rows for t in row] for rows in ref_rows]
        rows_in = lambda own: [tuple(zip(*[map(own.__getitem__, p)] * params.D)) for p in ps]
    fraction = cache(lambda v: Fraction(v, scale))
    max_abs_sum = 0
    violations: list[PrivacyViolation] = []
    for w in demands[1:]:
        table = _subsets(w)
        by_j = _sub_block_rows(params, table)
        if rows_in and by_j == rows_in(table):
            continue
        counts = _demand_counts(by_j, permute)
        rest = plan.complement(params, w_ref + w)
        compared = [
            _differences(w_ref, w, rest, ref_w, cur_w)
            for ref_w, cur_w in zip(reference, _support_weights(prob.nums, counts))
        ]
        # Under the uniform permutation every server position sees the same
        # distribution, so one comparison per demand stands for all N positions.
        for n, (diffs, abs_sum) in enumerate(compared * (params.N // len(compared)), start=1):
            violations.extend(
                PrivacyViolation(
                    W_ref=w_ref,
                    W=w,
                    server_n=n,
                    support=sup,
                    p_ref=fraction(v_ref),
                    p=fraction(v),
                )
                for sup, v_ref, v in diffs
            )
            max_abs_sum = max(max_abs_sum, abs_sum)
    return PrivacyReport(
        params=params,
        passed=not violations,
        max_tv_distance=Fraction(max_abs_sum, 2 * scale),
        demands_checked=len(demands),
        violations=tuple(violations),
    )


def perturb_prob_table(prob: ProbTable, i: int, j: int) -> ProbTable:
    """A deliberately broken table: P[i][j] nudged by 1/1000, then mass
    renormalized, in integers: 1000 nums, den added to P[i][j], over their
    table_mass.

    The result intentionally bypasses build_prob_table's [0, 1] range check,
    though ProbTable still checks its exact mass; it exists so tests and the
    CLI can confirm the privacy auditor actually detects broken probability
    assignments.  Raises ValueError unless 0 <= i <= K-D and 1 <= j <= D.
    """
    if not (0 <= i < len(prob.nums) and 1 <= j <= len(prob.nums[0])):
        raise ValueError(f"no entry P[{i}][{j}]: need 0 <= i <= {len(prob.nums) - 1}, "
                         f"1 <= j <= {len(prob.nums[0])}")
    rows = [[_PERTURB_SCALE * n for n in row] for row in prob.nums]
    rows[i][j - 1] += prob.den
    return ProbTable(table_mass(rows), rows, prob.j_star)


@dataclass(frozen=True)
class CoefficientPrivacyReport:
    params: Params
    passed: bool
    max_tv_distance: Fraction
    demands_checked: int


# The most leaves (row targets plus query-builder choice sequences) that the
# coefficient-level replay walks per demand set.
MAX_REPLAY_LEAVES = 1_000_000
_ACCEPTED = object()  # tally key counting a replay's accepted leaves


class _Rejected(Exception):
    """A replayed full-rank attempt that the shipped retry would redraw."""


class ReplayRng:
    """An rng that follows the choice sequence path ([choice, fan-out] per
    draw) and extends it with first choices.  randrange(n) chooses among n
    values and shuffle makes random.shuffle's Fisher-Yates pass (a choice
    among i+1 at position i); any other method raises."""

    def __init__(self, path: list[list[int]]) -> None:
        self.path = path
        self.depth = 0  # draws made so far
        self.den = 1  # product of their fan-outs
        self.prefix: tuple | None = None  # (choices, den) as the full-rank attempt began

    def _choose(self, n: int) -> int:
        if self.depth == len(self.path):
            self.path.append([0, n])
        choice, fan_out = self.path[self.depth]
        if fan_out != n:
            raise RuntimeError("the replayed code drew differently on the same choices")
        self.depth += 1
        self.den *= n
        return choice

    def randrange(self, start: int, stop: int | None = None) -> int:
        values = range(start) if stop is None else range(start, stop)
        return values[self._choose(len(values))]

    def shuffle(self, x: list) -> None:
        for i in reversed(range(1, len(x))):
            j = self._choose(i + 1)
            x[i], x[j] = x[j], x[i]

    def redraw_until(self, attempt: Callable[[], gf.FullRankDraw | None]) -> gf.FullRankDraw:
        """gf's full-rank retry as one attempt: records the choices made so
        far, the prefix _replay rescales, and raises _Rejected when the
        attempt returns None."""
        if self.prefix is not None:
            raise RuntimeError("the replay rescales one full-rank retry per run")
        self.prefix = tuple(c for c, _ in self.path[: self.depth]), self.den
        if (value := attempt()) is None:
            raise _Rejected
        return value

    def __getattr__(self, name: str):
        raise AttributeError(f"the replay branches on randrange and shuffle only, not {name}")


def _replay(run: Callable[[ReplayRng], Iterable[Hashable]]) -> dict[Hashable, Fraction]:
    """The exact probability of each key that run(rng) yields, with run called
    once per choice sequence, depth-first; a leaf weighs one over its
    fan-outs' product, rescaled per full-rank prefix."""
    path: list[list[int]] = []
    tallies: dict[tuple | None, Counter] = defaultdict(Counter)  # prefix -> (den, key) -> leaves
    while True:
        rng = ReplayRng(path)
        try:
            keys = [_ACCEPTED, *run(rng)]
        except _Rejected:
            keys = []
        tally = tallies[rng.prefix]
        for key in keys:
            tally[rng.den, key] += 1
        while path and path[-1][0] + 1 == path[-1][1]:
            path.pop()
        if not path:
            break
        path[-1][0] += 1
    dist: dict[Hashable, Fraction] = defaultdict(Fraction)
    for prefix, tally in tallies.items():
        kept = sum(Fraction(n, den) for (den, key), n in tally.items() if key is _ACCEPTED)
        if not kept:
            raise RuntimeError(f"no full-rank draw after the choices {prefix[0]}")
        scale = 1 if prefix is None else Fraction(1, prefix[1]) / kept
        for (den, key), n in tally.items():
            if key is not _ACCEPTED:
                dist[key] += Fraction(n, den) * scale
    return dict(dist)


def row_distribution(
    params: Params, prob: ProbTable, W: Iterable[int]
) -> dict[plan.RowId, Fraction]:
    """Exact distribution of the row that plan.sample_row draws, by replay."""
    w = plan.demand(params, W)
    if prob.den > MAX_REPLAY_LEAVES:
        raise ValueError("instance too large for exact row enumeration")
    return _replay(lambda rng: [plan.sample_row(params, prob, w, rng)])


def coefficient_distributions(
    params: Params, prob: ProbTable, W: Iterable[int]
) -> list[dict[gf.FieldVector, Fraction]]:
    """Per server position, the exact distribution of its full coefficient
    vector, by replay: plan.sample_row, then protocol.draw_queries' stages
    on each row's plan.row_layout.  Exponential in the supports, so for
    desk-scale instances only."""
    w = plan.demand(params, W)
    l, _ = lj_mj(params.D)
    # Sum_i C(K-D, i) (q-1)^i = q^(K-D): rows times U choices, over every i.
    leaves = params.q ** (params.K - params.D) * math.factorial(params.N) * sum(
        l_j * (params.q - 1) ** (j * params.D) for j, l_j in enumerate(l, start=1)
    )
    if prob.den + leaves > MAX_REPLAY_LEAVES:
        raise ValueError("instance too large for exact coefficient enumeration")
    dists: list[dict] = [defaultdict(Fraction) for _ in range(params.N)]
    for row, p_row in row_distribution(params, prob, w).items():
        R, positions = plan.row_layout(params, w, row)
        replayed = _replay(
            lambda rng: enumerate(draw_queries(params, w, row, R, positions, rng).queries))
        for (n, query), p in replayed.items():
            dists[n][query] += p_row * p
    return [dict(d) for d in dists]


def coefficient_privacy_check(
    params: Params, prob: ProbTable | None = None
) -> CoefficientPrivacyReport:
    """Compare the exact coefficient-vector distribution across demand sets.

    A strictly stronger check than the support-level one: it accounts for the
    full-rank conditioning of the demand vectors, which the support argument
    abstracts away, and for the permutation the client actually draws.
    """
    if prob is None:
        prob = build_prob_table(params)
    demands = list(combinations(range(1, params.K + 1), params.D))
    ref, *rest = (coefficient_distributions(params, prob, w) for w in demands)
    max_abs_sum = max(
        (sum(abs(a.get(v, 0) - b.get(v, 0)) for v in a.keys() | b.keys())
         for cur in rest for a, b in zip(ref, cur)),
        default=Fraction(0),
    )
    return CoefficientPrivacyReport(
        params=params,
        passed=max_abs_sum == 0,
        max_tv_distance=Fraction(max_abs_sum) / 2,
        demands_checked=len(demands),
    )


@dataclass(frozen=True)
class EvennessFinding:
    j: int
    even: bool  # the shipped table's sub-block j is even
    lex_first_even: bool


@dataclass(frozen=True)
class EvennessReport:
    D: int
    passed: bool
    multiplicities: tuple[int, ...]
    findings: tuple[EvennessFinding, ...]


def evenness_check(D: int) -> EvennessReport:
    """Verify, for every sub-block size j, the table of shifted position
    masks that every round and audit maps (plan._position_masks): each
    j-subset of the D positions appears exactly m_j times.  Each j gets its
    own verdict, and the report passes iff every j is even.

    Also records, per j, whether the naive lexicographically-first choice of
    l_j subsets would have satisfied evenness; those data points are genuine
    findings (the property does not hold for arbitrary choices).
    """
    if not isinstance(D, int) or D < 2:
        raise ValueError(f"D must be an integer > 1, got {D!r}")
    findings = tuple(EvennessFinding(j, plan.masks_even(plan._position_masks(D, j), D, j),
                                     plan.lex_first_positions_even(D, j)) for j in range(1, D + 1))
    return EvennessReport(D, all(f.even for f in findings), lj_mj(D)[1], findings)


@dataclass(frozen=True)
class RecoverabilityReport:
    params: Params
    trials: int
    successes: int
    mean_answering: Fraction
    expected_answering: Fraction
    std_error: float
    within_3_sigma: bool

    @property
    def passed(self) -> bool:
        return self.successes == self.trials


def recoverability_check(
    params: Params, trials: int, rng: random.Random, store: MessageStore | None = None
) -> RecoverabilityReport:
    """Run full rounds against random demands, each against a fresh random
    store unless one store is given.

    Every round must recover the demand exactly; the report also compares the
    empirical number of answering servers against its exact expectation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prob = build_prob_table(params)
    expected = expected_download_factor(params, prob)
    silent_p = params.N - expected  # probability that a round has a silent server
    successes = 0
    answering_total = 0
    for _ in range(trials):
        trial_store = store or MessageStore.random(params, rng)
        w = tuple(sorted(rng.sample(range(1, params.K + 1), params.D)))
        transcript = run_round(params, prob, w, trial_store, rng)
        truth = tuple(trial_store.messages[x - 1] for x in w)
        if transcript.recovered == truth:
            successes += 1
        answering_total += transcript.download_elements // params.m
    mean = Fraction(answering_total, trials)
    std_error = math.sqrt(float(silent_p * (1 - silent_p)) / trials)
    within = abs(float(mean - expected)) <= 3 * std_error
    return RecoverabilityReport(
        params=params,
        trials=trials,
        successes=successes,
        mean_answering=mean,
        expected_answering=expected,
        std_error=std_error,
        within_3_sigma=within,
    )
