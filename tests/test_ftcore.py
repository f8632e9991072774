"""Fault-tolerant core tests: MSR pipeline, filters, guarded conditions.

Test matrices are written as rows, rows[p][i] about plane p from terminal
i; by_relay turns them into the relay vectors ftcore reads.  The
window-condition oracles read the rows and enumerate every row subset and
every entry-anchored window, which is the exact semantics of the checkers.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesync.errors import FaultBudgetError
from planesync.ftcore import (
    accuracy_check,
    check_stb,
    check_weak,
    filters,
    fta,
    fta_values,
    hw_accuracy_threshold,
    rft,
)
from planesync.params import SystemParams, TTSchedule, resolve
from planesync.ring import circ_sort, ring_dist, ring_med, wrap_add, wrap_sub

SCHED = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34), c_recv=(38, 48))


def make_rp(**over):
    base = dict(
        n0=4, n1=3, f0=1, f1=1,
        tau_max=4096, T_H=Fraction(1), rho=Fraction(1, 100),
        d_max=Fraction(2), T0=100, a0=3,
    )
    base.update(over)
    return resolve(SystemParams(**base), SCHED)


def by_relay(rows):
    """The relay vectors of a matrix written as rows: terminal i's vector
    holds rows[p][i] for each plane p."""
    return [list(vec) for vec in zip(*rows)]


class TestMsr:
    def test_reduce_examples(self):
        # f = 1 trims one value from each end of the circular order and
        # keeps the rest; f = 0 keeps every value.
        assert fta_values([10, 10, 10, 100], 1, 1000) == 10     # kept 10, 10
        assert fta_values([10, 10, 10, 100], 0, 1000) == 32
        assert fta_values([5, 5, 5], 0, 1000) == 5
        assert fta_values([995, 3, 7, 999], 1, 1000) == 1       # kept 999, 3

    def test_reduce_budget(self):
        with pytest.raises(FaultBudgetError):
            fta_values([1, 2], 1, 100)

    def test_select_examples(self):
        # f = 2 keeps positions 0, 2, 4, ... of the trimmed values.
        assert fta_values([20, 0, 10, 2, 0, 4, 1, 20, 3], 2, 1000) == 5   # kept 1, 3, 10
        assert fta_values([7, 0, 0, 0, 99, 99, 99], 3, 1000) == 7         # kept 7
        # The selected 0 and 60 are ordered 60, 0 on a ring of 100.
        assert fta_values([0, 0, 0, 30, 60, 60, 60], 2, 100) == 80


class TestFta:
    def test_constant_matrix(self):
        rp = make_rp()
        assert fta(by_relay([[7] * 4] * 3), rp) == 7

    def test_column_median_pipeline(self):
        rp = make_rp(tau_max=4096)
        # Columns engineered to yield medians [10, 10, 10, 100].
        C = by_relay([
            [10, 10, 10, 100],
            [10, 10, 10, 100],
            [500, 600, 700, 800],
        ])
        assert fta(C, rp) == 10

    def test_wraparound_mean(self):
        rp = make_rp(tau_max=1000, T0=60, eps1=30, eps2=60)
        C = by_relay([
            [995, 999, 3, 7],
            [995, 999, 3, 7],
            [995, 999, 3, 7],
        ])
        assert fta(C, rp) == 1

    def test_column_exclusion_and_insufficient_data(self):
        rp = make_rp()
        C = by_relay([
            [10, None, None, None],
            [10, None, None, None],
            [10, None, None, None],
        ])
        assert fta(C, rp) is None

    def test_validity_in_nonfaulty_hull(self):
        # Output stays inside the smallest arc spanned by nonfaulty column medians.
        rng = random.Random(5)
        rp = make_rp(tau_max=1024)
        for _ in range(400):
            base = rng.randrange(1024)
            good_cols = sorted(rng.sample(range(4), 3))
            bad_col = next(i for i in range(4) if i not in good_cols)
            C = [[None] * 4 for _ in range(3)]
            for i in good_cols:
                v = (base + rng.randrange(40)) % 1024
                for p in range(3):
                    C[p][i] = (v + rng.randrange(3)) % 1024
            for p in range(3):
                C[p][bad_col] = rng.randrange(1024)
            meds = [ring_med([C[p][i] for p in range(3)], 1024) for i in good_cols]
            out = fta(by_relay(C), rp)
            arc = circ_sort(meds, 1024)
            span = wrap_sub(arc[-1], arc[0], 1024)
            assert wrap_sub(out, arc[0], 1024) <= span

    def test_contraction_small_instances(self):
        # Agreement on >= n0-f0 coordinates contracts by the derived base c0.
        rng = random.Random(9)
        tau = 64
        for n0 in (4, 5, 6):
            rp = make_rp(n0=n0, tau_max=4096)
            c0 = rp.dv.c0
            for _ in range(2000):
                base = rng.randrange(tau)
                common = [(base + rng.randrange(16)) % tau for _ in range(n0 - 1)]
                arc = circ_sort(common, tau)
                delta = wrap_sub(arc[-1], arc[0], tau)
                u = common + [rng.randrange(tau)]
                v = common + [rng.randrange(tau)]
                d = ring_dist(fta_values(u, 1, tau), fta_values(v, 1, tau), tau)
                assert d <= -(-delta // c0), (u, v, delta, d)


class TestCircMean:
    def test_round_half_toward_arc_start(self):
        # Offsets [0, 1] from start 10: mean 0.5 rounds to 0.
        assert fta_values([10, 11], 0, 100) == 10
        assert fta_values([999, 3], 0, 1000) == 1

    def test_matches_fraction_formula(self):
        # Oracle, with f = 0: the offsets from the circ_sort arc's start,
        # their exact rational mean, rounded half toward the arc start.
        rng = random.Random(11)
        for _ in range(5000):
            tau = rng.choice([2, 3, 100, 1000, 4096])
            spread = rng.choice([2, 16, tau])
            base = rng.randrange(tau)
            vals = [(base + rng.randrange(spread)) % tau for _ in range(rng.randrange(1, 13))]
            ordered = circ_sort(vals, tau)
            offsets = [wrap_sub(v, ordered[0], tau) for v in ordered]
            mean = Fraction(sum(offsets), len(offsets))
            want = (ordered[0] + math.ceil(mean - Fraction(1, 2))) % tau
            assert fta_values(vals, 0, tau) == want, vals


class TestRft:
    def test_degenerate_branch(self):
        rp = make_rp()
        rng = random.Random(1)
        C = by_relay([[7] * 4] * 3)
        for _ in range(50):
            assert rft(C, 123, Fraction(1), rng, rp) == 7

    def test_all_candidates_equal(self):
        rp = make_rp()
        rng = random.Random(2)
        C = by_relay([[9] * 4] * 3)
        assert rft(C, 9, Fraction(0), rng, rp) == 9

    def test_uniform_candidate_frequencies(self):
        rp = make_rp(tau_max=4096)
        rng = random.Random(3)
        C = by_relay([[10] * 4, [20] * 4, [30] * 4])
        n = 100_000
        counts = {10: 0, 20: 0, 30: 0, 40: 0}
        for _ in range(n):
            counts[rft(C, 40, Fraction(0), rng, rp)] += 1
        # 3-sigma band around n/4 for a fair four-way choice.
        sigma = (n * 0.25 * 0.75) ** 0.5
        for c in counts.values():
            assert abs(c - n / 4) <= 3 * sigma

    def test_branch_frequency(self):
        rp = make_rp()
        rng = random.Random(4)
        # Averaged output is 303, distinct from every candidate
        # (row medians 102, 302, 502 and previous value 700).
        C = by_relay([
            [100, 102, 104, 106],
            [300, 302, 304, 306],
            [500, 502, 504, 506],
        ])
        avg = fta(C, rp)
        assert avg not in (102, 302, 502, 700)
        n = 400_000
        taken = sum(1 for _ in range(n) if rft(C, 700, Fraction(4, 5), rng, rp) == avg)
        assert abs(taken / n - 0.8) <= 0.004


class TestAccuracy:
    def test_zero_deviation(self):
        rp = make_rp()
        tau, T = rp.tau_max, rp.T
        m0, h0 = 100, 200
        assert accuracy_check((m0 + T) % tau, m0, (h0 + T) % tau, h0, rp)

    def test_first_conjunct_boundary(self):
        rp = make_rp()
        tau, T = rp.tau_max, rp.T
        m0, h0 = 100, 200
        m_bad = (m0 + T + 2 * rp.eps0 + 1) % tau
        assert not accuracy_check(m_bad, m0, (h0 + T) % tau, h0, rp)

    def test_hardware_threshold_exact_rational(self):
        rp = make_rp(eps0=10, eps1=40, eps2=80, T0=920, d_max=Fraction(99, 20), tau_max=8192)
        # eps0=10, rho=1/100, T=1000, d_max_ticks=5 -> ceil(45/0.9801) = 46.
        assert rp.T == 1000 and rp.d_max_ticks == 5
        assert hw_accuracy_threshold(rp) == 46
        tau, T = rp.tau_max, rp.T
        h0 = 50
        assert accuracy_check((100 + T) % tau, 100, (h0 + T + 46) % tau, h0, rp)
        assert not accuracy_check((100 + T) % tau, 100, (h0 + T + 47) % tau, h0, rp)

    @pytest.mark.parametrize("over", [
        {},
        dict(rho=Fraction(1, 1000), T0=74),
        dict(rho=Fraction(0), T0=60, eps0=5),
        dict(rho=Fraction(1, 20), T0=200, eps0=7),
        dict(rho=Fraction(3, 1000), T0=333, eps0=17, d_max=Fraction(7, 3)),
        dict(eps0=10, eps1=40, eps2=80, T0=920, d_max=Fraction(99, 20), tau_max=8192),
    ])
    def test_hardware_threshold_matches_fraction_formula(self, over):
        rp = make_rp(**over)
        rho = rp.rho
        want = math.ceil(Fraction(2 * rp.eps0 + 2 * rho * rp.T + rp.d_max_ticks)
                         / (1 - rho) ** 2)
        assert hw_accuracy_threshold(rp) == rp.dv.hw_acc_bound == want


class TestFilters:
    def test_accuracy_filter_rows(self):
        rp = make_rp()
        A = by_relay([[3, 3, 3, 0], [3, 3, 0, 0], [0, 0, 0, 0]])
        M = by_relay([[50, 50, 50, 51]] * 3)
        assert filters(M, A, rp) == {0}

    def test_majority_filter_rows(self):
        rp = make_rp()
        A = by_relay([[3] * 4] * 3)
        M = by_relay([
            [50, 50, 50, 51],
            [50, 50, 51, 51],
            [None, None, None, None],
        ])
        assert filters(M, A, rp) == {0}


def brute_stb(C, p_acma, rp):
    tau = rp.tau_max
    for k in range(rp.n1 - rp.f1, len(p_acma) + 1):
        for rows in combinations(sorted(p_acma), k):
            anchors = {C[p][i] for p in rows for i in range(rp.n0)
                       if C[p][i] is not None}
            for v in anchors:
                cols = 0
                for i in range(rp.n0):
                    if all(C[p][i] is not None
                           and wrap_sub(C[p][i], v, tau) <= rp.eps1 for p in rows):
                        cols += 1
                if cols >= rp.n0 - rp.f0:
                    return True
    return False


def brute_weak(C, rp):
    tau = rp.tau_max
    half = rp.eps2 // 2
    qualifying = set()
    for k in range(rp.n1 - rp.f1, rp.n1 + 1):
        for rows in combinations(range(rp.n1), k):
            anchors = {C[p][i] for p in rows for i in range(rp.n0)
                       if C[p][i] is not None}
            for v in anchors:
                cols = 0
                for i in range(rp.n0):
                    if all(C[p][i] is not None
                           and wrap_sub(C[p][i], v, tau) <= 2 * half for p in rows):
                        cols += 1
                if cols >= rp.n0 - 2 * rp.f0:
                    qualifying.add(v)
    if not qualifying:
        return None
    return wrap_add(circ_sort(qualifying, tau)[0], half, tau)


class TestConditions:
    def test_stb_all_equal(self):
        rp = make_rp()
        C = by_relay([[7] * 4] * 3)
        assert check_stb(C, {0, 1, 2}, rp)

    def test_stb_two_rows_cluster(self):
        rp = make_rp(eps1=20, eps2=40)
        C = by_relay([
            [100, 105, 95, None],
            [102, 98, 103, None],
            [900, 900, 900, 900],
        ])
        assert check_stb(C, {0, 1}, rp)

    def test_stb_rows_too_far(self):
        rp = make_rp(eps1=20, eps2=40)
        C = by_relay([
            [100, 100, 100, 100],
            [150, 150, 150, 150],
            [900, 900, 900, 900],
        ])
        assert not check_stb(C, {0, 1}, rp)

    def test_weak_all_equal(self):
        rp = make_rp()
        C = by_relay([[7] * 4] * 3)
        assert check_weak(C, rp) is not None
        assert ring_dist(check_weak(C, rp), 7, rp.tau_max) <= rp.eps2 // 2

    def test_weak_two_by_two_cluster(self):
        rp = make_rp(eps1=20, eps2=40, tau_max=4096)
        C = by_relay([
            [100, 100, 300, 500],
            [100, 100, 700, 900],
            [1300, 1500, 1700, 1900],
        ])
        w = check_weak(C, rp)
        assert w is not None
        assert ring_dist(w, 100, rp.tau_max) <= rp.eps2 // 2

    def test_weak_all_scattered(self):
        rp = make_rp(eps1=20, eps2=40, tau_max=4096)
        C = by_relay([
            [0, 500, 1000, 1500],
            [2000, 2500, 3000, 3500],
            [250, 750, 1250, 1750],
        ])
        assert check_weak(C, rp) is None

    def test_stb_monotone_in_eps1_and_rows(self):
        rng = random.Random(21)
        for _ in range(300):
            rp_small = make_rp(eps1=15, eps2=60, tau_max=4096)
            rp_big = make_rp(eps1=45, eps2=90, tau_max=4096)
            C = by_relay([[rng.randrange(200) if rng.random() < 0.9 else None
                           for _ in range(4)] for _ in range(3)])
            small_rows = {0, 1}
            if check_stb(C, small_rows, rp_small):
                assert check_stb(C, small_rows, rp_big)
                assert check_stb(C, {0, 1, 2}, rp_small)

    def test_weak_covers_stb(self):
        rng = random.Random(22)
        rp = make_rp(eps1=20, eps2=40, tau_max=4096)
        for _ in range(300):
            C = by_relay([[rng.randrange(150) if rng.random() < 0.9 else None
                           for _ in range(4)] for _ in range(3)])
            if check_stb(C, {0, 1, 2}, rp):
                assert check_weak(C, rp) is not None

    @pytest.mark.parametrize("n0", [4, 7])
    def test_against_brute_force(self, n0):
        rng = random.Random(23 + n0)
        rp = make_rp(n0=n0, eps1=25, eps2=50, tau_max=4096)
        for _ in range(1500):
            C = [[rng.randrange(120) if rng.random() < 0.85 else None
                 for _ in range(n0)] for _ in range(3)]
            acma = frozenset(p for p in range(3) if rng.random() < 0.7)
            assert check_stb(by_relay(C), acma, rp) == brute_stb(C, acma, rp)
            assert check_weak(by_relay(C), rp) == brute_weak(C, rp)


@st.composite
def _round_relays(draw):
    """A round's relays as (c_vec, a_vec, m_vec) triples, at most one per
    terminal: estimates clustered about a center that may sit at the ring
    wrap, counters mostly at a0 and records mostly on the center, with about
    one entry in five missing or faulty."""
    n0 = draw(st.sampled_from([4, 7]))
    rp = make_rp(n0=n0, eps1=25, eps2=50, tau_max=4096)
    tau = rp.tau_max
    center = draw(st.sampled_from([0, 2, tau - 3]) | st.integers(0, tau - 1))
    spread = draw(st.sampled_from([2, rp.eps1 // 2, rp.eps1 + 5]))
    odd = st.none() | st.integers(0, tau - 1)

    def mostly(typical, odd=odd):   # four entries in five typical
        vec = st.integers(0, 4).flatmap(lambda k: typical if k else odd)
        return st.tuples(vec, vec, vec)

    estimate = st.integers(-spread, spread).map(lambda d: (center + d) % tau)
    triple = st.tuples(mostly(estimate), mostly(st.just(rp.a0), st.integers(0, rp.a0 - 1)),
                       mostly(st.sampled_from([center, (center + 1) % tau])))
    return rp, draw(st.lists(triple, max_size=n0))


@pytest.mark.same_bytes
@settings(derandomize=True, max_examples=400, deadline=None)
@given(_round_relays(), st.data())
def test_relay_order_does_not_matter(drawn, data):
    """Each decision function reads a multiset of relay vectors: permuting
    the relays, or adding all-None vectors for terminals that sent nothing,
    changes no result and, for rft, not the rng state either."""
    rp, relays = drawn
    shuffled = data.draw(st.permutations(relays))
    for _ in range(rp.n0 - len(relays)):
        at = data.draw(st.integers(0, len(shuffled)))
        shuffled.insert(at, ((None,) * 3,) * 3)
    p_acma = data.draw(st.frozensets(st.integers(0, 2)))
    c_pre, seed = data.draw(st.integers(0, rp.tau_max - 1)), data.draw(st.integers(0, 2**32))
    p0 = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))

    def decide(triples):
        C, A, M = ([t[k] for t in triples] for k in range(3))
        rng = random.Random(seed)
        return (fta(C, rp), filters(M, A, rp), check_stb(C, p_acma, rp), check_weak(C, rp),
                rft(C, c_pre, p0, rng, rp), rng.getstate())

    assert decide(shuffled) == decide(relays)


def _median_filters(M, A, rp):
    """filters as first written: the majority filter counts the records
    equal to the plane's ring median."""
    need, passed = rp.n0 - rp.f0, set()
    for p in range(rp.n1):
        present = [m[p] for m in M if m[p] is not None]
        if sum(a[p] == rp.a0 for a in A) >= need and present \
                and present.count(ring_med(present, rp.tau_max)) >= need:
            passed.add(p)
    return frozenset(passed)


@st.composite
def _record_relays(draw):
    """A round's (a_vec, m_vec) pairs, at most one per terminal, for each
    resilience n0 > 3 f0 up to n0 = 10: each plane's records mostly one
    value and else another or none, both drawn from values at and across
    the ring's wrap, so that majorities, near-majorities and even splits all
    occur; counters mostly at a0."""
    n0, f0 = draw(st.sampled_from([(4, 1), (5, 1), (7, 2), (8, 2), (10, 3)]))
    rp = make_rp(n0=n0, f0=f0)
    tau = rp.tau_max
    value = st.sampled_from([0, 1, 7, tau // 2, tau - 1])
    records = [st.sampled_from([v, v, v, w, None]) for v, w in
               draw(st.lists(st.tuples(value, value), min_size=3, max_size=3))]
    counter = st.sampled_from([rp.a0, rp.a0, rp.a0, 0])
    pair = st.tuples(st.tuples(counter, counter, counter), st.tuples(*records))
    return rp, draw(st.lists(pair, max_size=n0))


def test_majority_filter_needs_no_median():
    seen = set()

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_record_relays())
    def check(drawn):
        rp, pairs = drawn
        A, M = [a for a, _m in pairs], [m for _a, m in pairs]
        passed = filters(M, A, rp)
        assert passed == _median_filters(M, A, rp)
        # Planes whose counters pass, by whether their records pass too.
        seen.update(p in passed for p in range(rp.n1)
                    if sum(a[p] == rp.a0 for a in A) >= rp.n0 - rp.f0)

    check()
    assert seen == {False, True}    # not vacuous
