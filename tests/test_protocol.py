"""Protocol state machine tests for terminal and master switch nodes."""

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planesync.ftcore import (accuracy_check, check_stb, check_weak, fta, fta_values,
                              hw_accuracy_threshold, msr_reduce, msr_select, update_acc_counter)
from planesync.params import SystemParams, TTSchedule, resolve
from planesync.protocol import (
    MesState,
    MwsState,
    RoundSummary,
    TTMessageUp,
    grandmaster_toss,
    mes_on_begin_vc_send,
    mes_on_clock_msg,
    mes_on_end_c_recv,
    mws_on_end_c_send,
    mws_on_end_mc_recv,
    mws_on_sig,
    mws_rearm,
    mws_watchdog_ticks,
    next_sig_tick,
)
from planesync.ring import circ_sort, ring_dist, ring_med, unwrap, wrap_add, wrap_sub

SCHED = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34), c_recv=(38, 48))


def make_rp(**over):
    base = dict(
        n0=4, n1=3, f0=1, f1=1,
        tau_max=4096, T_H=Fraction(1), rho=Fraction(1, 100),
        d_max=Fraction(2), T0=100, a0=3,
    )
    base.update(over)
    return resolve(SystemParams(**base), SCHED)


def full_relays(rp, C_rows, acc=None):
    """Every terminal relays C_rows[p] for plane p, as its estimate and as
    its record, with accuracy counter acc (default a0)."""
    col = tuple(C_rows)
    a_vec = (acc if acc is not None else rp.a0,) * rp.n1
    return {i: TTMessageUp(c_vec=col, a_vec=a_vec, m_vec=col) for i in range(rp.n0)}


class TestMes:
    def test_clock_msg_records(self):
        rp = make_rp()
        st = MesState(n1=3)
        # delta_tt0 = end(c_send) - begin(c_recv) = 34 - 38 = -4 mod tau.
        assert rp.dv.delta_tt0 == (34 - 38) % rp.tau_max
        mes_on_clock_msg(st, 1, 500, 300, rp)
        h = wrap_add(300, rp.dv.delta_tt0, rp.tau_max)
        assert st.m_rec == [None, 500, None]
        assert st.h_rec == [None, h, None]
        assert st.acc == [0, 0, 0]  # first record carries no history to grade

    def test_acc_counter_saturates(self):
        rp = make_rp()
        st = MesState(n1=3)
        tau, T = rp.tau_max, rp.T
        m, h = 100, 200
        mes_on_clock_msg(st, 0, m, wrap_sub(h, rp.dv.delta_tt0, tau), rp)
        for k in range(1, 6):
            m = wrap_add(m, T, tau)
            h = wrap_add(h, T, tau)
            mes_on_clock_msg(st, 0, m, wrap_sub(h, rp.dv.delta_tt0, tau), rp)
            assert st.acc[0] == min(k, rp.a0)

    def test_acc_counter_resets_on_jump(self):
        rp = make_rp()
        st = MesState(n1=3)
        tau, T = rp.tau_max, rp.T
        mes_on_clock_msg(st, 0, 100, 200, rp)
        mes_on_clock_msg(st, 0, wrap_add(100, T, tau), wrap_add(200, T, tau), rp)
        assert st.acc[0] == 1
        mes_on_clock_msg(st, 0, wrap_add(100, 3 * T, tau), wrap_add(200, 2 * T, tau), rp)
        assert st.acc[0] == 0

    def test_vc_send_projection(self):
        rp = make_rp()
        st = MesState(n1=3)
        tau = rp.tau_max
        mes_on_clock_msg(st, 0, 500, 300, rp)
        h_now = 900
        msg = mes_on_begin_vc_send(st, h_now, rp)
        c_tilde = wrap_sub(500, wrap_add(300, rp.dv.delta_tt0, tau), tau)
        want = wrap_add(wrap_add(c_tilde, h_now, tau), rp.dv.delta_tt1, tau)
        assert msg.c_vec[0] == want
        assert msg.c_vec[1] is None and msg.c_vec[2] is None
        assert msg.a_vec == (0, 0, 0)
        assert msg.m_vec == (500, None, None)

    def test_end_c_recv_median_tracking(self):
        # Three planes whose clocks read 100, 102, 104 at the reference
        # instant; the terminal lands exactly on the median's trajectory.
        rp = make_rp()
        st = MesState(n1=3)
        tau = rp.tau_max
        h_now = 1000
        h_ref = wrap_sub(h_now, rp.dv.delta_tt2, tau)
        for p, c in enumerate((100, 102, 104)):
            # Each record was taken 5 + p ticks before h_ref.
            st.h_rec[p] = wrap_sub(h_ref, 5 + p, tau)
            st.m_rec[p] = wrap_sub(c, 5 + p, tau)
        mes_on_end_c_recv(st, h_now, rp)
        # Terminal clock at the reference instant equals the median estimate.
        assert wrap_add(h_ref, st.clock_offset, tau) == 102

    def test_end_c_recv_no_records_is_noop(self):
        rp = make_rp()
        st = MesState(n1=3, clock_offset=7)
        mes_on_end_c_recv(st, 50, rp)
        assert st.clock_offset == 7


class TestMwsTick:
    """The closed forms that schedule SIGs and watchdogs, checked against a
    literal tick walk of the switch (tick_walk, in conftest.py)."""

    def test_sig_at_multiples_of_t(self, tick_walk):
        # Every round completes at once: the walk emits a SIG on each clock
        # multiple of T, on exactly the ticks next_sig_tick names.
        rp = make_rp()
        tau, T = rp.tau_max, rp.T
        off, horizon = 5, 3 * rp.T + rp.sys.T0 + 10
        walked = MwsState(tau_max=tau)
        sigs = []
        for k in range(horizon):
            if tick_walk(walked, (k + off) % tau, k % tau, rp):
                sigs.append(k)
                mws_rearm(walked)
        want = [next_sig_tick(off, 0, tau, T)]
        while (k := next_sig_tick(off, want[-1] + 1, tau, T)) < horizon:
            want.append(k)
        assert len(sigs) >= 3 and sigs == want
        assert all((k + off) % tau % T == 0 for k in sigs)
        # Consecutive SIGs are exactly T apart when every round completes.
        assert all(b - a == T for a, b in zip(sigs, sigs[1:]))

    def test_watchdog_rearms_after_t0(self, tick_walk):
        # A fresh SIG, including one whose round spans the ring wrap: the
        # walk rearms T0 + 1 ticks later, as mws_watchdog_ticks says.
        rp = make_rp()
        tau = rp.tau_max
        for h0 in (0, 17, tau - rp.sys.T0, tau - 1):
            walked = MwsState(tau_max=tau)
            assert tick_walk(walked, 0, h0, rp)  # c == 0 is a multiple of T
            st = MwsState(tau_max=tau)
            mws_on_sig(st, h0, rp)
            assert st.tau_idl == walked.tau_idl and not st.idle
            j = 1
            while not tick_walk(walked, 1, (h0 + j) % tau, rp) and not walked.idle:
                j += 1
            assert j == rp.sys.T0 + 1 == mws_watchdog_ticks(st, h0, rp)

    def test_watchdog_from_any_busy_state(self, tick_walk):
        # Arbitrary busy markers, as a random start leaves them: tau_idl
        # ahead of, behind and across the ring wrap from the reading h.
        rp = make_rp()
        tau, T0 = rp.tau_max, rp.sys.T0
        rng = random.Random(3)
        edges = (0, 1, T0 - 1, T0, T0 + 1, tau - T0 - 1, tau - T0, tau - 1)
        cases = [(a, b) for a in edges for b in edges]
        cases += [(rng.randrange(tau), rng.randrange(tau)) for _ in range(300)]
        for tau_idl, h in cases:
            walked = MwsState(tau_max=tau, tau_idl=tau_idl)
            j = 0
            while not tick_walk(walked, 1, (h + j) % tau, rp) and not walked.idle:
                j += 1
            st = MwsState(tau_max=tau, tau_idl=tau_idl)
            assert mws_watchdog_ticks(st, h, rp) == j, (tau_idl, h)

    def test_no_sig_while_round_pending(self, tick_walk):
        rp = make_rp()
        walked = MwsState(tau_max=rp.tau_max)
        assert tick_walk(walked, 0, 0, rp)
        assert not tick_walk(walked, 0, 0, rp)
        st = MwsState(tau_max=rp.tau_max)
        mws_on_sig(st, 0, rp)
        assert st.tau_idl == walked.tau_idl and not st.idle
        mws_rearm(st)
        assert st.idle


class TestMwsRound:
    def test_stable_branch_uses_average(self):
        rp = make_rp()
        st = MwsState(tau_max=rp.tau_max)
        relays = full_relays(rp, [700, 702, 704])
        s = mws_on_end_mc_recv(st, relays, 50, random.Random(0), rp)
        assert s.c_new == fta([u.c_vec for u in relays.values()], rp)

    def test_unstable_nongrandmaster_randomizes(self):
        rp = make_rp()
        tau = rp.tau_max
        rows = [100, 1100, 2100]  # far apart: stability cannot hold
        seen = set()
        for seed in range(200):
            st = MwsState(tau_max=tau, c_tilde_old=wrap_sub(3100, rp.dv.delta_tt3, tau))
            s = mws_on_end_mc_recv(st, full_relays(rp, rows, acc=0), 0, random.Random(seed), rp)
            seen.add(s.c_new)
        assert {100, 1100, 2100, 3100} <= seen  # all four references reachable
        assert fta([u.c_vec for u in full_relays(rp, rows).values()], rp) in seen

    def test_grandmaster_head_toss_sets_lifetime(self):
        rp = make_rp()
        st = MwsState(tau_max=rp.tau_max)
        # Find a seed whose first draw lands under q0.
        seed = next(s for s in range(10_000) if random.Random(s).random() < float(rp.dv.q0))
        s = mws_on_end_mc_recv(st, full_relays(rp, [700, 702, 704]), 50, random.Random(seed), rp)
        assert s.b_coin == 1
        # Lifetime is granted and then spent for the current round.
        assert st.grand_life == rp.dv.g0 - 1

    def test_grandmaster_lifetime_decrements(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, grand_life=3)
        seed = next(s for s in range(10_000) if random.Random(s).random() >= float(rp.dv.q0))
        s = mws_on_end_mc_recv(st, full_relays(rp, [700, 702, 704]), 50, random.Random(seed), rp)
        assert s.b_coin == 0 and st.grand_life == 2

    def test_grandmaster_unstable_holds_own_clock(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, grand_life=2, clock_offset=321)
        rows = [0, 1300, 2600]  # scattered: no weak window either
        h_now = 77
        seed = next(s for s in range(10_000) if random.Random(s).random() < float(rp.dv.q0))
        s = mws_on_end_mc_recv(st, full_relays(rp, rows, acc=0), h_now, random.Random(seed), rp)
        own = wrap_add(wrap_add(h_now, 321, tau), rp.dv.delta_tt3, tau)
        assert s.c_new == own

    def test_grandmaster_weak_window(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, grand_life=2)
        # Two rows share value 800 in n0-2f0 = 2 columns; third row far off.
        C = [
            [800, 800, 2000, 2400],
            [800, 800, 2800, 3200],
            [1600, 1601, 1602, 1603],
        ]
        # Terminal i relays column i, with no record and a zero counter.
        relays = {i: TTMessageUp(c_vec=tuple(row[i] for row in C),
                                 a_vec=(0, 0, 0), m_vec=(None, None, None))
                  for i in range(4)}
        seed = next(s for s in range(10_000) if random.Random(s).random() < float(rp.dv.q0))
        s = mws_on_end_mc_recv(st, relays, 50, random.Random(seed), rp)
        from planesync.ring import ring_dist
        assert ring_dist(s.c_new, 800, tau) <= rp.eps2 // 2

    # Each branch of the round decision.  C[p][i] is what terminal i relays
    # about plane p (as estimate and as record); only terminals 0..n-1
    # relay.  `draws` picks the seed: it must hold for a fresh Random(seed)
    # in the order the round draws (coin, then the p0 draw, then the pick).
    # want None stands for the switch's own clock.
    @pytest.mark.parametrize("life, C, n, accurate, draws, branch, want", [
        (0, [[700] * 4, [702] * 4, [704] * 4], 4, True,
         lambda r, dv: r.random() >= dv.q0_cut, "avg", 702),
        # Too few columns to average: the switch keeps its own clock.
        (2, [[700] * 4, [702] * 4, [704] * 4], 2, True,
         lambda r, dv: r.random() >= dv.q0_cut, "own", None),
        # Rows 0 and 1 share 800 in n0-2f0 = 2 columns; row 2 is far off.
        # The weak center is 800 + eps2 // 2, and eps2 is 66.
        (2, [[800, 800, 2000, 2400], [800, 800, 2800, 3200], [1600, 1601, 1602, 1603]],
         4, False, lambda r, dv: r.random() < dv.q0_cut, "weak", 833),
        (2, [[0] * 4, [1300] * 4, [2600] * 4], 4, False,
         lambda r, dv: r.random() < dv.q0_cut, "own", None),
        # A hop onto row 1's median.
        (0, [[100] * 4, [1100] * 4, [2100] * 4], 4, False,
         lambda r, dv: r.random() >= dv.q0_cut and r.random() >= dv.p0_cut
         and r.randrange(4) == 1, "rft", 1100),
        # The averaging draw, with too few columns to average.
        (0, [[100] * 4, [1100] * 4, [2100] * 4], 2, False,
         lambda r, dv: r.random() >= dv.q0_cut and r.random() < dv.p0_cut, "own", None),
    ], ids=["avg", "avg_own", "weak", "weak_own", "rft", "rft_own"])
    def test_each_branch(self, life, C, n, accurate, draws, branch, want):
        rp = make_rp()
        tau = rp.tau_max
        h_now, offset = 77, 321
        st = MwsState(tau_max=tau, grand_life=life, clock_offset=offset)
        acc = rp.a0 if accurate else 0
        relays = {i: TTMessageUp(c_vec=tuple(row[i] for row in C),
                                 a_vec=(acc,) * 3, m_vec=tuple(row[i] for row in C))
                  for i in range(n)}
        seed = next(s for s in range(10_000) if draws(random.Random(s), rp.dv))
        s = mws_on_end_mc_recv(st, relays, h_now, random.Random(seed), rp)
        if want is None:
            want = wrap_add(wrap_add(h_now, offset, tau), rp.dv.delta_tt3, tau)
        assert (s.branch, s.c_new) == (branch, want)

    def test_send_and_adjust(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, clock_offset=10, tau_idl=500)
        h_now = 400
        mws_on_end_c_send(st, 1234, h_now, rp)
        assert st.c_tilde_old == 10
        assert st.clock_offset == wrap_sub(1234, h_now, tau)
        assert st.idle


class TestRoundTrip:
    def test_synchronized_round_is_stationary(self):
        """With every plane distributing the same value and zero skew, the
        relayed estimates agree exactly and the averaged result lands on the
        common trajectory shifted by the send-slot offset."""
        rp = make_rp()
        tau = rp.tau_max
        rng = random.Random(99)
        for _ in range(50):
            base = rng.randrange(tau)
            mes = [MesState(n1=3) for _ in range(rp.n0)]
            h_mes = [rng.randrange(tau) for _ in range(rp.n0)]
            for i in range(rp.n0):
                h_recv = wrap_sub(h_mes[i], rp.dv.delta_tt0, tau)
                for p in range(3):
                    mes_on_clock_msg(mes[i], p, base, h_recv, rp)
            ups = [mes_on_begin_vc_send(mes[i], h_mes[i], rp) for i in range(rp.n0)]
            # The sender's hardware clock cancels out of the projection.
            want = wrap_add(base, rp.dv.delta_tt1, tau)
            assert all(u.c_vec[p] == want for u in ups for p in range(3))
            assert all(u.m_vec == (base,) * 3 for u in ups)
            # Counters as after a0 graded records (a first record grades 0).
            relays = {i: replace(u, a_vec=(rp.a0,) * 3) for i, u in enumerate(ups)}
            s = mws_on_end_mc_recv(MwsState(tau_max=tau), relays, 0, random.Random(1), rp)
            assert s.c_new == want


# ---- reference: the dict-based terminal machine --------------------------------
#
# The terminal rules as they stood when MesState kept one dict per field,
# including the derived c_tilde and the previous record.  The list-based
# MesState must send the same messages and set the same offsets.


@dataclass
class RefMesState:
    n1: int
    clock_offset: int = 0
    m_rec: dict = field(default_factory=dict)
    h_rec: dict = field(default_factory=dict)
    c_tilde: dict = field(default_factory=dict)
    prev_m: dict = field(default_factory=dict)
    prev_h: dict = field(default_factory=dict)
    acc: dict = field(default_factory=dict)


def ref_mes_on_clock_msg(state, p, m, h_now, rp):
    tau = rp.tau_max
    had_prev = p in state.m_rec
    if had_prev:
        state.prev_m[p] = state.m_rec[p]
        state.prev_h[p] = state.h_rec[p]
    h = wrap_add(h_now, rp.dv.delta_tt0, tau)
    state.m_rec[p] = m
    state.h_rec[p] = h
    state.c_tilde[p] = wrap_sub(m, h, tau)
    if had_prev:
        ok = accuracy_check(m, state.prev_m[p], h, state.prev_h[p], rp)
        state.acc[p] = update_acc_counter(state.acc.get(p, 0), ok, rp.a0)
    else:
        state.acc[p] = 0


def ref_mes_on_begin_vc_send(state, h_now, rp):
    tau = rp.tau_max
    c_vec, a_vec, m_vec = [], [], []
    for q in range(state.n1):
        if q in state.c_tilde:
            c_vec.append(wrap_add(wrap_add(state.c_tilde[q], h_now, tau), rp.dv.delta_tt1, tau))
        else:
            c_vec.append(None)
        a_vec.append(state.acc.get(q, 0))
        m_vec.append(state.m_rec.get(q))
    return TTMessageUp(c_vec=tuple(c_vec), a_vec=tuple(a_vec), m_vec=tuple(m_vec))


def ref_mes_on_end_c_recv(state, h_now, rp):
    if not state.c_tilde:
        return
    tau = rp.tau_max
    h_ref = wrap_sub(h_now, rp.dv.delta_tt2, tau)
    proj = [wrap_add(ct, h_ref, tau) for ct in state.c_tilde.values()]
    target = wrap_add(ring_med(proj, tau), rp.dv.delta_tt2, tau)
    state.clock_offset = wrap_sub(target, h_now, tau)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_terminal_matches_dict_reference(data):
    """Initial records on some planes, then clock messages (one cycle after
    the last record, give or take a little more than the accuracy check
    allows, or anywhere on the ring), relay messages and clock settings, in
    any order: both machines send and set the same."""
    rp = make_rp()
    tau, n1 = rp.tau_max, rp.n1
    ring = st.integers(0, tau - 1)
    dm, dh = 2 * rp.eps0 + 1, hw_accuracy_threshold(rp) + 1
    off = data.draw(ring)
    new, ref = MesState(n1, clock_offset=off), RefMesState(n1, clock_offset=off)
    for q in range(n1):
        if data.draw(st.booleans()):
            m, h, a = data.draw(ring), data.draw(ring), data.draw(st.integers(0, rp.a0))
            new.m_rec[q], new.h_rec[q], new.acc[q] = m, h, a
            ref.m_rec[q], ref.h_rec[q], ref.acc[q] = m, h, a
            ref.c_tilde[q] = wrap_sub(m, h, tau)
    for _ in range(data.draw(st.integers(1, 16))):
        step = data.draw(st.sampled_from(["clock", "clock", "send", "recv"]))
        h_now = data.draw(ring)
        if step == "clock":
            p = data.draw(st.integers(0, n1 - 1))
            if p in ref.m_rec and data.draw(st.booleans()):
                m = (ref.m_rec[p] + rp.T + data.draw(st.integers(-dm, dm))) % tau
                h_now = (ref.h_rec[p] + rp.T + data.draw(st.integers(-dh, dh))
                         - rp.dv.delta_tt0) % tau
            else:
                m = data.draw(ring)
            mes_on_clock_msg(new, p, m, h_now, rp)
            ref_mes_on_clock_msg(ref, p, m, h_now, rp)
        elif step == "send":
            assert mes_on_begin_vc_send(new, h_now, rp) == ref_mes_on_begin_vc_send(ref, h_now, rp)
        else:
            mes_on_end_c_recv(new, h_now, rp)
            ref_mes_on_end_c_recv(ref, h_now, rp)
        assert new.clock_offset == ref.clock_offset
    h_now = data.draw(ring)
    assert mes_on_begin_vc_send(new, h_now, rp) == ref_mes_on_begin_vc_send(ref, h_now, rp)


# ---- reference: the round decision on per-element matrices ---------------------
#
# The switch's round decision as it stood when the matrices were built entry by
# entry as lists, the window search called wrap_sub for each entry, every ring
# step went through the ring module, and the mean re-sorted what reduce had
# sorted.  It reads row matrices in terminal order, padded for terminals that
# sent nothing, while the switch now passes the relays' vectors in arrival
# order.  The decision the switch makes must match it: the same summary, the
# same lifetime and the same rng state afterwards.


def _ref_window_hit(C, rows, width, min_cols, tau):
    sub = [C[p] for p in rows]
    anchors = sorted({v for row in sub for v in row if v is not None})
    full = [col for col in zip(*sub) if None not in col]
    return (v for v in anchors
            if sum(all(wrap_sub(e, v, tau) <= width for e in col) for col in full) >= min_cols)


def ref_filters(M, A, rp):
    need = rp.n0 - rp.f0
    passed = []
    for p in range(rp.n1):
        if A[p].count(rp.a0) < need:
            continue
        present = [v for v in M[p] if v is not None]
        if present and M[p].count(ring_med(present, rp.tau_max)) >= need:
            passed.append(p)
    return frozenset(passed)


def ref_check_stb(C, p_acma, rp):
    k = rp.n1 - rp.f1
    if len(p_acma) < k:
        return False
    return any(next(_ref_window_hit(C, rows, rp.eps1, rp.n0 - rp.f0, rp.tau_max), None)
               is not None for rows in combinations(sorted(p_acma), k))


def ref_check_weak(C, rp):
    k = rp.n1 - rp.f1
    half = rp.eps2 // 2
    starts = set()
    for rows in combinations(range(rp.n1), k):
        starts.update(_ref_window_hit(C, rows, 2 * half, rp.n0 - 2 * rp.f0, rp.tau_max))
    if not starts:
        return None
    return wrap_add(circ_sort(starts, rp.tau_max)[0], half, rp.tau_max)


def ref_fta_values(values, f, tau):
    ordered = circ_sort(msr_select(msr_reduce(values, f, tau), f), tau)
    s, n = sum(unwrap(ordered, tau)), len(ordered)
    return wrap_add(ordered[0], -((n - 2 * s) // (2 * n)) % tau, tau)


def ref_fta(C, rp):
    medians = []
    for col in zip(*C):
        present = [v for v in col if v is not None]
        if len(present) >= rp.n1 - rp.f1:
            medians.append(ring_med(present, rp.tau_max))
    if len(medians) < 2 * rp.f0 + 1:
        return None
    return ref_fta_values(medians, rp.f0, rp.tau_max)


def ref_rft(C, c_pre, p0, rng, rp):
    if rng.random() < p0:
        return ref_fta(C, rp)
    candidates = []
    for row in C:
        present = [v for v in row if v is not None]
        candidates.append(ring_med(present, rp.tau_max) if present else c_pre)
    candidates.append(c_pre)
    return candidates[rng.randrange(4)]


def ref_mws_on_end_mc_recv(state, relays, h_now, rng, rp):
    tau = rp.tau_max
    held = state.grand_life
    b_coin, state.grand_life = grandmaster_toss(held, rng, rp)
    grand = b_coin == 1 or held > 0
    cols = [relays.get(i) for i in range(rp.n0)]
    C = [[None if u is None else u.c_vec[p] for u in cols] for p in range(rp.n1)]
    A = [[None if u is None else u.a_vec[p] for u in cols] for p in range(rp.n1)]
    M = [[None if u is None else u.m_vec[p] for u in cols] for p in range(rp.n1)]
    stb = ref_check_stb(C, ref_filters(M, A, rp), rp)
    if stb or (grand and b_coin == 0):
        branch, c_new = "avg", ref_fta(C, rp)
    elif grand:
        branch, c_new = "weak", ref_check_weak(C, rp)
    else:
        c_pre = wrap_add(wrap_add(h_now, rp.dv.delta_tt3, tau), state.c_tilde_old, tau)
        branch, c_new = "rft", ref_rft(C, c_pre, rp.dv.p0_cut, rng, rp)
    if c_new is None:
        branch = "own"
        c_new = wrap_add(wrap_add(h_now, state.clock_offset, tau), rp.dv.delta_tt3, tau)
    return RoundSummary(b_coin=b_coin, stb=stb, branch=branch, c_new=c_new)


def _random_relays(rng, rp):
    """One round's relays: a cluster of estimates and records, sometimes
    near the ring wrap, with entries pushed out of the windows, missing
    entries, terminals that sent nothing, low accuracy counters, and
    arbitrary values from the faulty terminals.  A calm round has few of
    these, so that the stability condition can hold."""
    tau, n1 = rp.tau_max, rp.n1
    calm = rng.random() < 0.4
    odd = 0.02 if calm else 0.15                       # chance of each fault
    center = rng.choice([rng.randrange(tau), rng.randrange(8), tau - 1 - rng.randrange(8)])
    spread = rng.choice([0, 2, rp.eps1 // 2] + ([] if calm else [rp.eps1, 2 * rp.eps2, tau // 2]))
    row_shift = [0 if calm or rng.random() < 0.7 else rng.randrange(tau) for _ in range(n1)]
    record = [rng.randrange(tau) for _ in range(n1)]
    relays = {}
    for i in range(rp.n0):
        if rng.random() < odd:
            continue                                   # sent nothing
        if i >= rp.n0 - rp.f0 and rng.random() < 0.5:  # faulty: anything at all
            pick = lambda: rng.randrange(tau) if rng.random() < 0.8 else None
            relays[i] = TTMessageUp(tuple(pick() for _ in range(n1)),
                                    tuple(rng.randrange(rp.a0 + 1) for _ in range(n1)),
                                    tuple(pick() for _ in range(n1)))
            continue
        c_vec, a_vec, m_vec = [], [], []
        for p in range(n1):
            c = (center + row_shift[p] + rng.randint(-spread, spread)) % tau
            if rng.random() < odd:
                c = (c + rp.eps2 + rng.randrange(tau // 2)) % tau   # out of the windows
            c_vec.append(None if rng.random() < odd else c)
            a_vec.append(rp.a0 if rng.random() >= odd else rng.randrange(rp.a0))
            m = record[p] if rng.random() >= odd else rng.randrange(tau)
            m_vec.append(None if rng.random() < odd else m)
        relays[i] = TTMessageUp(tuple(c_vec), tuple(a_vec), tuple(m_vec))
    return dict(sorted(relays.items(), key=lambda kv: rng.random()))   # arrival order


@pytest.mark.same_bytes
@pytest.mark.parametrize("rp", [make_rp(), make_rp(n0=7, f0=2)], ids=["n0=4", "n0=7"])
def test_round_decision_matches_reference(rp):
    """Seeded random relay sets and switch states: the summary, the
    lifetime left and the coin stream's state match the reference's, in
    every branch."""
    tau = rp.tau_max
    rng = random.Random(20261018)
    branches, stable = Counter(), 0
    for case in range(3000):
        relays = _random_relays(rng, rp)
        state = dict(tau_max=tau, clock_offset=rng.randrange(tau), c_tilde_old=rng.randrange(tau),
                     grand_life=rng.choice([0, 0, 0, rng.randrange(rp.dv.g0 + 1)]))
        h_now, seed = rng.randrange(tau), rng.randrange(2**32)
        new_st, ref_st = MwsState(**state), MwsState(**state)
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = mws_on_end_mc_recv(new_st, relays, h_now, new_rng, rp)
        want = ref_mws_on_end_mc_recv(ref_st, relays, h_now, ref_rng, rp)
        assert got == want, case
        assert new_st == ref_st and new_rng.getstate() == ref_rng.getstate(), case
        branches[got.branch] += 1
        stable += got.stb
    assert min(branches[b] for b in ("avg", "weak", "own", "rft")) >= 20, branches
    assert 300 <= stable <= 2700, stable


@st.composite
def _window_relays(draw, rp):
    """Relay vectors for the window search.  Entries come from a few values
    within eps1/4 of a center, and the ring's wrap is among the centers, so
    entries repeat and clusters straddle the wrap; a value at a window's
    width, or one past it, from the lowest is sometimes among them.  A
    third of the relays are not full, often leaving fewer full ones than
    n0 - f0, and half of those hold an entry below the cluster, which may
    be the only start of a window.  Some entries are anywhere on the ring."""
    tau, n1 = rp.tau_max, rp.n1
    center = draw(st.sampled_from([0, 1, tau - 1, tau - rp.eps1 // 2, tau // 2]))
    offsets = draw(st.lists(st.integers(-rp.eps1 // 4, rp.eps1 // 4), min_size=1, max_size=4))
    lo = center + min(offsets)
    widths = [rp.eps1, 2 * (rp.eps2 // 2)]
    edges = draw(st.lists(st.sampled_from([w + d for w in widths for d in (0, 1)]), max_size=1))
    pool = st.sampled_from(sorted({(center + d) % tau for d in offsets}
                                  | {(lo + e) % tau for e in edges}))
    vecs = []
    for _i in range(draw(st.integers(rp.n0 - 2 * rp.f0, rp.n0))):
        vec = [draw(pool) for _p in range(n1)]
        if draw(st.integers(0, 2)) == 0:
            order = draw(st.permutations(range(n1)))
            for p in order[:draw(st.integers(1, n1 - 1))]:
                vec[p] = None
            if draw(st.booleans()):
                vec[order[-1]] = (lo - draw(st.integers(1, rp.eps1))) % tau
        if draw(st.integers(0, 3)) == 0:
            vec[draw(st.integers(0, n1 - 1))] = draw(st.integers(0, tau - 1))
        vecs.append(tuple(vec))
    return vecs


@pytest.mark.same_bytes
@pytest.mark.parametrize("rp", [make_rp(), make_rp(n0=7, f0=2)], ids=["n0=4", "n0=7"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_window_search_matches_reference(rp, data):
    # check_stb anchors only at full relays' entries and stops at its first
    # window; check_weak anchors at every entry.  The reference anchors
    # both at every entry, in order, and reads rows per plane.
    vecs = data.draw(_window_relays(rp))
    p_acma = frozenset(data.draw(st.sets(st.integers(0, rp.n1 - 1), min_size=rp.n1 - rp.f1)))
    rows = [[vec[p] for vec in vecs] for p in range(rp.n1)]
    assert check_stb(vecs, p_acma, rp) == ref_check_stb(rows, p_acma, rp)
    assert check_weak(vecs, rp) == ref_check_weak(rows, rp)


def test_summary_decides_its_verdict_on_first_read():
    calls = []

    def decide():
        calls.append(1)
        return True

    got = RoundSummary(b_coin=0, stb=decide, branch="avg", c_new=5)
    assert calls == []
    assert got.stb is True and got.stb is True and calls == [1]
    assert got == RoundSummary(b_coin=0, stb=True, branch="avg", c_new=5)
    assert got != RoundSummary(b_coin=0, stb=False, branch="avg", c_new=5)
    assert repr(got) == "RoundSummary(b_coin=0, stb=True, branch='avg', c_new=5)"


@pytest.mark.same_bytes
@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 99), min_size=1, max_size=9), st.integers(0, 3),
       st.sampled_from([4, 7, 100]))
# A step of 2 selects 0 and 60 from the trimmed 0, 30, 60, and their
# circ_sort order is 60, 0: only a step of 1 may skip the second sort.
@example([0, 0, 0, 30, 60, 60, 60], 2, 100)
def test_fta_values_matches_reference(values, f, tau):
    # Small rings, so that the gap a circular order skips often ties an
    # inner gap.  Trimming keeps circ_sort order; fta_values relies on it.
    values = [v % tau for v in values]
    if len(values) > 2 * f:
        reduced = msr_reduce(values, f, tau)
        assert circ_sort(reduced, tau) == reduced
        assert fta_values(values, f, tau) == ref_fta_values(values, f, tau)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(0, 4095), st.integers(0, 4095), st.integers(0, 4095), st.integers(0, 4095))
def test_accuracy_check_matches_ring_calls(m_curr, m_pre, h_curr, h_pre):
    rp = make_rp()
    tau = rp.tau_max
    T = rp.T % tau
    want = ring_dist(m_curr, wrap_add(m_pre, T, tau), tau) <= 2 * rp.eps0 and \
        ring_dist(h_curr, wrap_add(h_pre, T, tau), tau) <= hw_accuracy_threshold(rp)
    assert accuracy_check(m_curr, m_pre, h_curr, h_pre, rp) == want
    # Records one cycle apart, give or take the bounds, are the cases that matter.
    m_next, h_next = (m_pre + rp.T + m_curr % 9 - 4) % tau, (h_pre + rp.T + h_curr % 9 - 4) % tau
    want = ring_dist(m_next, wrap_add(m_pre, T, tau), tau) <= 2 * rp.eps0 and \
        ring_dist(h_next, wrap_add(h_pre, T, tau), tau) <= hw_accuracy_threshold(rp)
    assert accuracy_check(m_next, m_pre, h_next, h_pre, rp) == want
