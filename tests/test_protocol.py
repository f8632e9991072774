"""Protocol state machine tests for terminal and master switch nodes."""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from planesync.ftcore import Mat, accuracy_check, fta, hw_accuracy_threshold, update_acc_counter
from planesync.params import SystemParams, TTSchedule, resolve
from planesync.protocol import (
    MesState,
    MwsState,
    TTMessageUp,
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
from planesync.ring import ring_med, wrap_add, wrap_sub

SCHED = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34), c_recv=(38, 48))


def make_rp(**over):
    base = dict(
        n0=4, n1=3, f0=1, f1=1,
        tau_max=4096, T_H=Fraction(1), rho=Fraction(1, 100),
        d_max=Fraction(2), T0=100, a0=3,
    )
    base.update(over)
    return resolve(SystemParams(**base), SCHED)


def full_mats(rp, C_rows, acc=None):
    n0, n1 = rp.n0, rp.n1
    C = Mat([[C_rows[p]] * n0 for p in range(n1)])
    A = Mat([[acc if acc is not None else rp.a0] * n0 for _ in range(n1)])
    M = Mat([[C_rows[p]] * n0 for p in range(n1)])
    return C, A, M


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
        msg = mes_on_begin_vc_send(st, 2, h_now, rp)
        c_tilde = wrap_sub(500, wrap_add(300, rp.dv.delta_tt0, tau), tau)
        want = wrap_add(wrap_add(c_tilde, h_now, tau), rp.dv.delta_tt1, tau)
        assert msg.sender == 2
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
        st.C_mat, st.A_mat, st.M_mat = full_mats(rp, [700, 702, 704])
        mws_on_end_mc_recv(st, 50, random.Random(0), rp)
        assert st.c_new == fta(st.C_mat, rp)

    def test_unstable_nongrandmaster_randomizes(self):
        rp = make_rp()
        tau = rp.tau_max
        rows = [100, 1100, 2100]  # far apart: stability cannot hold
        seen = set()
        for seed in range(200):
            st = MwsState(tau_max=tau, c_tilde_old=wrap_sub(3100, rp.dv.delta_tt3, tau))
            st.C_mat, st.A_mat, st.M_mat = full_mats(rp, rows, acc=0)
            mws_on_end_mc_recv(st, 0, random.Random(seed), rp)
            seen.add(st.c_new)
        assert {100, 1100, 2100, 3100} <= seen  # all four references reachable
        assert fta(st.C_mat, rp) in seen

    def test_grandmaster_head_toss_sets_lifetime(self):
        rp = make_rp()
        st = MwsState(tau_max=rp.tau_max)
        st.C_mat, st.A_mat, st.M_mat = full_mats(rp, [700, 702, 704])
        # Find a seed whose first draw lands under q0.
        seed = next(s for s in range(10_000) if random.Random(s).random() < float(rp.dv.q0))
        mws_on_end_mc_recv(st, 50, random.Random(seed), rp)
        assert st.b_coin == 1
        # Lifetime is granted and then spent for the current round.
        assert st.grand_life == rp.dv.g0 - 1

    def test_grandmaster_lifetime_decrements(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, grand_life=3)
        st.C_mat, st.A_mat, st.M_mat = full_mats(rp, [700, 702, 704])
        seed = next(s for s in range(10_000) if random.Random(s).random() >= float(rp.dv.q0))
        mws_on_end_mc_recv(st, 50, random.Random(seed), rp)
        assert st.b_coin == 0 and st.grand_life == 2

    def test_grandmaster_unstable_holds_own_clock(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, grand_life=2, clock_offset=321)
        rows = [0, 1300, 2600]  # scattered: no weak window either
        st.C_mat, st.A_mat, st.M_mat = full_mats(rp, rows, acc=0)
        h_now = 77
        seed = next(s for s in range(10_000) if random.Random(s).random() < float(rp.dv.q0))
        mws_on_end_mc_recv(st, h_now, random.Random(seed), rp)
        own = wrap_add(wrap_add(h_now, 321, tau), rp.dv.delta_tt3, tau)
        assert st.c_new == own

    def test_grandmaster_weak_window(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, grand_life=2)
        # Two rows share value 800 in n0-2f0 = 2 columns; third row far off.
        C = Mat([
            [800, 800, 2000, 2400],
            [800, 800, 2800, 3200],
            [1600, 1601, 1602, 1603],
        ])
        st.C_mat = C
        st.A_mat = Mat([[0] * 4 for _ in range(3)])
        st.M_mat = Mat([[None] * 4 for _ in range(3)])
        seed = next(s for s in range(10_000) if random.Random(s).random() < float(rp.dv.q0))
        mws_on_end_mc_recv(st, 50, random.Random(seed), rp)
        from planesync.ring import ring_dist
        assert ring_dist(st.c_new, 800, tau) <= rp.eps2 // 2

    def test_send_and_adjust(self):
        rp = make_rp()
        tau = rp.tau_max
        st = MwsState(tau_max=tau, clock_offset=10, tau_idl=500, c_new=1234)
        h_now = 400
        mws_on_end_c_send(st, h_now, rp)
        assert st.c_tilde_old == 10
        assert st.clock_offset == wrap_sub(1234, h_now, tau)
        assert st.idle

    def test_send_noop_without_value(self):
        rp = make_rp()
        st = MwsState(tau_max=rp.tau_max, clock_offset=10, tau_idl=500)
        mws_on_end_c_send(st, 400, rp)
        assert st.clock_offset == 10 and not st.idle


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
            ups = [mes_on_begin_vc_send(mes[i], i, h_mes[i], rp) for i in range(rp.n0)]
            # The sender's hardware clock cancels out of the projection.
            want = wrap_add(base, rp.dv.delta_tt1, tau)
            assert all(u.c_vec[p] == want for u in ups for p in range(3))
            mws = MwsState(tau_max=tau)
            mws.C_mat = Mat([[u.c_vec[p] for u in ups] for p in range(3)])
            mws.A_mat = Mat([[rp.a0] * rp.n0 for _ in range(3)])
            mws.M_mat = Mat([[base] * rp.n0 for _ in range(3)])
            mws_on_end_mc_recv(mws, 0, random.Random(1), rp)
            assert mws.c_new == want


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


def ref_mes_on_begin_vc_send(state, sender, h_now, rp):
    tau = rp.tau_max
    c_vec, a_vec, m_vec = [], [], []
    for q in range(state.n1):
        if q in state.c_tilde:
            c_vec.append(wrap_add(wrap_add(state.c_tilde[q], h_now, tau), rp.dv.delta_tt1, tau))
        else:
            c_vec.append(None)
        a_vec.append(state.acc.get(q, 0))
        m_vec.append(state.m_rec.get(q))
    return TTMessageUp(sender=sender, c_vec=tuple(c_vec), a_vec=tuple(a_vec), m_vec=tuple(m_vec))


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
            sender = data.draw(st.integers(0, rp.n0 - 1))
            assert mes_on_begin_vc_send(new, sender, h_now, rp) == \
                ref_mes_on_begin_vc_send(ref, sender, h_now, rp)
        else:
            mes_on_end_c_recv(new, h_now, rp)
            ref_mes_on_end_c_recv(ref, h_now, rp)
        assert new.clock_offset == ref.clock_offset
    h_now = data.draw(ring)
    assert mes_on_begin_vc_send(new, 0, h_now, rp) == ref_mes_on_begin_vc_send(ref, 0, h_now, rp)
