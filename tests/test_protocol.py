"""Protocol state machine tests for terminal and master switch nodes."""

import random
from fractions import Fraction

from planesync.ftcore import Mat, fta
from planesync.params import SystemParams, TTSchedule, resolve
from planesync.protocol import (
    MesState,
    MwsState,
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
from planesync.ring import wrap_add, wrap_sub

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
        assert st.m_rec[1] == 500
        assert st.h_rec[1] == h
        assert st.c_tilde[1] == wrap_sub(500, h, rp.tau_max)
        assert st.acc[1] == 0  # first record carries no history to grade

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
        want = wrap_add(wrap_add(st.c_tilde[0], h_now, tau), rp.dv.delta_tt1, tau)
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
            st.c_tilde[p] = wrap_sub(c, h_ref, tau)
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
