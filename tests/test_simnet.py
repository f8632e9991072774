"""Simulator tests: event engine, clock staircases, round machinery,
message policing, and the synchronization verdict."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import re
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesync.adversaries import BUILTINS, Adversary, make_adversary
from planesync.errors import ConfigurationError, SimulationError
from planesync.harness import reference_scenario, run_once
from planesync.params import SystemParams, TTSchedule, resolve
from planesync.protocol import MwsState, TTMessageUp, next_sig_tick
from planesync.ring import ring_dist
from planesync.simnet import (
    K_DELIVER,
    K_WATCHDOG,
    QUANT,
    ClockTrack,
    Engine,
    HardwareClock,
    World,
    derive_seed,
    sync_check,
)

SCHED = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34), c_recv=(38, 48))


def make_rp(**over):
    base = dict(
        n0=4, n1=3, f0=1, f1=1,
        tau_max=4096, T_H=Fraction(1), rho=Fraction(1, 1000),
        d_max=Fraction(2), T0=74, a0=3, eps_rnd=Fraction(1, 2),
    )
    base.update(over)
    return resolve(SystemParams(**base), SCHED)


RP = make_rp()


class TestEngine:
    def test_order_independent_of_insertion(self):
        # Same timestamp: order must be (node rank, kind, insertion seq),
        # whatever order the events were pushed in.
        events = [(5, 1, 0, "a"), (5, 0, 2, "b"), (5, 0, 0, "c"), (3, 9, 9, "d")]
        want = None
        for perm in itertools.permutations(events):
            eng = Engine()
            fired = []
            for t, rank, kind, name in perm:
                eng.schedule(t, rank, kind, fired.append, name)
            eng.run_until(10)
            seq_sensitive = {e[:3] for e in events if
                             sum(1 for f in events if f[:3] == e[:3]) > 1}
            assert not seq_sensitive  # fixture keys must be unique for this check
            if want is None:
                want = fired
            assert fired == want
        assert want == ["d", "c", "b", "a"]

    def test_insertion_sequence_breaks_full_ties(self):
        eng = Engine()
        fired = []
        for name in "xyz":
            eng.schedule(7, 0, 0, lambda n=name: fired.append(n))
        eng.run_until(7)
        assert fired == ["x", "y", "z"]

    def test_past_scheduling_rejected(self):
        eng = Engine()
        eng.schedule(4, 0, 0, lambda: eng.schedule(3, 0, 0, lambda: None))
        with pytest.raises(SimulationError):
            eng.run_until(10)


class TestHardwareClock:
    def test_staircase_roundtrip(self):
        clk = HardwareClock(t_ref=-7, period=10, h0=93, tau=100)
        for k in range(-3, 40):
            t = clk.time_of_tick(k)
            assert clk.ticks_at(t) == k
            assert clk.ticks_at(t + 9) == k
            assert clk.ticks_at(t + 10) == k + 1
            assert clk.h_at(t) == (93 + k) % 100

    def test_first_tick_at_or_after(self):
        clk = HardwareClock(t_ref=-7, period=10, h0=93, tau=100)
        for t in range(-40, 60):
            k = clk.ticks_at(t)
            if clk.time_of_tick(k) < t:
                k += 1
            assert clk.first_tick(t) == k

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "init") == derive_seed(1, "init")
        assert derive_seed(1, "init") != derive_seed(1, "adversary")
        assert derive_seed(1, "init") != derive_seed(2, "init")


class TestNextSigTick:
    def test_matches_brute_force(self):
        for tau, T in [(8, 2), (12, 4), (20, 5), (16, 6)]:
            for base in range(tau):
                for k_min in range(0, 2 * tau, 3):
                    want = next(k for k in range(k_min, k_min + tau)
                                if (base + k) % tau % T == 0
                                and (base + k) % tau <= ((tau - 1) // T) * T)
                    assert next_sig_tick(base, k_min, tau, T) == want

    def test_matches_tick_walk(self, tick_walk):
        # The closed form must land on the same tick a literal tick-by-tick
        # walk of the switch state machine would fire on.
        rp = make_rp(tau_max=1024, T0=74)
        tau, T = 1024, rp.T
        for off in (0, 3, 700, 1023):
            st = MwsState(tau_max=tau, clock_offset=off)
            walk = None
            for k in range(2 * tau):
                if tick_walk(st, (k + off) % tau, k % tau, rp):
                    walk = k
                    break
            assert walk == next_sig_tick(off % tau, 0, tau, T)


class _LateSender(Adversary):
    """Faulty terminal sends junk far outside its slot; must be policed."""

    name = "late_sender"

    def on_sig(self, p, t):
        pass

    def faulty_mes_round(self, i, p, anchor):
        w = self.world
        junk = TTMessageUp(c_vec=(1, 2, 3), a_vec=(3, 3, 3), m_vec=(1, 2, 3))
        w.schedule_adv(anchor + 20 * w.THL,
                       lambda i=i, p=p: w.adv_send_up(i, p, junk, w.engine.now))


class _SlotSender(_LateSender):
    """Faulty terminal sends junk inside the policed slot; must be ingested."""

    name = "slot_sender"

    def __init__(self, c_vec=(1, 2, 3), m_vec=(1, 2, 3)):
        super().__init__()
        self.c_vec, self.m_vec = c_vec, m_vec

    def faulty_mes_round(self, i, p, anchor):
        w = self.world
        junk = TTMessageUp(c_vec=self.c_vec, a_vec=(3, 3, 3), m_vec=self.m_vec)
        send_t = anchor + 7 * w.THL
        w.schedule_adv(send_t,
                       lambda i=i, p=p, s=send_t: w.adv_send_up(i, p, junk, s))


class _DownSender(Adversary):
    """Faulty plane starts one round and sends every honest terminal the
    clock value m as its receive slot opens."""

    name = "down_sender"

    def __init__(self, m):
        super().__init__()
        self.m = m

    def setup(self):
        w = self.world
        pf = next(iter(w.faulty_planes))

        def fire():
            w.faulty_sig(pf, w.engine.now)
            for i in w.honest_mes:
                w.adv_deliver_down(pf, i, self.m, w.mes_round[(i, pf)].b_recv)

        w.schedule_adv(w.THL, fire)


class _Closed(World):
    """Keeps every closed round of an honest plane, with the relays it
    collected."""

    def __init__(self, *args, **kwargs):
        self.closed_rounds = []
        super().__init__(*args, **kwargs)

    def _on_end_mc(self, p, rnd):
        super()._on_end_mc(p, rnd)
        self.closed_rounds.append((p, rnd))


class TestPolicing:
    def test_honest_traffic_never_dropped(self):
        w = World(RP, make_adversary("silent"), seed=3,
                  init_policy="synchronized", trace_level="full")
        w.run_until_window(3)
        drops = [r for r in w.trace.records if r["ev"].startswith("drop")]
        assert drops == []

    def test_out_of_slot_send_dropped(self):
        w = _Closed(RP, _LateSender(), seed=3, init_policy="synchronized",
                    trace_level="full")
        w.run_until_window(3)
        faulty = next(iter(w.faulty_mes))
        drops = [r for r in w.trace.records
                 if r["ev"] == "drop_up" and r["mes"] == faulty]
        assert drops and all(r["why"] == "outside policed slot" for r in drops)
        assert {p for p, _rnd in w.closed_rounds} == set(w.honest_planes)
        assert all(faulty not in rnd.relays for _p, rnd in w.closed_rounds)

    def test_in_slot_send_ingested(self):
        w = _Closed(RP, _SlotSender(), seed=3, init_policy="synchronized",
                    trace_level="full")
        w.run_until_window(3)
        faulty = next(iter(w.faulty_mes))
        assert not any(r["ev"] == "drop_up" and r["mes"] == faulty
                       for r in w.trace.records)
        assert {p for p, _rnd in w.closed_rounds} == set(w.honest_planes)
        assert all(rnd.relays[faulty].c_vec[0] == 1 for _p, rnd in w.closed_rounds)

    def test_out_of_ring_upload_reduced(self):
        # A faulty terminal's clock values enter the plane reduced onto the
        # ring, missing entries kept, like downward adversarial values.
        tau = RP.tau_max
        adv = _SlotSender(c_vec=(tau + 1, None, -1), m_vec=(2 * tau + 5, 7, None))
        w = _Closed(RP, adv, seed=3, init_policy="synchronized", trace_level="full")
        w.run_until_window(3)
        faulty = next(iter(w.faulty_mes))
        assert {p for p, _rnd in w.closed_rounds} == set(w.honest_planes)
        for _p, rnd in w.closed_rounds:
            assert rnd.relays[faulty].c_vec == (1, None, tau - 1)
            assert rnd.relays[faulty].m_vec == (5, 7, None)

    def test_out_of_ring_delivery_reduced(self):
        # A faulty plane's clock value enters a terminal reduced onto the ring.
        w = World(RP, _DownSender(RP.tau_max + 5), seed=3, init_policy="synchronized",
                  trace_level="full")
        w.run_until_window(1)
        pf = next(iter(w.faulty_planes))
        assert w.honest_mes and all(w.mes[i].m_rec[pf] == 5 for i in w.honest_mes)

    @pytest.mark.parametrize("c_vec, m_vec", [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2, 3, 4))])
    def test_upload_of_wrong_length_rejected(self, c_vec, m_vec):
        w = World(RP, _SlotSender(c_vec=c_vec, m_vec=m_vec), seed=3,
                  init_policy="synchronized")
        faulty = next(iter(w.faulty_mes))
        with pytest.raises(SimulationError, match=rf"terminal {faulty} sent plane \d"):
            w.run_until_window(3)

    def test_early_arrivals_buffered_until_slot_begin(self):
        w = _Closed(RP, make_adversary("silent"), seed=3,
                    init_policy="synchronized", trace_level="full")
        w.run_until_window(3)
        # Upward sends end at tick 10, collection opens at tick 14: every
        # honest relay is an early arrival, yet each closed round holds all.
        assert {p for p, _rnd in w.closed_rounds} == set(w.honest_planes)
        for _p, rnd in w.closed_rounds:
            for i in w.honest_mes:
                assert rnd.relays[i].c_vec[0] is not None


class _EventDelivery(World):
    """The reference for storing in-slot honest messages at send time: every
    message becomes a delivery event at its arrival instant, and a round
    refuses what arrives once its slot-end handler has closed it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for rnd in self.mes_round.values():   # no round yet: nothing is taken
            rnd.closed = True

    def send_up(self, i, p, msg, send_t):
        if p in self.faulty_planes:
            self.adversary.on_up_to_faulty(i, p, msg, send_t)
            return
        arrival = send_t + self._delay(("mes", i), p)
        self.trace.add(False, ev="send_up", t=send_t, mes=i, plane=p, arrival=arrival)
        self.engine.schedule(arrival, self.rank(("mws", p)), K_DELIVER,
                             self._deliver_up, p, send_t, i, msg)

    def _on_begin_cs(self, p, rnd, t_end_cs):
        t = self.engine.now
        for i in range(self.rp.n0):
            if i in self.faulty_mes:
                continue
            arrival = t + self._delay(("mws", p), p)
            self.trace.add(False, ev="send_down", t=t, plane=p, to=i, m=rnd.c_new,
                           arrival=arrival)
            self.engine.schedule(arrival, self.rank(("mes", i)), K_DELIVER,
                                 self._deliver_down, p, i, rnd.c_new)

    def _on_end_mc(self, p, rnd):
        rnd.closed = True
        super()._on_end_mc(p, rnd)

    def _on_end_cr(self, i, p, rnd):
        if self.mes_round[(i, p)] is rnd:
            rnd.closed = True
        super()._on_end_cr(i, p, rnd)

    def _deliver_up(self, p, send_t, i, msg):
        rnd = self.plane_round[p]
        if rnd is None:
            return
        if not (rnd.anchor + self._police_lo <= send_t <= rnd.anchor + self._police_hi):
            self.trace.add(False, ev="drop_up", t=self.engine.now, plane=p, mes=i,
                           why="outside policed slot")
        elif getattr(rnd, "closed", False):
            self.trace.add(False, ev="drop_up", t=self.engine.now, plane=p, mes=i, why="late")
        else:
            rnd.relays.setdefault(i, msg)

    def _deliver_down(self, p, i, m):
        rnd = self.mes_round[(i, p)]
        now = self.engine.now
        if getattr(rnd, "closed", False) or now < rnd.anchor:
            self.trace.add(False, ev="drop_down", t=now, plane=p, mes=i, why="no round")
        elif now < rnd.b_recv:
            rnd.buffer.append(m)
        else:
            self._ingest_down(i, p, m)


class TestSendTimeDelivery:
    def test_matches_event_delivery(self):
        events = ref_events = 0
        for name, init, seed in itertools.product(BUILTINS, ("synchronized", "random"),
                                                  (1, 2, 3)):
            w, ref = (cls(RP, make_adversary(name), seed=seed, init_policy=init,
                          trace_level="full") for cls in (World, _EventDelivery))
            w.run_until_window(100)
            ref.run_until_window(100)
            case = (name, init, seed)
            assert w.trace.records == ref.trace.records, case
            assert w.toss_log == ref.toss_log, case
            for key, tr in w.tracks.items():
                other = ref.tracks[key]
                assert (tr.jump_times, tr.jump_offsets, tr.jump_cum) == \
                    (other.jump_times, other.jump_offsets, other.jump_cum), (case, key)
            assert w.mws == ref.mws, case
            assert {i: vars(st) for i, st in w.mes.items()} == \
                {i: vars(st) for i, st in ref.mes.items()}, case
            events += w.engine._seq
            ref_events += ref.engine._seq
        assert events <= 0.75 * ref_events

    def test_value_inside_the_receive_slot_ingested_on_arrival(self):
        # Receive slots open as the plane's send slot ends, plane clocks run
        # fast and terminal clocks slow, no skew, the longest delay: every
        # honest clock value arrives inside the terminal's receive slot,
        # before the plane's send slot ends.  It takes the delivery event
        # and is ingested on arrival, at the hardware reading of that instant.
        sched = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34),
                           c_recv=(34, 48))
        rp = resolve(dataclasses.replace(RP.sys, d_max=Fraction(4)), sched)

        class LongDelay(Adversary):
            def choose_period(self, key):
                return rp.sys.T_H * (1 + rp.rho if key[0] == "mws" else 1 - rp.rho)

            def choose_skew(self, i, p):
                return 0

            def choose_delay(self, sender, p):
                return QUANT

        class Probe(World):
            def __init__(self, *args, **kwargs):
                self.delivered, self.ingested = [], []
                super().__init__(*args, **kwargs)

            def _deliver_down(self, p, i, m):
                if p in self.honest_planes:
                    self.delivered.append((self.engine.now, i, p))
                super()._deliver_down(p, i, m)

            def _ingest_down(self, i, p, m):
                super()._ingest_down(i, p, m)
                if p in self.honest_planes:
                    self.ingested.append((self.engine.now, i, p, self.mes[i].h_rec[p],
                                          self.mes_round[(i, p)].b_recv))

        w = Probe(rp, LongDelay(), seed=3, init_policy="synchronized", trace_level="full")
        w.run_until_window(3)
        records = w.trace.records
        arrivals = sorted((r["arrival"], r["to"], r["plane"])
                          for r in records if r["ev"] == "send_down")
        assert arrivals and not any(r["ev"] == "drop_down" for r in records)
        assert sorted(w.delivered) == arrivals
        assert sorted(rec[:3] for rec in w.ingested) == arrivals
        for t, i, p, h_rec, b_recv in w.ingested:
            assert b_recv < t
            assert h_rec == (w.clocks[("mes", i)].h_at(t) + rp.dv.delta_tt0) % rp.tau_max


class TestRounds:
    def test_sig_cadence_and_alignment(self):
        w = World(RP, make_adversary("silent"), seed=5,
                  init_policy="synchronized", trace_level="core")
        w.run_until_window(6)
        sigs = [r for r in w.trace.records if r["ev"] == "sig" and r["c"] is not None]
        assert all(r["c"] % RP.T == 0 for r in sigs)
        for p in w.honest_planes:
            ts = [r["t"] for r in sigs if r["plane"] == p]
            period = w.clocks[("mws", p)].period
            assert len(ts) >= 4
            assert all(b - a == RP.T * period for a, b in zip(ts, ts[1:]))

    def test_round_liveness_under_chaos(self):
        # A SIG fires at least every (T + T0 + 1) ticks on each honest plane
        # even from a random state with a noisy adversary.
        for seed in range(5):
            w = World(RP, make_adversary("random_noise"), seed=seed,
                      init_policy="random", trace_level="core")
            w.run_until_window(20)
            bound = (RP.T + RP.sys.T0 + 1) * (1 + RP.rho) * RP.sys.T_H * w.L
            for p in w.honest_planes:
                ts = [r["t"] for r in w.trace.records if r["ev"] == "sig" and r["plane"] == p]
                assert ts and ts[0] <= bound
                assert all(b - a <= bound for a, b in zip(ts, ts[1:]))

    def test_watchdog_rescues_a_stuck_round(self):
        # Random init can start a plane mid-round with a stale busy marker.
        # Its watchdog fires exactly once, before its first SIG; no plane
        # that started idle, and no synchronized start, ever needs one.
        busy = fires = 0
        for name, init, seed in itertools.product(
                ("silent", "random_noise", "max_skew", "split_brain"),
                ("synchronized", "random"), range(20)):
            w = World(RP, make_adversary(name), seed=seed, init_policy=init,
                      trace_level="core")
            stuck = {p for p in w.honest_planes if not w.mws[p].idle}
            w.run_until_window(10)
            recs = [(r["ev"], r["plane"]) for r in w.trace.records
                    if r["ev"] in ("watchdog", "sig")]
            watched = [p for ev, p in recs if ev == "watchdog"]
            assert set(watched) <= stuck, (name, init, seed)
            for p in stuck:
                evs = [ev for ev, q in recs if q == p]
                assert evs.count("watchdog") == 1 and "sig" in evs, (name, init, seed, p)
                assert evs.index("watchdog") < evs.index("sig"), (name, init, seed, p)
            if init == "synchronized":
                assert not stuck
            busy += len(stuck)
            fires += len(watched)
        assert busy == fires > 0

    def test_no_watchdog_pending_after_a_sig(self):
        # Only a plane that starts busy gets a watchdog: a SIG schedules
        # none, because the round's end_cs always rearms before it could fire.
        class Probe(World):
            def __init__(self, *args, **kwargs):
                self.pending_after_sig = []
                super().__init__(*args, **kwargs)

            def _on_sig(self, p):
                super()._on_sig(p)  # every SIG starts a round
                self.pending_after_sig.append(
                    [ev for ev in self.engine._heap if ev[1:3] == (p, K_WATCHDOG)])

        sigs = 0
        for name, init, seed in itertools.product(
                ("silent", "random_noise", "split_brain"), ("synchronized", "random"), range(3)):
            w = Probe(RP, make_adversary(name), seed=seed, init_policy=init)
            w.run_until_window(4)
            assert all(pending == [] for pending in w.pending_after_sig), (name, init, seed)
            sigs += len(w.pending_after_sig)
        assert sigs > 0

    def test_plane_rounds_never_overlap(self):
        # An honest plane runs one round at a time: at most one leading
        # watchdog (a busy start), then sig, round, adjust, over and over;
        # the horizon may cut the last cycle short.  Only end_cs, or a busy
        # start's watchdog, makes a plane idle, and a SIG fires only then.
        letter = {"watchdog": "w", "sig": "s", "round": "r", "adjust": "a"}
        cycles = 0
        for name, init, seed in itertools.product(
                ("silent", "random_noise", "max_skew", "split_brain"),
                ("synchronized", "random"), range(10)):
            w = World(RP, make_adversary(name), seed=seed, init_policy=init,
                      trace_level="core")
            w.run_until_window(20)
            for p in w.honest_planes:
                seq = "".join(letter[r["ev"]] for r in w.trace.records
                              if r.get("plane") == p or r.get("node") == ["mws", p])
                assert re.fullmatch(r"w?(sra)*(s|sr)?", seq), (name, init, seed, p, seq)
                cycles += seq.count("sra")
        assert cycles > 0

    def test_busy_start_watchdog_on_the_walked_tick(self, tick_walk):
        # A plane that starts mid-round has its watchdog scheduled on the
        # first tick at or after time 0 where the literal tick walk of its
        # switch rearms the idle sentinel.
        seen = 0
        for seed in range(20):
            w = World(RP, make_adversary("silent"), seed=seed,
                      init_policy="random", trace_level="off")
            for p in w.honest_planes:
                st = w.mws[p]
                if st.idle:
                    continue
                seen += 1
                clk = w.clocks[("mws", p)]
                walked = MwsState(tau_max=st.tau_max, clock_offset=st.clock_offset,
                                  tau_idl=st.tau_idl)
                k = clk.first_tick(0)
                while True:
                    h = (clk.h0 + k) % clk.tau
                    tick_walk(walked, (h + walked.clock_offset) % clk.tau, h, RP)
                    if walked.idle:
                        break
                    k += 1
                pending = [ev[0] for ev in w.engine._heap if ev[1:3] == (p, K_WATCHDOG)]
                assert pending == [clk.time_of_tick(k)]
        assert seen >= 5


class TestConstruction:
    def test_failed_init_frees_the_world(self):
        # The adversary is bound before the initial states are built; when
        # that raises, the half-built world must not stay in a cycle.
        refs = []
        adv = make_adversary("silent")
        bind = adv.bind
        adv.bind = lambda world: (refs.append(weakref.ref(world)), bind(world))
        gc.disable()
        try:
            try:
                World(RP, adv, seed=1, init_policy="sideways")
            except ConfigurationError:
                pass
            else:
                pytest.fail("unknown initial-state policy accepted")
            assert len(refs) == 1 and refs[0]() is None
            assert adv.world is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("init", ["synchronized", "random"])
    def test_initial_states_on_ring(self, init):
        # Initial states are where clock values enter the ring: every one
        # lies in [0, tau_max), as wrap_* and the protocol take for granted.
        tau = RP.tau_max
        for seed in range(10):
            w = World(RP, make_adversary("silent"), seed=seed, init_policy=init)
            assert all(0 <= clk.h0 < tau for clk in w.clocks.values())
            for st in w.mws.values():
                assert 0 <= st.clock_offset < tau and 0 <= st.c_tilde_old < tau
                assert 0 <= st.tau_idl <= tau       # tau_max is the idle sentinel
            for st in w.mes.values():
                assert 0 <= st.clock_offset < tau
                for m, h in zip(st.m_rec, st.h_rec):
                    assert (m is None) == (h is None), (init, seed)
                    assert m is None or (0 <= m < tau and 0 <= h < tau), (init, seed)

    def test_out_of_range_period_clamped_with_warning(self):
        adv = make_adversary("silent")
        adv.choose_period = lambda key: 2 * RP.sys.T_H
        w = World(RP, adv, seed=1, init_policy="synchronized")
        fast = (1 + RP.rho) * RP.sys.T_H
        assert all(c.period == w.scaled(fast) for c in w.clocks.values())
        assert len(w.warnings) == RP.n1 + RP.n0
        assert all(m.endswith(f"adjusted to {fast}") for m in w.warnings)


class TestMaxSkew:
    def test_hardware_drift_rate_at_the_bound(self):
        # Opposite-extreme tick periods: the raw staircases must separate
        # at 2*rho/(1-rho^2) ticks per time unit.
        w = World(RP, make_adversary("max_skew"), seed=1,
                  init_policy="synchronized", trace_level="off")
        a, b = w.honest_planes[:2]
        ca, cb = w.clocks[("mws", a)], w.clocks[("mws", b)]
        span = 10_000
        d = abs((ca.ticks_at(span * w.THL) - ca.ticks_at(0)) -
                (cb.ticks_at(span * w.THL) - cb.ticks_at(0)))
        want = float(2 * RP.rho / (1 - RP.rho ** 2))
        assert abs(d / span - want) < 3e-4


class TestDeterminism:
    @pytest.mark.parametrize("name", ["silent", "random_noise", "max_skew",
                                      "split_brain"])
    def test_same_seed_same_trace(self, name):
        runs = []
        for _ in range(2):
            w = World(RP, make_adversary(name), seed=11,
                      init_policy="random", trace_level="full")
            w.run_until_window(5)
            runs.append(w.trace.to_jsonl())
        assert runs[0] == runs[1]
        assert runs[0]  # nonempty

    def test_different_seed_different_trace(self):
        traces = set()
        for seed in range(3):
            w = World(RP, make_adversary("random_noise"), seed=seed,
                      init_policy="random", trace_level="full")
            w.run_until_window(5)
            traces.add(w.trace.to_jsonl())
        assert len(traces) == 3

    def test_result_and_trace_bytes_are_pinned(self, tmp_path):
        """Every byte a seeded run writes, pinned by one hash: SHA-256 over
        json.dumps(RunResult.to_record(), sort_keys=True) and the full trace
        file (named t<seed>.jsonl, which the record names), for each
        built-in adversary x {synchronized, random} x seeds 1-3, 200 windows
        without an early stop.  A change that alters bytes on purpose (a
        new draw, a new trace field) updates the hash and says so in
        CHANGES.md; any other change must leave it as it is."""
        h = hashlib.sha256()
        for name in BUILTINS:
            for init in ("synchronized", "random"):
                sc = reference_scenario(adversary=name, init=init, horizon=200,
                                        stop_after_confirm=False, trace_level="full")
                for seed in (1, 2, 3):
                    path = tmp_path / f"t{seed}.jsonl"
                    result = run_once(sc, seed, trace_path=str(path))
                    h.update(json.dumps(result.to_record(), sort_keys=True).encode())
                    h.update(path.read_bytes())
        assert h.hexdigest()[:16] == "a7958b87c7db65cb"


class TestSplitBrain:
    def test_planes_disagree_on_stability(self):
        # The two-faced plane must be able to make one honest plane judge
        # the ensemble stable while the other does not, in the same cycle.
        diverged = False
        for seed in range(100):
            w = World(RP, make_adversary("split_brain"), seed=seed,
                      init_policy="random", trace_level="core")
            w.run_until_window(40)
            by_win = {}
            for r in w.trace.records:
                if r["ev"] == "round":
                    by_win.setdefault(r["t"] // w.window, {}).setdefault(
                        r["plane"], set()).add(r["stb"])
            if any(len(d) > 1
                   and any(True in v for v in d.values())
                   and any(v == {False} for v in d.values())
                   for d in by_win.values()):
                diverged = True
                break
        assert diverged


def _const_track(tau, off, period=10):
    return ClockTrack(HardwareClock(t_ref=0, period=period, h0=0, tau=tau), off)


class TestSyncCheck:
    L = 10  # subticks per time unit; matches period=10 with T_H=1

    def test_single_clock_trivially_ok(self):
        ok, dev = sync_check([_const_track(4096, 0)], 0, 5000, RP, self.L)
        assert ok and dev == 0

    def test_constant_offset_at_bound(self):
        a, b = _const_track(4096, 0), _const_track(4096, RP.eps0)
        ok, dev = sync_check([a, b], 0, 5000, RP, self.L)
        assert ok and dev == RP.eps0

    def test_constant_offset_beyond_bound(self):
        a, b = _const_track(4096, 0), _const_track(4096, RP.eps0 + 1)
        ok, dev = sync_check([a, b], 0, 5000, RP, self.L)
        assert not ok and dev == RP.eps0 + 1

    def test_wraparound_distance(self):
        a, b = _const_track(4096, 0), _const_track(4096, 4096 - 2)
        ok, dev = sync_check([a, b], 0, 5000, RP, self.L)
        assert ok and dev == 2

    def test_transient_jump_between_grid_points_caught(self):
        a, b = _const_track(4096, 0), _const_track(4096, 0)
        b.record(t=23, old=0, new=RP.eps0 + 5)   # off-grid excursion
        b.record(t=27, old=RP.eps0 + 5, new=0)   # back before the next sample
        ok, dev = sync_check([a, b], 0, 5000, RP, self.L)
        assert not ok and dev == RP.eps0 + 5

    def test_rate_drift_violation(self):
        # One clock gains eps0 ticks by adjustment every cycle: precision
        # against a single clock cannot flag it, the rate condition must.
        tr = _const_track(4096, 0)
        step = 4 * RP.eps0
        for j in range(1, 8):
            t = j * (RP.T * self.L) // 4
            tr.record(t=t, old=(j - 1) * step % 4096, new=j * step % 4096)
        ok, _dev = sync_check([tr], 0, 3 * RP.T * self.L, RP, self.L)
        assert not ok

    def test_rate_slow_violation(self):
        tr = _const_track(4096, 0)
        step = 4 * RP.eps0
        for j in range(1, 8):
            t = j * (RP.T * self.L) // 4
            tr.record(t=t, old=-(j - 1) * step % 4096, new=-j * step % 4096)
        ok, _dev = sync_check([tr], 0, 3 * RP.T * self.L, RP, self.L)
        assert not ok

    @pytest.mark.parametrize("where", [0.25, 0.75])
    def test_rate_violation_in_either_half_of_a_window(self, where):
        # A window exactly T_max long is checked as one span: an excursion
        # confined to either half of it breaks the rate condition.
        delta = math.ceil(RP.dv.T_max * RP.sys.T_H * self.L)
        t1 = 3 * delta
        tr = _const_track(4096, 0)
        t = t1 + int(where * delta)
        tr.record(t=t, old=0, new=2 * RP.eps0)
        tr.record(t=t + 5, old=2 * RP.eps0, new=0)
        assert sync_check([tr], t1, t1 + delta, RP, self.L) == (False, 0)
        assert sync_check([tr], t1, t1 + delta, RP, self.L) == \
            reference_sync_check([tr], t1, t1 + delta, RP, self.L)

    def test_steady_clocks_pass_rate_condition(self):
        ok, dev = sync_check([_const_track(4096, 5), _const_track(4096, 7)],
                             0, 20 * RP.T * self.L, RP, self.L)
        assert ok and dev == 2


# ---- brute-force verdict oracle ----------------------------------------------


def _cum_at(tr, t, side):
    """Hardware ticks plus the signed cumulative adjustment at instant t,
    read just before ("left") or just after ("right") any jump at t."""
    idx = (bisect_right if side == "right" else bisect_left)(tr.jump_times, t)
    return tr.clock.ticks_at(t) + (tr.jump_cum[idx - 1] if idx else 0)


def oracle_sync_check(tracks, t1, t2, rp, L, eps0=None):
    """sync_check by enumeration: every sample, every pair of clocks, and
    every pair of readings inside each rate span."""
    eps0 = rp.eps0 if eps0 is None else eps0
    THL = int(rp.sys.T_H * L)
    samples = {t for t in range(t1, t2 + 1) if t % THL == 0}
    samples |= {t for tr in tracks for t in tr.jump_times if t1 <= t <= t2}
    samples = sorted(samples)
    if not samples:
        return True, 0

    max_dev = 0
    for t in samples:
        for side in ("left", "right"):
            vals = [tr.value_at(t, side) for tr in tracks]
            for a, b in itertools.combinations(vals, 2):
                max_dev = max(max_dev, ring_dist(a, b, rp.tau_max))
    if max_dev > eps0:
        return False, max_dev

    # Rate: between any two readings of one clock inside a span, elapsed
    # ticks deviate from elapsed time (in units of T_H) by at most
    # rho*elapsed + eps0.  Readings at one instant go pre-jump first.
    # Scaled by THL and by the denominator of rho to stay in integers.
    pr, qr = rp.rho.numerator, rp.rho.denominator
    delta = math.ceil(rp.dv.T_max * rp.sys.T_H * L)
    starts = list(range(t1, t2, delta))
    starts += [s + delta // 2 for s in starts]
    for tr in tracks:
        for s0 in starts:
            span = [t for t in samples if s0 <= t <= min(s0 + delta, t2)]
            if len(span) < 2:
                continue
            reads = [(t, _cum_at(tr, t, side)) for t in span for side in ("left", "right")]
            for (ta, ua), (tb, ub) in itertools.combinations(reads, 2):
                elapsed = tb - ta
                if abs((ub - ua) * THL - elapsed) * qr > pr * elapsed + eps0 * THL * qr:
                    return False, max_dev
    return True, max_dev


# A small system so each rate span holds a few dozen samples and the
# quadratic oracle stays cheap: T = 12 ticks, T_max = 24.24 ticks.
SMALL_RP = resolve(
    SystemParams(n0=4, n1=3, f0=1, f1=1, tau_max=64, T_H=Fraction(1),
                 rho=Fraction(1, 100), d_max=Fraction(1, 2), T0=8, a0=3,
                 eps0=2, eps1=3, eps2=4),
    TTSchedule(vc_send=(0, 1), mc_recv=(2, 3), c_send=(4, 5), c_recv=(6, 7)),
)
SMALL_L = 100                                   # subticks per T_H
SMALL_DELTA = math.ceil(SMALL_RP.dv.T_max * SMALL_L)


@st.composite
def checked_windows(draw):
    """Tracks with jump histories and a window [t1, t2], t1 > 0, with jumps
    before t1 and, at will, jumps exactly at t1 and at t2."""
    tau = SMALL_RP.tau_max
    t1 = draw(st.integers(1, 3 * SMALL_DELTA))
    t2 = t1 + draw(st.integers(0, 2 * SMALL_DELTA))
    base = draw(st.integers(0, tau - 1))
    # Half the cases keep every clock close to a common reading and at the
    # nominal rate, so passing verdicts are as common as failing ones.
    near = st.integers(0, 1).map(lambda d: (base + d) % tau)
    offset = st.integers(0, tau - 1) if draw(st.booleans()) else near
    period = st.integers(SMALL_L - 1, SMALL_L + 1) if draw(st.booleans()) \
        else st.just(SMALL_L)
    tracks = []
    for _ in range(draw(st.integers(1, 4))):
        clk = HardwareClock(t_ref=-draw(st.integers(0, SMALL_L - 1)),
                            period=draw(period), h0=0, tau=tau)
        tr = ClockTrack(clk, draw(offset))
        times = draw(st.lists(st.integers(0, t2 + SMALL_DELTA), max_size=12))
        times += [t for t in (t1, t2) if draw(st.booleans())]
        # Early history may wander anywhere, so the shift carried into the
        # window is arbitrary; jumps shortly before t1 can bring it back.
        for t in sorted(times):
            new = draw(st.integers(0, tau - 1) if t < t1 - 4 * SMALL_L else offset)
            tr.record(t=t, old=tr.jump_offsets[-1] if tr.jump_offsets else tr.offset0,
                      new=new)
        tracks.append(tr)
    return tracks, t1, t2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(checked_windows())
def test_sync_check_matches_oracle(case):
    tracks, t1, t2 = case
    assert sync_check(tracks, t1, t2, SMALL_RP, SMALL_L) == \
        oracle_sync_check(tracks, t1, t2, SMALL_RP, SMALL_L)


@pytest.mark.parametrize("hold", [6, RP.eps0 + 1])
def test_window_after_history(hold):
    # Every window looks the same up to a common shift: a gains 3 ticks at
    # mid-window; b runs 2 ticks ahead of a, except that it holds `hold`
    # ticks ahead from just before each window start until an eighth into
    # the window.  Window k, after 5k earlier jumps, must get the verdict
    # of window 0, where no jump precedes it.
    L, W, k, tau = 10, 2560, 2000, 4096
    a = _const_track(tau, 0, period=L)
    b = _const_track(tau, hold, period=L)
    for j in range(k + 1):
        c = 3 * j
        a.record(t=j * W + W // 2, old=c % tau, new=(c + 3) % tau)
        b.record(t=j * W + W // 8, old=(c + hold) % tau, new=(c + 2) % tau)
        b.record(t=j * W + W // 2 + 1, old=(c + 2) % tau, new=(c + 5) % tau)
        b.record(t=(j + 1) * W - L // 2, old=(c + 5) % tau, new=(c + 3 + hold) % tau)
    want = (hold <= RP.eps0, hold)
    assert sync_check([a, b], 0, W, RP, L) == want
    assert sync_check([a, b], k * W, (k + 1) * W, RP, L) == want
    assert oracle_sync_check([a, b], k * W, (k + 1) * W, RP, L) == want


# ---- differential reference: the per-track checker ---------------------------
#
# The checker as it was before it stacked every track into one matrix: one
# bisection, one set of arrays and one pass of numpy calls per track, per
# side and per span.  The matrix form must give the same (verdict, max_dev)
# on every input.


def _ref_window(tr: ClockTrack, t1: int, t2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The jumps of tr inside [t1, t2]: their times, and the offset and
    cumulative shift in force after each, led by the values carried in from
    before t1.  Any sample in [t1, t2] indexes this slice exactly as it
    would the whole history."""
    jt = tr.jump_times
    lo, hi = bisect_left(jt, t1), bisect_right(jt, t2)
    off0, cum0 = (tr.jump_offsets[lo - 1], tr.jump_cum[lo - 1]) if lo else (tr.offset0, 0)
    return (np.array(jt[lo:hi], dtype=np.int64),
            np.array([off0, *tr.jump_offsets[lo:hi]], dtype=np.int64),
            np.array([cum0, *tr.jump_cum[lo:hi]], dtype=np.int64))


def _ref_samples(t1: int, t2: int, THL: int, jumps: list[np.ndarray]) -> np.ndarray:
    grid = np.arange(-(-t1 // THL) * THL, t2 + 1, THL, dtype=np.int64)
    if any(jt.size for jt in jumps):
        return np.unique(np.concatenate([grid, *jumps]))
    return grid


def _ref_values(clk: HardwareClock, win: tuple, ts: np.ndarray, side: str) -> np.ndarray:
    jt, offs, _cum = win
    ticks = (ts - clk.t_ref) // clk.period
    return (clk.h0 + ticks + offs[np.searchsorted(jt, ts, side=side)]) % clk.tau


def _ref_cums(clk: HardwareClock, win: tuple, ts: np.ndarray, side: str) -> np.ndarray:
    jt, _offs, cum = win
    return (ts - clk.t_ref) // clk.period + cum[np.searchsorted(jt, ts, side=side)]


def reference_sync_check(tracks, t1, t2, rp, L, eps0=None):
    if t1 > t2:
        raise ConfigurationError("empty check interval")
    eps0 = rp.eps0 if eps0 is None else eps0
    tau = rp.tau_max
    THL = int(rp.sys.T_H * L)
    wins = [_ref_window(tr, t1, t2) for tr in tracks]
    ts = _ref_samples(t1, t2, THL, [jt for jt, _offs, _cum in wins])
    if ts.size == 0:
        return True, 0

    max_dev = 0
    if len(tracks) > 1:
        for side in ("left", "right"):
            V = np.stack([_ref_values(tr.clock, win, ts, side) for tr, win in zip(tracks, wins)])
            for a in range(len(tracks)):
                d = (V[a] - V[a + 1:]) % tau
                d = np.minimum(d, tau - d)
                if d.size:
                    max_dev = max(max_dev, int(d.max()))
        if max_dev > eps0:
            return False, max_dev

    # Rate condition, exact integer arithmetic: scale by T_H*L and by the
    # denominator of rho so both sides are integers.
    pr, qr = rp.rho.numerator, rp.rho.denominator
    bound = eps0 * THL * qr
    delta = math.ceil(rp.dv.T_max * rp.sys.T_H * L)
    starts = list(range(t1, t2, delta))
    starts += [s + delta // 2 for s in starts]
    for tr, win in zip(tracks, wins):
        u_l = _ref_cums(tr.clock, win, ts, "left")
        u_r = _ref_cums(tr.clock, win, ts, "right")
        for s0 in starts:
            m = (ts >= s0) & (ts <= min(s0 + delta, t2))
            if m.sum() < 2:
                continue
            s_rel = ts[m] - s0
            # Interleave pre/post readings at each instant, pre first.
            u = np.empty(2 * int(m.sum()), dtype=np.int64)
            u[0::2], u[1::2] = u_l[m], u_r[m]
            u -= u[0]
            s2 = np.repeat(s_rel, 2)
            e = u * (THL * qr) - s2 * (qr + pr)
            f = -u * (THL * qr) + s2 * (qr - pr)
            if int((e - np.minimum.accumulate(e)).max()) > bound:
                return False, max_dev
            if int((f - np.minimum.accumulate(f)).max()) > bound:
                return False, max_dev
    return True, max_dev


@st.composite
def stacked_windows(draw):
    """0 to 6 tracks, each with its own tick origin, period and initial
    reading, and a window [t1, t2] that may start anywhere: the shapes
    whose columns the checker broadcasts and whose jumps it keys apart."""
    tau = SMALL_RP.tau_max
    t1 = draw(st.integers(0, 4 * SMALL_DELTA))
    t2 = t1 + draw(st.sampled_from([0, 1, SMALL_L - 1, SMALL_L, SMALL_DELTA // 2,
                                    SMALL_DELTA, 2 * SMALL_DELTA + 7]))
    base = draw(st.integers(0, tau - 1))
    near = draw(st.booleans())
    period = st.integers(SMALL_L - 2, SMALL_L + 2) if draw(st.booleans()) \
        else st.just(SMALL_L)
    shared = draw(st.lists(st.integers(t1, t2), max_size=3))   # instants several tracks jump at
    tracks = []
    for _ in range(draw(st.sampled_from([5, 0, 1, 2, 3, 4, 5, 6]))):
        clk = HardwareClock(t_ref=draw(st.integers(-3 * SMALL_L, 2 * SMALL_L)),
                            period=draw(period),
                            h0=draw(st.integers(0, tau - 1)), tau=tau)
        value = st.integers(0, 1).map(lambda d: (base + d) % tau) if near \
            else st.integers(0, tau - 1)
        tr = ClockTrack(clk, draw(value))
        times = draw(st.lists(st.integers(0, t2 + SMALL_DELTA), max_size=10))
        times += draw(st.lists(st.sampled_from(shared), max_size=2)) if shared else []
        for t in sorted(times):
            tr.record(t=t, old=tr.jump_offsets[-1] if tr.jump_offsets else tr.offset0,
                      new=draw(value))
        tracks.append(tr)
    eps0 = draw(st.sampled_from([None, 0, 5, tau // 2]))
    return tracks, t1, t2, eps0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stacked_windows())
def test_sync_check_matches_reference(case):
    tracks, t1, t2, eps0 = case
    assert sync_check(tracks, t1, t2, SMALL_RP, SMALL_L, eps0=eps0) == \
        reference_sync_check(tracks, t1, t2, SMALL_RP, SMALL_L, eps0=eps0)


@pytest.mark.parametrize("init", ["synchronized", "random"])
@pytest.mark.parametrize("name", ["silent", "random_noise", "max_skew", "split_brain"])
def test_recorded_windows_match_reference(name, init):
    # The harness's own input: the honest planes and terminals of a run of
    # the reference system, checked after every window.
    w = World(RP, make_adversary(name), seed=3, init_policy=init, trace_level="off")
    verdicts = set()
    for k in range(30):
        w.run_until_window(k + 1)
        args = (w.qap_tracks(), k * w.window, (k + 1) * w.window, RP, w.L)
        got = sync_check(*args)
        assert got == reference_sync_check(*args), f"window {k}"
        verdicts.add(got[0])
    w.close()
    if init == "random":
        assert verdicts == {False, True}   # chaotic start, then synchronized
    else:
        assert verdicts == {True}


class TestSyncCheckEdges:
    """Inputs at the edges of the sample matrix; each verdict is stated and
    checked against the per-track reference too."""

    L = 10

    def both(self, tracks, t1, t2, **kw):
        got = sync_check(tracks, t1, t2, RP, self.L, **kw)
        assert got == reference_sync_check(tracks, t1, t2, RP, self.L, **kw)
        return got

    def test_no_tracks(self):
        assert self.both([], 0, 5000) == (True, 0)
        assert self.both([], 3, 3) == (True, 0)

    def test_single_track_skips_precision_not_rate(self):
        far = _const_track(4096, 2000)
        assert self.both([far], 0, 5000) == (True, 0)
        tr = _const_track(4096, 0)
        step = 4 * RP.eps0
        for j in range(1, 8):
            tr.record(t=j * (RP.T * self.L) // 4, old=(j - 1) * step % 4096,
                      new=j * step % 4096)
        assert self.both([tr], 0, 3 * RP.T * self.L) == (False, 0)

    def test_no_jump_inside_the_window(self):
        a, b, c = (_const_track(4096, 0) for _ in range(3))
        a.record(t=5, old=0, new=3)                  # carried in from before t1
        c.record(t=6000, old=0, new=100)             # only after t2
        assert self.both([a, b, c], 100, 5000) == (True, 3)
        assert self.both([a, b, c], 100, 5000, eps0=2) == (False, 3)

    def test_single_instant(self):
        a, b = _const_track(4096, 0), _const_track(4096, RP.eps0 + 1)
        assert self.both([a, b], 50, 50) == (False, RP.eps0 + 1)   # on the grid
        assert self.both([a, b], 55, 55) == (True, 0)              # no sample at all
        b.record(t=55, old=RP.eps0 + 1, new=1)
        assert self.both([a, b], 55, 55) == (False, RP.eps0 + 1)   # the jump is the sample

    def test_span_with_fewer_than_two_samples(self):
        # One sample in the window: no rate pair exists, even for a clock
        # that jumps far at that instant.
        a = _const_track(4096, 0)
        a.record(t=5, old=0, new=1000)
        assert self.both([a], 1, 9) == (True, 0)
        # Two samples in the first span, none in the half-shifted one.
        assert self.both([a, _const_track(4096, 1000)], 0, 15) == (False, 1000)

    def test_first_sample_past_t1(self):
        a, b = _const_track(4096, 0), _const_track(4096, 0)
        b.record(t=2, old=0, new=RP.eps0 + 1)        # before t1: carried in
        b.record(t=25, old=RP.eps0 + 1, new=1)
        assert self.both([a, b], 3, 5000) == (False, RP.eps0 + 1)
        assert self.both([a, b], 26, 5000) == (True, 1)
