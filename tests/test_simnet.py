"""Simulator tests: event engine, clock staircases, round machinery,
message policing, and the synchronization verdict."""

import ast
import dataclasses
import gc
import hashlib
import heapq
import inspect
import itertools
import json
import math
import os
import random
import re
import sys
import tracemalloc
import weakref
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planesync import ftcore, protocol, ring, simnet
from planesync.adversaries import BUILTINS, Adversary, make_adversary
from planesync.errors import ConfigurationError, SimulationError
from planesync.harness import reference_scenario, run_once
from planesync.params import Resolved, SystemParams, TTSchedule, resolve, validate
from planesync.protocol import MwsState, TTMessageUp, mes_on_begin_vc_send, next_sig_tick
from planesync.ring import ring_dist
from planesync.simnet import (
    K_ADV,
    K_DELIVER,
    K_SLOT,
    K_WATCHDOG,
    QUANT,
    ClockTrack,
    FULL_ONLY,
    Engine,
    HardwareClock,
    Trace,
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


def _records(w):
    """The records of w's trace, each line parsed."""
    return [json.loads(line) for line in w.trace.records]


@pytest.mark.same_bytes
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 3),
                              st.integers(0, 2)),
                    min_size=1, max_size=12, unique_by=lambda step: step[1:]),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2),
                              st.integers(K_WATCHDOG, K_ADV)), max_size=8),
           st.data())
    def test_slot_steps_run_by_their_round(self, steps, others, data):
        # Slot steps (t, rank, serial, step), pushed straight onto the heap
        # in any order, each at any instant before its own, among scheduled
        # events of the other kinds: all run in (t, rank, kind, serial, step)
        # order, the scheduled ones by insertion order on a full tie.
        eng, got = Engine(), []
        for j, (t, rank, kind) in enumerate(others):
            eng.schedule(t, rank, kind, got.append, ("other", j))
        for t, rank, serial, step in data.draw(st.permutations(steps)):
            entry = (t, rank, K_SLOT, 3 * serial + step, got.append,
                     (("slot", rank, serial, step),))
            at = data.draw(st.integers(-1, t - 1))     # -1: before the run starts
            if at < 0:
                heapq.heappush(eng._heap, entry)
            else:
                eng.schedule(at, 9, K_ADV, heapq.heappush, eng._heap, entry)
        eng.run_until(10)
        want = sorted([((t, rank, kind, j), ("other", j))
                       for j, (t, rank, kind) in enumerate(others)] +
                      [((t, rank, K_SLOT, serial, step), ("slot", rank, serial, step))
                       for t, rank, serial, step in steps])
        assert got == [name for _order, name in want]

    def test_slot_step_ties_run_by_round(self, monkeypatch):
        # A silent run has slot steps of two rounds at one node and instant;
        # they run in the order the rounds began, then in slot order.
        popped = []

        def heappop(heap):
            entry = heapq.heappop(heap)
            popped.append(entry[:4])
            return entry
        monkeypatch.setattr(simnet, "heapq", SimpleNamespace(heappush=heapq.heappush,
                                                             heappop=heappop))
        World(RP, make_adversary("silent"), seed=1).run_until_window(100)
        ties = [(divmod(a[3], 3), divmod(b[3], 3)) for a, b in zip(popped, popped[1:])
                if a[:3] == b[:3] and a[2] == K_SLOT]
        assert ties and all(first < second for first, second in ties)


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

    def __init__(self, c_vec=(1, 2, 3), m_vec=(1, 2, 3), a_vec=(3, 3, 3)):
        super().__init__()
        self.c_vec, self.m_vec, self.a_vec = c_vec, m_vec, a_vec

    def faulty_mes_round(self, i, p, anchor):
        w = self.world
        junk = TTMessageUp(c_vec=self.c_vec, a_vec=self.a_vec, m_vec=self.m_vec)
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
                w.adv_deliver_down(pf, i, self.m, w.mes_round[i][pf].b_recv)

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
        drops = [r for r in _records(w) if r["ev"].startswith("drop")]
        assert drops == []

    def test_out_of_slot_send_dropped(self):
        w = _Closed(RP, _LateSender(), seed=3, init_policy="synchronized",
                    trace_level="full")
        w.run_until_window(3)
        faulty = next(iter(w.faulty_mes))
        drops = [r for r in _records(w)
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
                       for r in _records(w))
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
        for rounds in self.mes_round:   # no round yet: nothing is taken
            for rnd in rounds or ():
                rnd.closed = True

    def _on_begin_vc(self, i, p, rnd):
        if self.mes_round[i][p] is not rnd:
            return
        send_t = self.engine.now
        msg = mes_on_begin_vc_send(self.mes[i], self.clocks[self.rp.n1 + i].h_at(send_t),
                                   self.rp)
        if p in self.faulty_planes:
            self.adversary.on_up_to_faulty(i, p, msg, send_t)
            return
        k = simnet._count("choose_delay", "delay", self._choose_delay(self.rp.n1 + i, p), 1)
        arrival = send_t + k * self.delay_quantum
        self.trace.send_up(t=send_t, mes=i, plane=p, arrival=arrival)
        self.engine.schedule(arrival, p, K_DELIVER, self._deliver_up, p, send_t, i, msg)

    def _on_begin_cs(self, p, rnd, t_end_cs):
        t = self.engine.now
        for i in range(self.rp.n0):
            if i in self.faulty_mes:
                continue
            k = simnet._count("choose_delay", "delay", self._choose_delay(p, p), 1)
            arrival = t + k * self.delay_quantum
            self.trace.send_down(t=t, plane=p, to=i, m=rnd.c_new, arrival=arrival)
            self.engine.schedule(arrival, self.rp.n1 + i, K_DELIVER,
                                 self._deliver_down, p, i, rnd.c_new)

    def _on_end_mc(self, p, rnd):
        rnd.closed = True
        super()._on_end_mc(p, rnd)

    def _on_end_cr(self, i, p, rnd):
        if self.mes_round[i][p] is rnd:
            rnd.closed = True
        super()._on_end_cr(i, p, rnd)

    def _deliver_up(self, p, send_t, i, msg):
        rnd = self.plane_round[p]
        if rnd is None:
            return
        if not (rnd.anchor + self._police_lo <= send_t <= rnd.anchor + self._police_hi):
            self.trace.drop_up(t=self.engine.now, plane=p, mes=i, why="outside policed slot")
        elif getattr(rnd, "closed", False):
            self.trace.drop_up(t=self.engine.now, plane=p, mes=i, why="late")
        else:
            rnd.relays.setdefault(i, msg)

    def _deliver_down(self, p, i, m):
        rnd = self.mes_round[i][p]
        now = self.engine.now
        if getattr(rnd, "closed", False) or now < rnd.anchor:
            self.trace.drop_down(t=now, plane=p, mes=i, why="no round")
        elif now < rnd.b_recv:
            if not rnd.buffer:      # the slot-begin step ingests the buffer
                heapq.heappush(self._heap, (rnd.b_recv, self.rp.n1 + i, K_SLOT, rnd.seq_cr,
                                            self._on_begin_cr, (i, p, rnd)))
            rnd.buffer.append(m)
        else:
            protocol.mes_on_clock_msg(self.mes[i], p, m, self.clocks[self.rp.n1 + i].h_at(now),
                                      self.rp)
            self.trace.recv_down(t=now, mes=i, plane=p, m=m)


def _assert_same_run(w, ref, windows, case):
    """Run w and the reference ref for `windows` windows: the same records,
    coin tosses, clock tracks and node states."""
    w.run_until_window(windows)
    ref.run_until_window(windows)
    assert w.trace.records == ref.trace.records, case
    assert w.toss_log == ref.toss_log, case
    for k, (tr, other) in enumerate(zip(w.qap_tracks(), ref.qap_tracks())):
        assert (tr.jump_times, tr.jump_cum) == (other.jump_times, other.jump_cum), (case, k)
    assert w.mws == ref.mws, case
    assert {i: vars(st) for i, st in w.mes.items()} == \
        {i: vars(st) for i, st in ref.mes.items()}, case


@pytest.mark.same_bytes
class TestSendTimeDelivery:
    def test_matches_event_delivery(self):
        # Every built-in adversary, plus faulty terminals whose relays are
        # refused for each upward reason: the same records, the refusals
        # included, as the reference.
        events = ref_events = 0
        whys = set()
        adversaries = [*(lambda n=n: make_adversary(n) for n in BUILTINS),
                       _LateSender, _LateRelay]
        for adversary, init, seed in itertools.product(adversaries, ("synchronized", "random"),
                                                       (1, 2, 3)):
            w, ref = (cls(RP, adversary(), seed=seed, init_policy=init, trace_level="full")
                      for cls in (World, _EventDelivery))
            _assert_same_run(w, ref, 100, (w.adversary.name, init, seed))
            whys |= {r["why"] for r in _records(w) if r["ev"] == "drop_up"}
            if w.adversary.name in BUILTINS:
                events += w.engine._seq
                ref_events += ref.engine._seq
        assert events <= 0.75 * ref_events
        assert whys == TRACE_STRINGS["why"] - {"no round"}

    def test_every_slot_begin_step_finds_a_value(self, monkeypatch):
        # A terminal round pushes its slot-begin step with its first buffered
        # value, so each one that runs has a value to ingest.
        class Probe(World):
            def __init__(self, *args, **kwargs):
                self.found = []
                super().__init__(*args, **kwargs)

            def _on_begin_cr(self, i, p, rnd):
                self.found.append(len(rnd.buffer))
                super()._on_begin_cr(i, p, rnd)

        events = _count_events_run(monkeypatch)
        found = []
        for name, init, seed in itertools.product(BUILTINS, ("synchronized", "random"),
                                                  (1, 2, 3)):
            w = Probe(RP, make_adversary(name), seed=seed, init_policy=init)
            w.run_until_window(100)
            found += w.found
        assert found and min(found) > 0
        assert events["run"] == 149914

    def test_value_inside_the_receive_slot_ingested_on_arrival(self, monkeypatch):
        # Receive slots open as the plane's send slot ends, plane clocks run
        # fast and terminal clocks slow, no skew, the longest delay: every
        # honest clock value arrives inside the terminal's receive slot,
        # before the plane's send slot ends.  It takes the delivery event
        # and is ingested on arrival, at the hardware reading of that instant.
        sched = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34),
                           c_recv=(34, 48))
        rp = resolve(dataclasses.replace(RP.sys, d_max=Fraction(4)), sched)

        class LongDelay(Adversary):
            def choose_period(self, rank):
                return self.world.drift_steps * (1 if rank < rp.n1 else -1)

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

        def mes_on_clock_msg(state, p, m, h_now, rp):
            # Every ingestion, on arrival or at slot begin.
            protocol.mes_on_clock_msg(state, p, m, h_now, rp)
            if p in w.honest_planes:
                i = next(i for i, st in w.mes.items() if st is state)
                w.ingested.append((w.engine.now, i, p, state.h_rec[p],
                                   w.mes_round[i][p].b_recv))

        monkeypatch.setattr(simnet, "mes_on_clock_msg", mes_on_clock_msg)
        w = Probe(rp, LongDelay(), seed=3, init_policy="synchronized", trace_level="full")
        w.run_until_window(3)
        records = _records(w)
        arrivals = sorted((r["arrival"], r["to"], r["plane"])
                          for r in records if r["ev"] == "send_down")
        assert arrivals and not any(r["ev"] == "drop_down" for r in records)
        assert sorted(w.delivered) == arrivals
        assert sorted(rec[:3] for rec in w.ingested) == arrivals
        for t, i, p, h_rec, b_recv in w.ingested:
            assert b_recv < t
            assert h_rec == (w.clocks[rp.n1 + i].h_at(t) + rp.dv.delta_tt0) % rp.tau_max

    def test_value_at_the_slot_opening_ingested_after_a_buffered_one(self):
        # A faulty plane sends each honest terminal one value a subtick
        # before its receive slot opens and one as it opens.  The first is
        # buffered and ingested by the slot-begin step, which runs before
        # any delivery at b_recv; the second arrives after that step and is
        # ingested on arrival, at the same instant.
        class TwoValues(Adversary):
            def setup(self):
                w = self.world
                pf = next(iter(w.faulty_planes))

                def fire():
                    w.faulty_sig(pf, w.engine.now)
                    for i in w.honest_mes:
                        b_recv = w.mes_round[i][pf].b_recv
                        w.adv_deliver_down(pf, i, 5, b_recv - 1)
                        w.adv_deliver_down(pf, i, 6, b_recv)

                w.schedule_adv(w.THL, fire)

        w = World(RP, TwoValues(), seed=3, init_policy="synchronized", trace_level="full")
        pf = next(iter(w.faulty_planes))
        w.run_until_window(1)
        got = sorted(((r["mes"], r["t"], r["m"]) for r in _records(w)
                      if r["ev"] == "recv_down" and r["plane"] == pf), key=lambda g: g[0])
        assert got == [(i, w.mes_round[i][pf].b_recv, m) for i in sorted(w.honest_mes)
                       for m in (5, 6)]


class _WorstTiming(Adversary):
    """The latest honest arrival, upward or downward.  Upward: planes fast,
    terminals slow, the largest skew.  Downward: planes slow, terminals
    fast, no skew.  The longest delay either way; faulty nodes are silent."""

    name = "worst_timing"

    def __init__(self, up):
        super().__init__()
        self.up = up

    def choose_period(self, rank):
        plane_fast = (rank < self.rp.n1) == self.up
        return -self.world.drift_steps if plane_fast else self.world.drift_steps

    def choose_skew(self, i, p):
        return QUANT if self.up else 0

    def choose_delay(self, sender, p):
        return QUANT


def _honest_drops(w, ev):
    """w's drop records of kind ev ("drop_up" or "drop_down") for a message
    an honest node sent."""
    key, senders = ("mes", w.honest_mes) if ev == "drop_up" else ("plane", w.honest_planes)
    return [r for r in _records(w) if r["ev"] == ev and r[key] in senders]


UPWARD = "an honest relay can miss collection"
DOWNWARD = "an honest clock value can miss its receive slot"


class TestTimingRules:
    """validate's upward and downward timing rules are exact.  At a rule's
    boundary, the event-delivery reference drops an honest message under the
    worst timing.  1/16 below it, validate accepts, no honest message is
    dropped, and the World, which stores every honest relay at send time,
    runs exactly as the reference."""

    @staticmethod
    def _runs(rp, up, boundary):
        for init in ("synchronized", "random"):
            ref = _EventDelivery(rp, _WorstTiming(up), seed=1, init_policy=init,
                                 trace_level="full")
            if boundary:
                ref.run_until_window(30)
            else:
                w = World(rp, _WorstTiming(up), seed=1, init_policy=init, trace_level="full")
                _assert_same_run(w, ref, 30, init)
            yield ref

    def test_upward_boundary(self):
        # The reference schedule's eps_rnd boundary: 24 (1 - rho) - 6 (1 + rho) - 2.
        sys, sched = RP.sys, RP.sched
        eps = Fraction(1597, 100)
        assert validate(dataclasses.replace(sys, eps_rnd=eps - Fraction(1, 16)), sched).ok
        refused = validate(dataclasses.replace(sys, eps_rnd=eps), sched).violations
        assert len(refused) == 1 and refused[0].startswith(UPWARD)
        for at, boundary in ((eps, True), (eps - Fraction(1, 16), False)):
            rp = dataclasses.replace(RP, dv=dataclasses.replace(RP.dv, eps_rnd=at))
            for w in self._runs(rp, True, boundary):
                drops = _honest_drops(w, "drop_up")
                if boundary:
                    assert drops and {r["why"] for r in drops} == {"late"}
                else:
                    assert drops == []

    def test_downward_boundary(self):
        # The d_max boundary of c_send (60, 62) -> c_recv (62, 64) at rho
        # 1/100: 64 (1 - rho) - 60 (1 + rho).  Both sides have 3 d_max ticks,
        # so the tick rule passes both.
        sched = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(60, 62), c_recv=(62, 64))
        d_max = Fraction(69, 25)
        below = resolve(dataclasses.replace(RP.sys, rho=Fraction(1, 100),
                                            d_max=d_max - Fraction(1, 16)), sched)
        refused = validate(dataclasses.replace(below.sys, d_max=d_max), sched).violations
        assert len(refused) == 1 and refused[0].startswith(DOWNWARD)
        for at, boundary in ((d_max, True), (d_max - Fraction(1, 16), False)):
            rp = dataclasses.replace(below, sys=dataclasses.replace(below.sys, d_max=at))
            for w in self._runs(rp, False, boundary):
                drops = _honest_drops(w, "drop_down")
                assert bool(drops) == boundary
                assert all(r["why"] == "no round" for r in drops)

    @settings(max_examples=25, deadline=None)
    @example(6, 24, Fraction(1, 1000), 8, 0)        # the reference, at the boundary
    @example(6, 24, Fraction(1, 1000), 8, -1)
    @given(st.integers(0, 8), st.integers(16, 26),
           st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 200), Fraction(1, 100)]),
           st.integers(4, 12), st.integers(-16, 2))
    def test_accepted_scenarios_store_honest_relays_on_time(self, vc0, mc1, rho, d4, k):
        # eps_rnd k/16 off the upward boundary: validate accepts exactly
        # below it (no other rule binds in this range), and an accepted
        # scenario runs under the worst upward timing as the reference does,
        # with no message dropped.
        sched = TTSchedule(vc_send=(vc0, vc0 + 4), mc_recv=(14, mc1), c_send=(30, 34),
                           c_recv=(38, 48))
        d_max = Fraction(d4, 4)
        eps = mc1 * (1 - rho) - vc0 * (1 + rho) - d_max + Fraction(k, 16)
        params = dataclasses.replace(RP.sys, rho=rho, d_max=d_max, eps_rnd=eps)
        assert validate(params, sched).ok == (k < 0)
        if k < 0:
            rp = resolve(params, sched)
            w, ref = (cls(rp, _WorstTiming(True), seed=1, init_policy="synchronized",
                          trace_level="full") for cls in (World, _EventDelivery))
            _assert_same_run(w, ref, 8, (vc0, mc1, rho, d_max, k))
            assert not any(r["ev"].startswith("drop") for r in _records(w))


def _count_calls(monkeypatch, funcs):
    """Count the calls of each function in funcs by name, wherever a
    planesync module looks it up."""
    counts = Counter()
    for fn in funcs:
        def counted(*args, fn=fn):
            counts[fn.__name__] += 1
            return fn(*args)
        for mod in (simnet, protocol, ftcore, ring):
            if vars(mod).get(fn.__name__) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    return counts


def _count_events_run(monkeypatch):
    """Count the entries Engine.run_until pops, under the key "run", through
    the heappop that simnet looks up."""
    counts = Counter()

    def heappop(heap):
        counts["run"] += 1
        return heapq.heappop(heap)
    monkeypatch.setattr(simnet, "heapq", SimpleNamespace(heappush=heapq.heappush,
                                                         heappop=heappop))
    return counts


@pytest.mark.same_bytes
class TestWorkCounts:
    """The work of 16 runs, counted: a change that adds or drops a step or a
    call on the per-round path moves one of these sums."""

    def test_work_is_pinned(self, monkeypatch):
        class Probe(World):
            def __init__(self, *args, **kwargs):
                self.honest_rounds = []     # (i, round) of each honest plane's round
                super().__init__(*args, **kwargs)

            def _start_member_rounds(self, p, t_sig):
                super()._start_member_rounds(p, t_sig)
                if p in self.honest_planes:
                    self.honest_rounds += [(i, self.mes_round[i][p]) for i in self.honest_mes]

        counts = _count_calls(monkeypatch, (ring.ring_med, ftcore.fta, ftcore.filters,
                                            ftcore.check_stb, protocol.mws_on_end_mc_recv,
                                            protocol.mes_on_begin_vc_send))
        events, vc0 = _count_events_run(monkeypatch), RP.sched.vc_send[0]
        for name, init, seed in itertools.product(BUILTINS, ("synchronized", "random"), (1, 2)):
            relays = counts["mes_on_begin_vc_send"]
            w = Probe(RP, make_adversary(name), seed=seed, init_policy=init)
            w.run_until_window(100)
            w.close()
            # One relay per honest terminal round of an honest plane whose
            # relay instant the run reached, and none toward a faulty plane.
            due = sum(rnd.anchor + vc0 * w.clocks[RP.n1 + i].period <= w.engine.now
                      for i, rnd in w.honest_rounds)
            assert counts["mes_on_begin_vc_send"] - relays == due, (name, init, seed)
        del counts["mes_on_begin_vc_send"]
        assert (events["run"], dict(counts)) == (99852, {
            "ring_med": 44508, "fta": 6384, "filters": 6400, "check_stb": 6400,
            "mws_on_end_mc_recv": 6400})

    def test_frames_are_pinned(self):
        # The Python frames the windows of the 16 runs above make, untraced:
        # the calls of functions defined in planesync, a generator's
        # resumptions included.  Names that start with "<" are left out:
        # 3.12 inlines comprehensions, so their frames depend on the version.
        root = str(Path(simnet.__file__).parent) + os.sep
        calls = 0

        def profile(frame, event, _arg):
            nonlocal calls
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(root) \
                    and not code.co_name.startswith("<"):
                calls += 1

        for name, init, seed in itertools.product(BUILTINS, ("synchronized", "random"), (1, 2)):
            w = World(RP, make_adversary(name), seed=seed, init_policy=init, trace_level="off")
            sys.setprofile(profile)
            try:
                w.run_until_window(100)
            finally:
                sys.setprofile(None)
            w.close()
        assert calls == 601500


class TestVerdictOnRead:
    """A switch that holds grandmaster lifetime and tosses a tail averages
    whatever the stability verdict says, so an untraced run decides the
    verdict only in the other rounds."""

    @pytest.mark.parametrize("init", ["synchronized", "random"])
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_untraced_run_decides_only_the_verdicts_it_reads(self, name, init, monkeypatch):
        counts = _count_calls(monkeypatch, (ftcore.filters, ftcore.check_stb))
        w = World(RP, make_adversary(name), seed=3, init_policy=init, trace_level="off")
        life = {p: w.mws[p].grand_life for p in w.honest_planes}
        w.run_until_window(60)
        w.close()
        reads = skips = 0
        for _t, p, b, gl in w.toss_log:
            if life[p] > 0 and b == 0:
                skips += 1
            else:
                reads += 1
            life[p] = gl
        assert skips > 0 and reads > 0
        assert counts == {"filters": reads, "check_stb": reads}

    @pytest.mark.parametrize("init", ["synchronized", "random"])
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_untraced_and_traced_runs_agree(self, name, init):
        sc = reference_scenario(adversary=name, init=init, horizon=60, stop_after_confirm=False)
        runs = [run_once(dataclasses.replace(sc, trace_level=level), 3)
                for level in ("off", "core")]
        assert runs[0] == runs[1]


class TestMidRoundCorruption:
    """Stabilization from a mid-round state: a synchronized run, its honest
    values all overwritten (conftest.corrupt) at a random instant inside
    window 20, confirms stability within the 40 windows from there."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_stabilizes_after_a_transient_fault(self, name, corrupt):
        sc = reference_scenario(init="synchronized")
        rp = sc.resolved
        confirm = sc.confirm_windows(rp)
        for seed in range(20):
            w = World(rp, make_adversary(name), seed=seed, init_policy="synchronized",
                      trace_level="off")
            rng = random.Random(seed)
            w.engine.run_until(20 * w.window + rng.randrange(w.window))
            corrupt(w, rng)
            w.run_until_window(60)
            w.close()
            run = 0
            for ok, _dev in sync_check(w.qap_tracks(), [k * w.window for k in range(20, 61)],
                                       rp, w.L):
                run = run + 1 if ok else 0
                if run == confirm:
                    break
            assert run == confirm, (name, seed)


class TestRounds:
    def test_sig_cadence_and_alignment(self):
        w = World(RP, make_adversary("silent"), seed=5,
                  init_policy="synchronized", trace_level="core")
        w.run_until_window(6)
        sigs = [r for r in _records(w) if r["ev"] == "sig" and r["c"] is not None]
        assert all(r["c"] % RP.T == 0 for r in sigs)
        for p in w.honest_planes:
            ts = [r["t"] for r in sigs if r["plane"] == p]
            period = w.clocks[p].period
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
            records = _records(w)
            for p in w.honest_planes:
                ts = [r["t"] for r in records if r["ev"] == "sig" and r["plane"] == p]
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
            recs = [(r["ev"], r["plane"]) for r in _records(w)
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
            records = _records(w)
            for p in w.honest_planes:
                seq = "".join(letter[r["ev"]] for r in records
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
                clk = w.clocks[p]
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

    def test_unknown_trace_level_refused_before_bind(self):
        adv = make_adversary("silent")
        with pytest.raises(ConfigurationError, match="unknown trace level 'verbose'"):
            World(RP, adv, seed=1, trace_level="verbose")
        assert adv.world is None

    @pytest.mark.parametrize("name", ["random_noise", "max_skew"])
    def test_skew_and_delay_hooks_see_every_draw(self, name):
        # The world binds choose_skew and choose_delay once, after bind: a
        # hook set on the adversary before the world is built, as the
        # benchmark's tracer sets its wrappers, and an override in a
        # subclass both get every call, and the run keeps its bytes.
        class Counting(type(make_adversary(name))):
            calls = 0

            def choose_skew(self, i, p):
                Counting.calls += 1
                return super().choose_skew(i, p)

            def choose_delay(self, sender, p):
                Counting.calls += 1
                return super().choose_delay(sender, p)

        wrapped = make_adversary(name)
        seen = []
        for hook in ("choose_skew", "choose_delay"):
            inner = getattr(wrapped, hook)
            setattr(wrapped, hook, lambda *a, inner=inner: seen.append(a) or inner(*a))
        traces = []
        for adv in (make_adversary(name), wrapped, Counting()):
            w = World(RP, adv, seed=5, init_policy="random", trace_level="full")
            w.run_until_window(6)
            w.close()
            traces.append(w.trace.to_jsonl())
        assert traces[0] == traces[1] == traces[2]
        sends = sum(r["ev"] in ("send_up", "send_down") for r in _records(w))
        assert len(seen) == Counting.calls > sends > 0

    @pytest.mark.parametrize("init", ["synchronized", "random"])
    def test_initial_states_on_ring(self, init):
        # Initial states are where clock values enter the ring: every one
        # lies in [0, tau_max), as wrap_* and the protocol take for granted.
        tau = RP.tau_max
        for seed in range(10):
            w = World(RP, make_adversary("silent"), seed=seed, init_policy=init)
            assert all(0 <= clk.h0 < tau for clk in w.clocks)
            for st in w.mws.values():
                assert 0 <= st.clock_offset < tau and 0 <= st.c_tilde_old < tau
                assert 0 <= st.tau_idl <= tau       # tau_max is the idle sentinel
            for st in w.mes.values():
                assert 0 <= st.clock_offset < tau
                for m, h in zip(st.m_rec, st.h_rec):
                    assert (m is None) == (h is None), (init, seed)
                    assert m is None or (0 <= m < tau and 0 <= h < tau), (init, seed)

    def test_out_of_range_period_clamped(self):
        # Counts at either end of the drift bound stand; counts past it are
        # clamped to that end.
        adv = make_adversary("silent")
        b = 1000   # rho = 1/1000 on a grid of 10**6 steps
        counts = [b, -b, b + 1, -b - 1, 10**9, -10**9, 0]
        adv.choose_period = lambda rank: counts[rank]
        w = World(RP, adv, seed=1, init_policy="synchronized")
        assert w.drift_steps == b
        T_H = RP.sys.T_H * w.L
        fast, slow = (1 + RP.rho) * T_H, (1 - RP.rho) * T_H
        assert [c.period for c in w.clocks] == [fast, slow, fast, slow, fast, slow, T_H]

    @pytest.mark.parametrize("rp", [
        RP,
        make_rp(eps_rnd=Fraction(0)),
        # rho's denominator does not divide DRIFT_DENOM, so the drift steps
        # are finer than T_H/DRIFT_DENOM; T_H, d_max and eps_rnd are not
        # integers.
        make_rp(T_H=Fraction(3, 2), rho=Fraction(1, 3000), d_max=Fraction(7, 3),
                eps_rnd=Fraction(5, 7)),
        make_rp(T_H=Fraction(2, 3), rho=Fraction(7, 9000), d_max=Fraction(5, 4),
                eps_rnd=Fraction(1, 3)),
    ], ids=["reference", "no-skew", "odd-3/2", "odd-2/3"])
    def test_integer_setup_matches_fraction_path(self, rp):
        # Every built-in adversary under both initial states and several
        # seeds, then counts that clamp at either end of the drift bound or
        # far past it, sit at either end or inside it.
        rho = rp.rho
        b = int(rho * math.lcm(simnet.DRIFT_DENOM, rho.denominator))
        odd = [10**9, -10**9, b + 1, -b - 1, b, -b, 0, 1, -1]
        cases = [(name, init, seed, None) for name in BUILTINS
                 for init in ("synchronized", "random") for seed in range(3)]
        cases += [("silent", "random", seed, odd[seed:] + odd[:seed]) for seed in range(len(odd))]
        clamped = 0
        for name, init, seed, counts in cases:
            adv = make_adversary(name)
            if counts is not None:
                adv.choose_period = lambda rank, counts=counts: counts[rank % len(counts)]
            raw_counts, raw_phases = [], []
            choose_period, choose_phase = adv.choose_period, adv.choose_phase
            adv.choose_period = lambda rank: raw_counts.append(choose_period(rank)) or \
                raw_counts[-1]
            adv.choose_phase = lambda rank: raw_phases.append(choose_phase(rank)) or \
                raw_phases[-1]
            w = World(rp, adv, seed=seed, init_policy=init, trace_level="off")
            got = dict(L=w.L, THL=w.THL, skew=w.skew_quantum, delay=w.delay_quantum,
                       window=w.window, police=(w._police_lo, w._police_hi),
                       clocks=[(c.t_ref, c.period) for c in w.clocks])
            w.close()
            assert got == _fraction_setup(rp, raw_counts, raw_phases), (name, init, seed)
            clamped += any(abs(k) > b for k in raw_counts)
        assert clamped >= len(odd)


def _fraction_setup(rp, raw_counts, raw_phases):
    """World's subtick constants computed in Fractions: count k gives the
    period T_H * (1 + k / grid), grid the least common multiple of
    DRIFT_DENOM and rho's denominator, clamped to the drift bound; then L as
    the least common denominator of every quantity that can enter a
    timestamp."""
    T_H, rho, eps, d_max = rp.sys.T_H, rp.rho, rp.dv.eps_rnd, rp.sys.d_max
    grid = math.lcm(simnet.DRIFT_DENOM, rho.denominator)
    periods = [min(max(T_H * (1 + Fraction(k, grid)), (1 - rho) * T_H), (1 + rho) * T_H)
               for k in raw_counts]
    phases = [Fraction(j % QUANT, QUANT) for j in raw_phases]
    atoms = [T_H, Fraction(T_H, QUANT), Fraction(d_max, QUANT)]
    if eps > 0:
        atoms.append(Fraction(eps, QUANT))
    atoms += periods + [p * q for p, q in zip(periods, phases)]
    L = math.lcm(*(a.denominator for a in atoms))

    def scaled(x):
        assert (x * L).denominator == 1
        return int(x * L)

    vc = rp.sched.vc_send
    return dict(L=L, THL=scaled(T_H), skew=scaled(Fraction(eps, QUANT)) if eps > 0 else 0,
                delay=scaled(Fraction(d_max, QUANT)), window=math.ceil(rp.dv.T_max * T_H * L),
                police=(math.floor((vc[0] * (1 - rho) * T_H - eps) * L),
                        math.ceil((vc[1] * (1 + rho) * T_H + eps) * L)),
                clocks=[(-scaled(p * q), scaled(p)) for p, q in zip(periods, phases)])


class TestMaxSkew:
    def test_hardware_drift_rate_at_the_bound(self):
        # Opposite-extreme tick periods: the raw staircases must separate
        # at 2*rho/(1-rho^2) ticks per time unit.
        w = World(RP, make_adversary("max_skew"), seed=1,
                  init_policy="synchronized", trace_level="off")
        a, b = w.honest_planes[:2]
        ca, cb = w.clocks[a], w.clocks[b]
        span = 10_000
        d = abs((ca.ticks_at(span * w.THL) - ca.ticks_at(0)) -
                (cb.ticks_at(span * w.THL) - cb.ticks_at(0)))
        want = float(2 * RP.rho / (1 - RP.rho ** 2))
        assert abs(d / span - want) < 3e-4

    @pytest.mark.parametrize("rho", [Fraction(1, 1000), Fraction(1, 3000), Fraction(7, 9000)],
                             ids=["1/1000", "1/3000", "7/9000"])
    def test_periods_exactly_at_the_bound(self, rho):
        # Whatever rho's denominator, every honest clock runs at (1 + rho)
        # or (1 - rho) T_H exactly, and nothing is clamped: every count the
        # adversary returns lies within the drift bound.
        rp = make_rp(rho=rho)
        adv = make_adversary("max_skew")
        raw_counts, choose_period = [], adv.choose_period
        adv.choose_period = lambda rank: raw_counts.append(choose_period(rank)) or raw_counts[-1]
        w = World(rp, adv, seed=1, init_policy="synchronized", trace_level="off")
        T_H = rp.sys.T_H * w.L
        honest = [*w.honest_planes, *(rp.n1 + i for i in w.honest_mes)]
        assert sorted(w.clocks[r].period for r in honest) == \
            [(1 - rho) * T_H] * 2 + [(1 + rho) * T_H] * 3
        assert all(c.period == T_H for r, c in enumerate(w.clocks) if r not in honest)
        assert len(raw_counts) == rp.n1 + rp.n0
        assert all(abs(k) <= w.drift_steps for k in raw_counts)


@pytest.mark.same_bytes
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

    def test_below_draws_are_randrange_draws(self):
        """Every integer draw in src/ is ftcore.below on getrandbits, and
        the skew and delay hooks run its loop in place.  On the interpreters
        this suite has run on, each equals randrange on a twin generator,
        value by value and state by state, for every n that src/ draws, so
        the bytes did not move when the draws left randrange.  An
        interpreter whose randrange draws otherwise fails here, by name,
        and not only through the pinned hash."""
        for rp in (RP, reference_scenario().resolved):
            tau, T = rp.tau_max, rp.T
            w = World(rp, make_adversary("silent"), seed=0)
            span = w.drift_steps
            w.close()
            sizes = {tau, tau // T, T, 3 * T // 2 - T // 2, rp.a0 + 1, rp.dv.g0 + 1, 2, 4,
                     QUANT, QUANT + 1, 4 * QUANT, 2 * span + 1, 1, 3, 2**40 + 3}
            for seed in range(10):
                rng, ref = random.Random(seed), random.Random(seed)
                for n in sorted(sizes) * 100:
                    assert ftcore.below(rng, n) == ref.randrange(n), n
                assert ftcore.below(rng, 2 * span + 1) - span == ref.randint(-span, span)
                assert rng.getstate() == ref.getstate()
        for seed in range(20):
            adv = make_adversary("silent")
            adv.bind(SimpleNamespace(rp=RP, adv_rng=random.Random(seed)))
            ref = random.Random(seed)
            picks = random.Random(1000 + seed)
            for _ in range(2000):
                if picks.random() < 0.5:
                    assert adv.choose_skew(1, 0) == ref.randrange(QUANT + 1)
                else:
                    assert adv.choose_delay(3, 0) == ref.randrange(1, QUANT + 1)
            assert adv.choose_phase(0) == ref.randrange(QUANT)
            assert adv.rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [0, -1, -7])
    def test_below_refuses_an_empty_range(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            ftcore.below(random.Random(0), n)


def test_src_draws_only_through_below():
    """src/ names none of randrange, randint, choice and shuffle, whose
    sequences the random module says may change, nor the private
    _randbelow: not as a method, a function or an import."""
    banned = {"randrange", "randint", "_randbelow", "choice", "shuffle"}
    found = []
    for path in sorted(Path(simnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else None)
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [name]
            found += [(path.name, node.lineno, n) for n in names if n in banned]
    assert found == []


class _LateRelay(_LateSender):
    """Faulty terminal stamps its relay inside the policed slot but delivers
    it after the plane's collection has ended; dropped as late."""

    name = "late_relay"

    def faulty_mes_round(self, i, p, anchor):
        w = self.world
        junk = TTMessageUp(c_vec=(1, 2, 3), a_vec=(3, 3, 3), m_vec=(1, 2, 3))
        send_t = anchor + 7 * w.THL
        w.schedule_adv(anchor + 40 * w.THL,
                       lambda i=i, p=p, s=send_t: w.adv_send_up(i, p, junk, s))


class _Converting(Adversary):
    """Faulty plane and terminal that hand `hook` its instants and clock
    values through `conv`, and every other hook plain ints: the plane starts
    one round and sends each honest terminal an out-of-ring value as its
    receive slot opens; the terminal relays inside the policed slot."""

    name = "converting"

    def __init__(self, hook, conv):
        super().__init__()
        self.hook, self.conv = hook, conv

    def _for(self, hook, *values):
        return [self.conv(v) if hook == self.hook else v for v in values]

    def setup(self):
        w = self.world
        pf = next(iter(w.faulty_planes))

        def fire():
            w.faulty_sig(pf, *self._for("faulty_sig", w.engine.now))
            for i in w.honest_mes:
                w.adv_deliver_down(pf, i, *self._for("adv_deliver_down", RP.tau_max + 5,
                                                     w.mes_round[i][pf].b_recv))

        w.schedule_adv(*self._for("schedule_adv", w.THL), fire)

    def faulty_mes_round(self, i, p, anchor):
        w = self.world
        junk = TTMessageUp(c_vec=(1, 2, 3), a_vec=(3, 3, 3), m_vec=(1, 2, 3))
        send_t = anchor + 7 * w.THL
        w.schedule_adv(send_t, lambda: w.adv_send_up(i, p, junk,
                                                     *self._for("adv_send_up", send_t)))


JUNK = TTMessageUp(c_vec=(1, 2, 3), a_vec=(3, 3, 3), m_vec=(1, 2, 3))


def _dumps(r):
    """The reference export of one record."""
    return json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"


TRACE_STRINGS = {"branch": {"avg", "weak", "own", "rft"},
                 "why": {"outside policed slot", "late", "no round"}}
NODE_TAGS = {"mws", "mes"}
# The record kinds, in the order Trace defines their recorders: each public
# name of Trace but its two methods.
KINDS = [name for name in vars(Trace)
         if not name.startswith("_") and name not in ("add", "to_jsonl")]


@pytest.mark.same_bytes
class TestTraceExport:
    def test_export_matches_json_dumps(self, monkeypatch):
        # Every built-in adversary x both inits x both levels, plus faulty
        # terminals whose relays are dropped for each upward reason: every
        # kind, every fixed string, a SIG with and without a clock value and
        # both stability verdicts occur.  Each recorder is spied on: the line
        # it adds equals json.dumps of the values the World passed it.
        spied = []

        def spy(kind, recorder):
            def spying(self, **fields):
                recorder(self, **fields)
                assert self.records[-1] == _dumps({"ev": kind, **fields}), (kind, fields)
                spied.append(kind)
            return spying

        for kind in KINDS:
            monkeypatch.setattr(Trace, kind, spy(kind, getattr(Trace, kind)))
        adversaries = [*(lambda n=n: make_adversary(n) for n in BUILTINS),
                       _LateSender, _LateRelay]
        seen, strings, stb, sig_c = set(), {k: set() for k in TRACE_STRINGS}, set(), set()
        for adversary, init, level in itertools.product(adversaries, ("synchronized", "random"),
                                                        ("core", "full")):
            for seed in (1, 2):
                w = World(RP, adversary(), seed=seed, init_policy=init, trace_level=level)
                w.run_until_window(12)
                w.close()
                assert len(spied) == len(w.trace.records)
                spied.clear()
                got = w.trace.to_jsonl().splitlines(keepends=True)
                records = _records(w)
                assert got == [_dumps(r) for r in records]
                for r in records:
                    seen.add(r["ev"])
                    for k in strings.keys() & r.keys():
                        strings[k].add(r[k])
                    if r["ev"] == "round":
                        stb.add(r["stb"])
                    elif r["ev"] == "sig":
                        sig_c.add(r["c"] is None)
                    elif r["ev"] == "adjust":
                        assert r["node"][0] in NODE_TAGS
        assert seen == set(KINDS)
        assert strings == TRACE_STRINGS
        assert stb == {True, False} and sig_c == {True, False}

    def test_fixed_strings_need_no_escape(self):
        for text in set.union(NODE_TAGS, *TRACE_STRINGS.values()):
            assert json.dumps(text) == f'"{text}"'

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(), min_size=8, max_size=8), st.booleans(), st.booleans(),
           st.sampled_from(sorted(NODE_TAGS)), st.sampled_from(sorted(TRACE_STRINGS["branch"])),
           st.sampled_from(sorted(TRACE_STRINGS["why"])))
    def test_arbitrary_integers(self, v, stb, c_none, tag, branch, why):
        # Negative integers and integers past 2**63 record as json.dumps
        # writes them, for every kind.
        calls = [
            ("adjust", dict(t=v[0], node=(tag, v[1]), old=v[2], new=v[3])),
            ("sig", dict(t=v[4], plane=v[5], c=None if c_none else v[6])),
            ("watchdog", dict(t=v[7], plane=v[0])),
            ("round", dict(t=v[1], plane=v[2], b=v[3], gl=v[4], stb=stb, branch=branch,
                           c_new=v[5])),
            ("send_up", dict(t=v[6], mes=v[7], plane=v[0], arrival=v[1])),
            ("send_down", dict(t=v[2], plane=v[3], to=v[4], m=v[5], arrival=v[6])),
            ("recv_down", dict(t=v[7], mes=v[0], plane=v[1], m=v[2])),
            ("drop_up", dict(t=v[3], plane=v[4], mes=v[5], why=why)),
            ("drop_down", dict(t=v[6], plane=v[7], mes=v[0], why=why)),
        ]
        trace = Trace()
        for kind, fields in calls:
            getattr(trace, kind)(**fields)
        assert [kind for kind, _fields in calls] == KINDS
        assert trace.records == [_dumps({"ev": kind, **fields}) for kind, fields in calls]
        assert trace.to_jsonl() == "".join(trace.records)

    def test_recorders_are_the_schema(self):
        # One recorder per kind, named after it, whose parameters are the
        # keys but "ev" of the line it writes, each keyword-only and without
        # a default: a missing or extra field fails at the call.  Each field
        # gets its own sentinel, so an integer written under another key
        # shows.
        for kind in KINDS:
            params = list(inspect.signature(getattr(Trace, kind)).parameters.values())
            assert params[0].name == "self", kind
            assert all(p.kind == p.KEYWORD_ONLY and p.default is p.empty
                       for p in params[1:]), kind
            sentinels = {p.name: 1000 + k for k, p in enumerate(params[1:])}
            trace = Trace()
            getattr(trace, kind)(**{name: ("mes", v) if name == "node" else v
                                    for name, v in sentinels.items()})
            [line] = trace.records
            record = json.loads(line)
            assert record.pop("ev") == kind
            assert record.keys() == sentinels.keys(), kind
            for name, value in record.items():
                if type(value) is int:
                    assert value == sentinels[name], (kind, name)

    @pytest.mark.parametrize("kind, fields, error, message", [
        ("watchdog", dict(t=1, plane=0, extra=2), TypeError, "keyword argument 'extra'"),
        ("watchdog", dict(t=1), TypeError, "required keyword-only argument: 'plane'"),
        ("sig", dict(t=1, plane=0, c=None, note=1), TypeError, "keyword argument 'note'"),
        ("teleport", dict(t=1), AttributeError, "no attribute 'teleport'"),
        ("add", dict(t=1, plane=0), TypeError, "keyword argument 't'"),
    ], ids=["extra", "missing", "extra-literal", "unknown-kind", "no-kind"])
    def test_record_off_schema_fails(self, kind, fields, error, message):
        trace = Trace()
        trace.watchdog(t=0, plane=1)
        with pytest.raises(error, match=re.escape(message)):
            getattr(trace, kind)(**fields)
        assert trace.records == ['{"ev":"watchdog","plane":1,"t":0}\n']

    HOOKS = ["faulty_sig", "adv_deliver_down", "adv_send_up", "schedule_adv"]

    @pytest.mark.parametrize("hook", HOOKS)
    def test_numpy_integers_give_plain_bytes(self, hook):
        traces = []
        for conv in (int, np.int64):
            w = World(RP, _Converting(hook, conv), seed=3, init_policy="synchronized",
                      trace_level="full")
            w.run_until_window(3)
            w.close()
            traces.append(w.trace.to_jsonl())
        assert traces[0] == traces[1]
        assert '"ev":"recv_down","m":5,' in traces[0]    # the out-of-ring value, reduced

    @pytest.mark.parametrize("knob", ["choose_period", "choose_phase", "choose_skew",
                                      "choose_delay"])
    def test_knob_is_an_integer(self, knob):
        # A numpy count gives the plain bytes (a numpy phase once made every
        # instant an int64), and a float or a Fraction is refused by name.
        def converted(name, conv):
            adv = make_adversary(name)
            choose = getattr(adv, knob)
            setattr(adv, knob, lambda *key: conv(choose(*key)))
            return adv

        traces = []
        for conv in (int, np.int64):
            w = World(RP, converted("random_noise", conv), seed=3, init_policy="random",
                      trace_level="full")
            w.run_until_window(3)
            w.close()
            traces.append(w.trace.to_jsonl())
        assert traces[0] == traces[1]
        for conv in (float, Fraction):
            with pytest.raises(SimulationError, match=rf"^{knob}: \w+ must be an integer"):
                World(RP, converted("silent", conv), seed=3).run_until_window(3)

    @pytest.mark.parametrize("hook", HOOKS)
    @pytest.mark.parametrize("conv", [float, Fraction], ids=["float", "Fraction"])
    def test_non_integers_refused(self, hook, conv):
        with pytest.raises(SimulationError, match=rf"^{hook}: \w+ must be an integer"):
            w = World(RP, _Converting(hook, conv), seed=3, init_policy="synchronized")
            w.run_until_window(3)

    @pytest.mark.parametrize("call, message", [
        (lambda w: w.adv_send_up(3, -2, JUNK, w.engine.now),
         "adv_send_up: no plane -2 among n1 = 3"),
        (lambda w: w.adv_send_up(3, 3, JUNK, w.engine.now),
         "adv_send_up: no plane 3 among n1 = 3"),
        (lambda w: w.adv_deliver_down(2, 7, 5, w.engine.now),
         "adv_deliver_down: no terminal 7 among n0 = 4"),
        (lambda w: w.faulty_sig(0, w.engine.now), "faulty_sig on a nonfaulty plane"),
        (lambda w: w.adv_deliver_down(0, 0, 5, w.engine.now),
         "adversarial delivery from a nonfaulty plane"),
        (lambda w: w.adv_send_up(0, 2, JUNK, w.engine.now),
         "adversarial upward send from a nonfaulty terminal"),
        (lambda w: w.faulty_sig(2.0, w.engine.now), "faulty_sig: p must be an integer, not 2.0"),
        (lambda w: w.faulty_sig(Fraction(2), w.engine.now),
         "faulty_sig: p must be an integer, not Fraction(2, 1)"),
        (lambda w: w.adv_deliver_down(2.0, 0, 5, w.engine.now),
         "adv_deliver_down: p must be an integer, not 2.0"),
        (lambda w: w.adv_deliver_down(Fraction(2), 0, 5, w.engine.now),
         "adv_deliver_down: p must be an integer, not Fraction(2, 1)"),
        (lambda w: w.adv_send_up(3.0, 2, JUNK, w.engine.now),
         "adv_send_up: i must be an integer, not 3.0"),
        (lambda w: w.adv_send_up(Fraction(3), 2, JUNK, w.engine.now),
         "adv_send_up: i must be an integer, not Fraction(3, 1)"),
    ], ids=["plane_below", "plane_above", "terminal_above", "sig_from_honest_plane",
            "delivery_from_honest_plane", "send_from_honest_terminal", "sig_float",
            "sig_Fraction", "delivery_float", "delivery_Fraction", "send_float",
            "send_Fraction"])
    def test_node_a_hook_cannot_name_refused(self, call, message):
        # The faulty terminal is 3 and the faulty plane 2.  A plane index of
        # -2 would reach plane 1's round, and a terminal of 7 would fail at
        # the delivery instant, naming no hook.  A faulty node named 2.0 or
        # Fraction(2) passes a membership test and would fail later with a
        # bare TypeError, or key a relay by a float.
        w = World(RP, make_adversary("silent"), seed=1, init_policy="synchronized")
        w.run_until_window(1)
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            call(w)
        w.close()

    @pytest.mark.parametrize("vec", ["c_vec", "a_vec", "m_vec"])
    def test_upload_entries_are_integers(self, vec):
        # Every entry of a faulty terminal's upload passes through the
        # integer check, None kept: a numpy entry reaches the plane as a
        # plain int, and a float (a c_vec of 100.5s would be averaged into a
        # clock value of 100.5) is refused by name.
        def sender(conv):
            vecs = {"c_vec": (1, None, 3), "a_vec": (3, None, 3), "m_vec": (1, 2, None)}
            vecs[vec] = tuple(None if v is None else conv(v) for v in vecs[vec])
            return _SlotSender(**vecs)

        stored = []
        for conv in (int, np.int64):
            w = _Closed(RP, sender(conv), seed=3, init_policy="synchronized")
            w.run_until_window(3)
            w.close()
            faulty = next(iter(w.faulty_mes))
            assert w.closed_rounds
            stored.append([getattr(rnd.relays[faulty], vec) for _p, rnd in w.closed_rounds])
        assert stored[0] == stored[1]
        assert {type(v) for relay in stored[1] for v in relay} == {int, type(None)}
        with pytest.raises(SimulationError, match=rf"^adv_send_up: {vec} must be an integer, "
                                                  r"not 100\.5"):
            World(RP, sender(lambda v: 100.5), seed=3).run_until_window(3)

    @pytest.mark.parametrize("knob, lo", [("choose_skew", 0), ("choose_delay", 1)])
    def test_counts_out_of_range_clamped(self, knob, lo):
        # A skew or delay count past either end of its range acts as that end.
        ends = []

        def pushed(far):
            adv = make_adversary("random_noise")
            choose = getattr(adv, knob)

            def hook(*key):
                k = choose(*key)
                if k in (lo, QUANT):
                    ends.append(k)
                    return lo - far if k == lo else QUANT + far
                return k
            setattr(adv, knob, hook)
            return adv

        traces = []
        for far in (0, 1, 10**6):
            w = World(RP, pushed(far), seed=3, init_policy="random", trace_level="full")
            w.run_until_window(3)
            w.close()
            traces.append(w.trace.to_jsonl())
        assert set(ends) == {lo, QUANT}
        assert traces[1] == traces[0] and traces[2] == traces[0]

    def test_faulty_sig_in_the_past_refused(self):
        w = World(RP, make_adversary("random_noise"), seed=1, init_policy="synchronized")
        w.run_until_window(1)
        with pytest.raises(SimulationError, match="faulty_sig in the past"):
            w.faulty_sig(max(w.faulty_planes), w.engine.now - 1)
        w.close()


class TestSplitBrain:
    def test_planes_disagree_on_stability(self):
        """The two-faced plane must be able to make one honest plane judge
        the ensemble stable while the other does not, in the same cycle.

        This passes on a rare event: split_brain splits about 1 cycle in
        2,400 from random starts, and the first split in this search is at
        seed 8, window 2.  A change that moves bytes can push it past the
        100 seeds searched with no change to the adversary's power (ROADMAP
        item 10: adversaries that reach the bounds)."""
        diverged = False
        for seed in range(100):
            w = World(RP, make_adversary("split_brain"), seed=seed,
                      init_policy="random", trace_level="core")
            w.run_until_window(40)
            by_win = {}
            for r in _records(w):
                if r["ev"] == "round":
                    by_win.setdefault(r["t"] // w.window, {}).setdefault(
                        r["plane"], set()).add(r["stb"])
            if any(len(d) > 1
                   and any(True in v for v in d.values())
                   and any(v == {False} for v in d.values())
                   for d in by_win.values()):
                diverged = True
                break
        assert diverged, ("no split in 100 seeds: split_brain splits about 1 cycle in 2,400 "
                          "from random starts, so moved bytes can hide it (ROADMAP item 10)")


def _const_track(tau, off, period=10):
    return ClockTrack(HardwareClock(t_ref=0, period=period, h0=0, tau=tau), off)


class TestSyncCheck:
    L = 10  # subticks per time unit; matches period=10 with T_H=1

    def test_single_clock_trivially_ok(self):
        ok, dev = sync_check([_const_track(4096, 0)], [0, 5000], RP, self.L)[0]
        assert ok and dev == 0

    def test_constant_offset_at_bound(self):
        a, b = _const_track(4096, 0), _const_track(4096, RP.eps0)
        ok, dev = sync_check([a, b], [0, 5000], RP, self.L)[0]
        assert ok and dev == RP.eps0

    def test_constant_offset_beyond_bound(self):
        a, b = _const_track(4096, 0), _const_track(4096, RP.eps0 + 1)
        ok, dev = sync_check([a, b], [0, 5000], RP, self.L)[0]
        assert not ok and dev == RP.eps0 + 1

    def test_wraparound_distance(self):
        a, b = _const_track(4096, 0), _const_track(4096, 4096 - 2)
        ok, dev = sync_check([a, b], [0, 5000], RP, self.L)[0]
        assert ok and dev == 2

    def test_transient_jump_between_grid_points_caught(self):
        a, b = _const_track(4096, 0), _const_track(4096, 0)
        b.record(t=23, new=RP.eps0 + 5)   # off-grid excursion
        b.record(t=27, new=0)   # back before the next sample
        ok, dev = sync_check([a, b], [0, 5000], RP, self.L)[0]
        assert not ok and dev == RP.eps0 + 5

    def test_rate_drift_violation(self):
        # One clock gains eps0 ticks by adjustment every cycle: precision
        # against a single clock cannot flag it, the rate condition must.
        tr = _const_track(4096, 0)
        step = 4 * RP.eps0
        for j in range(1, 8):
            t = j * (RP.T * self.L) // 4
            tr.record(t=t, new=j * step % 4096)
        ok, _dev = sync_check([tr], [0, 3 * RP.T * self.L], RP, self.L)[0]
        assert not ok

    def test_rate_slow_violation(self):
        tr = _const_track(4096, 0)
        step = 4 * RP.eps0
        for j in range(1, 8):
            t = j * (RP.T * self.L) // 4
            tr.record(t=t, new=-j * step % 4096)
        ok, _dev = sync_check([tr], [0, 3 * RP.T * self.L], RP, self.L)[0]
        assert not ok

    @pytest.mark.parametrize("where", [0.25, 0.75])
    def test_rate_violation_in_either_half_of_a_window(self, where):
        # A window exactly T_max long is checked as one span: an excursion
        # confined to either half of it breaks the rate condition.
        delta = math.ceil(RP.dv.T_max * RP.sys.T_H * self.L)
        t1 = 3 * delta
        tr = _const_track(4096, 0)
        t = t1 + int(where * delta)
        tr.record(t=t, new=2 * RP.eps0)
        tr.record(t=t + 5, new=0)
        assert sync_check([tr], [t1, t1 + delta], RP, self.L)[0] == (False, 0)
        assert sync_check([tr], [t1, t1 + delta], RP, self.L)[0] == \
            reference_sync_check([tr], t1, t1 + delta, RP, self.L)

    def test_steady_clocks_pass_rate_condition(self):
        ok, dev = sync_check([_const_track(4096, 5), _const_track(4096, 7)],
                             [0, 20 * RP.T * self.L], RP, self.L)[0]
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
            vals = [(tr.clock.h0 + tr.offset0 + _cum_at(tr, t, side)) % tr.clock.tau
                    for tr in tracks]
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
            tr.record(t=t, new=new)
        tracks.append(tr)
    return tracks, t1, t2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(checked_windows())
def test_sync_check_matches_oracle(case):
    tracks, t1, t2 = case
    assert sync_check(tracks, [t1, t2], SMALL_RP, SMALL_L)[0] == \
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
        a.record(t=j * W + W // 2, new=(c + 3) % tau)
        b.record(t=j * W + W // 8, new=(c + 2) % tau)
        b.record(t=j * W + W // 2 + 1, new=(c + 5) % tau)
        b.record(t=(j + 1) * W - L // 2, new=(c + 3 + hold) % tau)
    want = (hold <= RP.eps0, hold)
    assert sync_check([a, b], [0, W], RP, L)[0] == want
    assert sync_check([a, b], [k * W, (k + 1) * W], RP, L)[0] == want
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
    cums = [tr.jump_cum[lo - 1] if lo else 0, *tr.jump_cum[lo:hi]]
    return (np.array(jt[lo:hi], dtype=np.int64),
            np.array([(tr.offset0 + c) % tr.clock.tau for c in cums], dtype=np.int64),
            np.array(cums, dtype=np.int64))


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
            tr.record(t=t, new=draw(value))
        tracks.append(tr)
    eps0 = draw(st.sampled_from([None, 0, 5, tau // 2]))
    return tracks, t1, t2, eps0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stacked_windows())
def test_sync_check_matches_reference(case):
    tracks, t1, t2, eps0 = case
    assert sync_check(tracks, [t1, t2], SMALL_RP, SMALL_L, eps0=eps0)[0] == \
        reference_sync_check(tracks, t1, t2, SMALL_RP, SMALL_L, eps0=eps0)


@pytest.mark.same_bytes
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
        got = sync_check(args[0], [args[1], args[2]], RP, w.L)[0]
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
        got = sync_check(tracks, [t1, t2], RP, self.L, **kw)[0]
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
            tr.record(t=j * (RP.T * self.L) // 4, new=j * step % 4096)
        assert self.both([tr], 0, 3 * RP.T * self.L) == (False, 0)

    def test_no_jump_inside_the_window(self):
        a, b, c = (_const_track(4096, 0) for _ in range(3))
        a.record(t=5, new=3)                  # carried in from before t1
        c.record(t=6000, new=100)             # only after t2
        assert self.both([a, b, c], 100, 5000) == (True, 3)
        assert self.both([a, b, c], 100, 5000, eps0=2) == (False, 3)

    def test_single_instant(self):
        a, b = _const_track(4096, 0), _const_track(4096, RP.eps0 + 1)
        assert self.both([a, b], 50, 50) == (False, RP.eps0 + 1)   # on the grid
        assert self.both([a, b], 55, 55) == (True, 0)              # no sample at all
        b.record(t=55, new=1)
        assert self.both([a, b], 55, 55) == (False, RP.eps0 + 1)   # the jump is the sample

    def test_span_with_fewer_than_two_samples(self):
        # One sample in the window: no rate pair exists, even for a clock
        # that jumps far at that instant.
        a = _const_track(4096, 0)
        a.record(t=5, new=1000)
        assert self.both([a], 1, 9) == (True, 0)
        # Two samples in the first span, none in the half-shifted one.
        assert self.both([a, _const_track(4096, 1000)], 0, 15) == (False, 1000)

    def test_first_sample_past_t1(self):
        a, b = _const_track(4096, 0), _const_track(4096, 0)
        b.record(t=2, new=RP.eps0 + 1)        # before t1: carried in
        b.record(t=25, new=1)
        assert self.both([a, b], 3, 5000) == (False, RP.eps0 + 1)
        assert self.both([a, b], 26, 5000) == (True, 1)


# ---- decisive samples ---------------------------------------------------------
#
# The checker evaluates only the samples that can decide a window.  These
# inputs reach what the strategies above rarely do: clocks so far from the
# nominal rate that their ticks minus the grid index change several times a
# window, and jumps on exactly the instants the checker keeps or skips.


def _slips(clk: HardwareClock, t1: int, t2: int, THL: int) -> int:
    """Grid steps m to m+1 inside [t1, t2] over which clk's ticks minus m change."""
    g = [(m * THL - clk.t_ref) // clk.period - m for m in range(-(-t1 // THL), t2 // THL + 1)]
    return sum(a != b for a, b in zip(g, g[1:]))


@st.composite
def slipping_windows(draw):
    """1 to 4 clocks with periods up to 10% off nominal, jumping on grid
    samples, on span starts, half-span starts and span ends, at t1 and t2,
    and anywhere else."""
    tau = SMALL_RP.tau_max
    t1 = draw(st.integers(0, 3 * SMALL_DELTA))
    t2 = t1 + draw(st.sampled_from([0, SMALL_L, SMALL_DELTA // 2, SMALL_DELTA - 1, SMALL_DELTA,
                                    SMALL_DELTA + 1, 2 * SMALL_DELTA + SMALL_L]))
    starts = list(range(t1, t2, SMALL_DELTA))
    marks = [t1, t2, *starts, *(s + SMALL_DELTA // 2 for s in starts),
             *(min(s + SMALL_DELTA, t2) for s in starts)]
    grid = list(range(-(-t1 // SMALL_L) * SMALL_L, t2 + 1, SMALL_L)) or [t1]
    base = draw(st.integers(0, tau - 1))
    near = draw(st.booleans())
    value = st.integers(0, 2).map(lambda d: (base + d) % tau) if near \
        else st.integers(0, tau - 1)
    tracks = []
    for _ in range(draw(st.integers(1, 4))):
        clk = HardwareClock(t_ref=draw(st.integers(-3 * SMALL_L, 2 * SMALL_L)),
                            period=draw(st.integers(SMALL_L - 10, SMALL_L + 10)),
                            h0=0 if near else draw(st.integers(0, tau - 1)), tau=tau)
        tr = ClockTrack(clk, draw(value))
        times = draw(st.lists(st.sampled_from(marks), max_size=4))
        times += draw(st.lists(st.sampled_from(grid), max_size=5))
        times += draw(st.lists(st.integers(0, t2 + SMALL_DELTA), max_size=4))
        for t in sorted(times):
            tr.record(t=t, new=draw(value))
        tracks.append(tr)
    return tracks, t1, t2, draw(st.sampled_from([None, 0, 3, 8, tau // 2]))


def test_slipping_clocks_match_oracle_and_reference():
    verdicts, most = set(), 0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(slipping_windows())
    def check(case):
        nonlocal most
        tracks, t1, t2, eps0 = case
        got = sync_check(tracks, [t1, t2], SMALL_RP, SMALL_L, eps0=eps0)[0]
        assert got == oracle_sync_check(tracks, t1, t2, SMALL_RP, SMALL_L, eps0=eps0)
        assert got == reference_sync_check(tracks, t1, t2, SMALL_RP, SMALL_L, eps0=eps0)
        verdicts.add(got[0])
        most = max([most] + [_slips(tr.clock, t1, t2, SMALL_L) for tr in tracks])

    check()
    # Not vacuous: passing and failing verdicts, and clocks that slip
    # several times in one window.
    assert verdicts == {False, True} and most >= 5


def test_first_side_of_a_slip_decides_a_long_run():
    # rho = 1/10: e falls by T_H*L per grid step and rises by 9*T_H*L over
    # the slip between samples 10 and 11 (ticks 10 -> 12).  Against sample
    # 0, ten steps back, that rise nets -T_H*L; against sample 10 it breaks
    # the rate condition at eps0 = 0.  Runs longer than 1/rho samples need
    # the sample before each slip.
    rp = resolve(dataclasses.replace(SMALL_RP.sys, rho=Fraction(1, 10)), SMALL_RP.sched)
    tr = ClockTrack(HardwareClock(t_ref=-42, period=95, h0=0, tau=rp.tau_max), 0)
    assert _slips(tr.clock, 0, 2000, SMALL_L) == 1
    assert sync_check([tr], [0, 2000], rp, SMALL_L, eps0=0)[0] == (False, 0)
    assert oracle_sync_check([tr], 0, 2000, rp, SMALL_L, eps0=0) == (False, 0)
    assert sync_check([tr], [0, 2000], rp, SMALL_L, eps0=1)[0] == (True, 0)


def test_jump_at_the_start_of_a_long_window():
    # A window of two spans whose only jump lies on its first instant: the
    # first span's last grid sample keeps the pre/post pair at t1 checked.
    t1 = 3 * SMALL_L
    tr = _const_track(SMALL_RP.tau_max, 0, period=SMALL_L)
    tr.record(t=t1, new=SMALL_RP.eps0 + 1)
    args = ([tr], t1, t1 + 2 * SMALL_DELTA, SMALL_RP, SMALL_L)
    assert sync_check([tr], [t1, t1 + 2 * SMALL_DELTA], SMALL_RP, SMALL_L)[0] == \
        oracle_sync_check(*args) == (False, 0)


def test_decisive_samples_of_a_jump():
    # One rule for the window ends and each jump: the grid samples at its
    # floor and ceiling, plus a jump itself.  An on-grid jump adds itself
    # alone; its pre-jump reading is side 0 of that sample.
    assert simnet._decisive_samples([], {50}, 3, 97, 10, []) == [10, 50, 90]
    assert simnet._decisive_samples([], {53}, 3, 97, 10, []) == [10, 50, 53, 60, 90]


@pytest.mark.same_bytes
def test_slips_match_a_walk_over_every_grid_index():
    # Each clock's slips, found in closed form, against a walk over every
    # grid index of [t1, t2]: up to half a grid step off nominal, and at
    # drift bounds of 1/10 and 1/1000 exactly.
    most = at_bound = 0

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.data())
    def check(data):
        nonlocal most, at_bound
        THL = data.draw(st.sampled_from([SMALL_L, 1000, 4000]))
        bounds = [THL + sign * THL // q for q in (10, 1000) for sign in (-1, 1)]
        t1 = data.draw(st.integers(-3 * THL, 3 * THL))
        t2 = t1 + data.draw(st.sampled_from([0, THL // 2, THL, 7 * THL, 60 * THL + 1]))
        want = {t // THL * THL for t in (t1, t2)} | {-(-t // THL) * THL for t in (t1, t2)}
        ms = range(-(-t1 // THL), t2 // THL + 1)      # grid indices inside [t1, t2]
        tracks = []
        for _ in range(data.draw(st.integers(1, 3))):
            period = data.draw(st.integers(THL - THL // 2, THL + THL // 2)
                               | st.sampled_from(bounds))
            clk = HardwareClock(t_ref=data.draw(st.integers(-2000 * THL, 2000 * THL)),
                                period=period, h0=0, tau=SMALL_RP.tau_max)
            tracks.append(ClockTrack(clk, 0))
            g = [(m * THL - clk.t_ref) // period - m for m in ms]
            slips = [m for m, a, b in zip(ms, g, g[1:]) if a != b]
            want.update(t for m in slips for t in (m * THL, (m + 1) * THL))
            most = max(most, len(slips))
            at_bound += period in bounds and bool(slips)
        assert simnet._decisive_samples(tracks, [], t1, t2, THL, []) == \
            sorted(t for t in want if t1 <= t <= t2)

    check()
    # Not vacuous: clocks that slip many times in a block, and clocks at a
    # drift bound that slip.
    assert most >= 20 and at_bound >= 20


@pytest.mark.parametrize("init", ["synchronized", "random"])
@pytest.mark.parametrize("name", ["silent", "random_noise", "max_skew", "split_brain"])
def test_recorded_windows_evaluate_few_samples(name, init, monkeypatch):
    # At most three samples per distinct jump instant off the grid (the
    # jump and the grid samples either side) and one per jump on it, two per
    # slip of a clock against the grid, and six for the ends of the window
    # and of its rate spans; the verdicts stay the reference's.
    counts = []
    decisive = simnet._decisive_samples

    def counted(*args):
        out = decisive(*args)
        counts.append(len(out))
        return out

    monkeypatch.setattr(simnet, "_decisive_samples", counted)
    w = World(RP, make_adversary(name), seed=4, init_policy=init, trace_level="off")
    tracks, slipped, grid = w.qap_tracks(), 0, 0
    for k in range(40):
        w.run_until_window(k + 1)
        t1, t2 = k * w.window, (k + 1) * w.window
        args = (tracks, t1, t2, RP, w.L)
        assert sync_check(tracks, [t1, t2], RP, w.L)[0] == reference_sync_check(*args), \
            f"window {k}"
        jumps = {t for tr in tracks for t in tr.jump_times if t1 <= t <= t2}
        per_jump = sum(1 if t % w.THL == 0 else 3 for t in jumps)
        slips = sum(_slips(tr.clock, t1, t2, w.THL) for tr in tracks)
        assert counts[-1] <= per_jump + 2 * slips + 6, (k, counts[-1], per_jump, slips)
        slipped += slips
        grid += t2 // w.THL - -(-t1 // w.THL) + 1
    w.close()
    assert len(counts) == 40 and sum(counts) < grid / 4
    if name == "max_skew":
        assert slipped > 0      # clocks at the drift bound slip against the grid


def test_unchanged_offset_is_still_a_sample():
    # b ticks half a period after a and starts one tick ahead: the two read
    # alike on every grid sample and one tick apart from t = 5 to 10 after
    # each.  An adjustment at t = 17 that keeps b's offset is a sample all
    # the same, and the only one that sees that tick.
    a = _const_track(4096, 0)
    b = ClockTrack(HardwareClock(t_ref=5, period=10, h0=0, tau=4096), 1)
    assert sync_check([a, b], [0, 100], RP, 10, eps0=1) == [(True, 0)]
    b.record(t=17, new=1)
    assert b.jump_times == [17] and b.jump_cum == [0]
    assert sync_check([a, b], [0, 100], RP, 10, eps0=1) == [(True, 1)]
    assert oracle_sync_check([a, b], 0, 100, RP, 10, eps0=1) == (True, 1)


# ---- blocks of windows ----------------------------------------------------------
#
# One call checks consecutive windows.  Each window's result must be the
# one a call for that window alone gives, and the reference's.


@st.composite
def drifting_clocks(draw):
    """2 to 4 clocks near one reading over several windows: at each of a
    few instants either every clock moves by the same step, which can break
    the rate condition alone, or one clock moves near the others or away."""
    tau = SMALL_RP.tau_max
    t1 = draw(st.integers(0, SMALL_DELTA))
    t2 = t1 + 3 * SMALL_DELTA + draw(st.integers(0, SMALL_DELTA))
    base = draw(st.integers(0, tau - 1))
    n = draw(st.integers(2, 4))
    tracks = [ClockTrack(HardwareClock(t_ref=-draw(st.integers(0, SMALL_L - 1)),
                                       period=draw(st.sampled_from([SMALL_L - 1, SMALL_L])),
                                       h0=0, tau=tau), base) for _ in range(n)]
    offsets = [base] * n
    for t in sorted(draw(st.lists(st.integers(t1, t2), min_size=4, max_size=12))):
        if draw(st.booleans()):
            step = draw(st.integers(-6, 6))
            base = (base + step) % tau
            moved = {k: (offsets[k] + step) % tau for k in range(n)}
        else:
            moved = {draw(st.integers(0, n - 1)): (base + draw(st.integers(0, 6))) % tau}
        for k, off in moved.items():
            offsets[k] = off
            tracks[k].record(t=t, new=off)
    return tracks, t1, t2, None


@st.composite
def window_blocks(draw):
    """A case of checked_windows, stacked_windows, slipping_windows or
    drifting_clocks, with [t1, t2] cut into consecutive windows at random
    instants: windows of several rate spans, with a half-shifted one, and
    windows of a single instant."""
    kind = draw(st.sampled_from(["checked", "stacked", "slipping", "drifting"]))
    if kind == "checked":
        (tracks, t1, t2), eps0 = draw(checked_windows()), None
    else:
        tracks, t1, t2, eps0 = draw({"stacked": stacked_windows, "slipping": slipping_windows,
                                     "drifting": drifting_clocks}[kind]())
    cuts = draw(st.lists(st.integers(t1, t2), max_size=5))
    return tracks, [t1, *sorted(cuts), t2], eps0


def _each_window(tracks, edges, rp, L, eps0=None):
    """One window at a time: the one-window call, checked against the reference."""
    out = []
    for t1, t2 in zip(edges, edges[1:]):
        got = sync_check(tracks, [t1, t2], rp, L, eps0=eps0)
        assert got == [reference_sync_check(tracks, t1, t2, rp, L, eps0=eps0)]
        out += got
    return out


@pytest.mark.same_bytes
def test_block_matches_each_window_alone():
    verdicts, longest, blocks, mixed = set(), 0, 0, 0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(window_blocks())
    def check(case):
        nonlocal longest, blocks, mixed
        tracks, edges, eps0 = case
        got = sync_check(tracks, edges, SMALL_RP, SMALL_L, eps0=eps0)
        assert got == _each_window(tracks, edges, SMALL_RP, SMALL_L, eps0=eps0)
        verdicts.update(ok for ok, _dev in got)
        longest = max([longest] + [t2 - t1 for t1, t2 in zip(edges, edges[1:])])
        blocks += len(got) > 2
        bound = SMALL_RP.eps0 if eps0 is None else eps0
        # A block where one window fails precision and another only its rate.
        mixed += any(dev > bound for _ok, dev in got) and \
            any(not ok and dev <= bound for ok, dev in got)

    check()
    # Not vacuous: both verdicts, blocks of several windows, blocks that
    # fail one window on precision and another on rate alone, and windows
    # long enough for a second span and a half-shifted one.
    assert verdicts == {False, True} and blocks > 50 and mixed > 2 and longest > SMALL_DELTA


@pytest.mark.same_bytes
def test_jump_on_a_shared_edge():
    # b jumps out of precision exactly on the edge of windows 0 and 1 and
    # back inside window 1; c keeps its offset at the edge of windows 1 and 2.
    # Both windows that share the first edge read b's jump there.
    D = SMALL_DELTA
    a, b, c = (_const_track(SMALL_RP.tau_max, 0, period=SMALL_L) for _ in range(3))
    b.record(t=D, new=SMALL_RP.eps0 + 1)
    b.record(t=D + 3 * SMALL_L, new=0)
    c.record(t=2 * D, new=0)
    edges = [0, D, 2 * D, 3 * D]
    got = sync_check([a, b, c], edges, SMALL_RP, SMALL_L)
    want = [(False, SMALL_RP.eps0 + 1), (False, SMALL_RP.eps0 + 1), (True, 0)]
    assert got == _each_window([a, b, c], edges, SMALL_RP, SMALL_L) == want
    assert want == [oracle_sync_check([a, b, c], t1, t2, SMALL_RP, SMALL_L)
                    for t1, t2 in zip(edges, edges[1:])]


@pytest.mark.same_bytes
def test_slip_across_a_shared_edge():
    # b's period is 1% short: its ticks minus the grid index step from 0 to 1
    # between grid samples 98 and 99, and the edge of windows 0 and 1 falls
    # between them.  At offset eps0 it stays within precision of a up to the
    # slip and leaves it after.
    a = _const_track(SMALL_RP.tau_max, 0, period=SMALL_L)
    b = ClockTrack(HardwareClock(t_ref=0, period=SMALL_L - 1, h0=0, tau=SMALL_RP.tau_max),
                   SMALL_RP.eps0)
    edge = 98 * SMALL_L + SMALL_L // 2
    assert _slips(b.clock, 98 * SMALL_L, 99 * SMALL_L, SMALL_L) == 1
    edges = [edge - SMALL_DELTA, edge, edge + SMALL_DELTA]
    got = sync_check([a, b], edges, SMALL_RP, SMALL_L)
    want = [(True, SMALL_RP.eps0), (False, SMALL_RP.eps0 + 1)]
    assert got == _each_window([a, b], edges, SMALL_RP, SMALL_L) == want
    assert want == [oracle_sync_check([a, b], t1, t2, SMALL_RP, SMALL_L)
                    for t1, t2 in zip(edges, edges[1:])]


def _block_samples(tracks, edges, rp, L, eps0=None):
    """The samples that one sync_check call over `edges` evaluates: what its
    one _decisive_samples call returns."""
    picks = []
    decisive = simnet._decisive_samples

    def recorded(*args):
        picks.append(decisive(*args))
        return picks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "_decisive_samples", recorded)
        sync_check(tracks, edges, rp, L, eps0=eps0)
    assert len(picks) == 1
    return picks[0]


def _shared_edge_samples(tracks, edges, rp, L, eps0=None):
    """Check that each window's slice of the block's samples is the set it
    picks alone; return how many inner edges are samples of both windows."""
    block = _block_samples(tracks, edges, rp, L, eps0)
    for t1, t2 in zip(edges, edges[1:]):
        alone = _block_samples(tracks, [t1, t2], rp, L, eps0)
        assert block[bisect_left(block, t1):bisect_right(block, t2)] == alone, (t1, t2)
    return len(set(block).intersection(edges[1:-1]))


@pytest.mark.same_bytes
def test_each_window_reads_its_slice_of_the_block():
    shared = 0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(window_blocks())
    def check(case):
        nonlocal shared
        tracks, edges, eps0 = case
        if tracks:      # with no clock, sync_check picks no samples at all
            shared += _shared_edge_samples(tracks, edges, SMALL_RP, SMALL_L, eps0)

    check()
    # The harness's own input: the recorded runs of
    # test_recorded_windows_evaluate_few_samples, in blocks of 40 and of 7.
    for name in ("silent", "random_noise", "max_skew", "split_brain"):
        for init in ("synchronized", "random"):
            w = World(RP, make_adversary(name), seed=4, init_policy=init, trace_level="off")
            w.run_until_window(40)
            edges = [k * w.window for k in range(41)]
            shared += _shared_edge_samples(w.qap_tracks(), edges, RP, w.L)
            for lo in range(0, 40, 7):
                shared += _shared_edge_samples(w.qap_tracks(), edges[lo:lo + 8], RP, w.L)
            w.close()
    assert shared > 0    # not vacuous: neighbouring windows share edge samples


def test_one_pick_per_block(monkeypatch):
    calls = []
    decisive = simnet._decisive_samples

    def counted(*args):
        calls.append(args)
        return decisive(*args)

    monkeypatch.setattr(simnet, "_decisive_samples", counted)
    w = World(RP, make_adversary("max_skew"), seed=4, trace_level="off")
    w.run_until_window(32)
    assert len(sync_check(w.qap_tracks(), [k * w.window for k in range(33)], RP, w.L)) == 32
    w.close()
    assert len(calls) == 1


@pytest.mark.same_bytes
def test_forgetting_keeps_every_later_reading():
    dropped = 0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(drifting_clocks(), st.data())
    def check(case, data):
        # A track that forgets the jumps before t reads the same from t on,
        # on both sides of each jump and after one more jump, up to a
        # constant multiple of tau per track; so a block from t on gets the
        # same verdicts.
        nonlocal dropped
        tracks, t1, t2, _eps0 = case
        t = data.draw(st.integers(t1, t2))
        trimmed = [dataclasses.replace(tr, jump_times=tr.jump_times[:],
                                       jump_cum=tr.jump_cum[:]) for tr in tracks]
        new_offset = data.draw(st.integers(0, SMALL_RP.tau_max - 1))
        for old, tr in zip(tracks, trimmed):
            tr.forget_before(t)
            assert all(s >= t for s in tr.jump_times)
            dropped += len(old.jump_times) - len(tr.jump_times)
            for track in (old, tr):
                track.record(t=t2 + 1, new=new_offset)
            shifts = {old.offset0 + _cum_at(old, s, side) - tr.offset0 - _cum_at(tr, s, side)
                      for s in [t, *old.jump_times, t2 + 2] if s >= t
                      for side in ("left", "right")}
            assert len(shifts) == 1 and shifts.pop() % SMALL_RP.tau_max == 0
        edges = [t, (t + t2) // 2, t2 + 2]
        assert sync_check(trimmed, edges, SMALL_RP, SMALL_L) == \
            sync_check(tracks, edges, SMALL_RP, SMALL_L)

    check()
    assert dropped > 100    # not vacuous


# ---- differential reference: the stacked block checker ----------------------
#
# The block checker as it was before its kernel was reworked, verbatim but
# for its name: every reading found by searching each track's shifted jump
# keys, precision over every pair of clocks at every column, and one
# concatenated array of every clock's rate sequences.  The kernel must give
# the same verdicts and deviations on every block.

_SIDES = np.array([0, 1])
_decisive_samples, _lengths, _pairs = \
    simnet._decisive_samples, simnet._lengths, simnet._pairs


def stacked_sync_check(tracks: list[ClockTrack], edges: list[int], rp: Resolved, L: int,
               eps0: Optional[int] = None) -> list[tuple[bool, int]]:
    """Verdicts of the two synchronization conditions over each window
    [t_j, t_j+1] of the edges [t_0, t_1, ..., t_B], in subticks.

    Precision: every pair of clocks stays within eps0 ring distance at every
    sample (the T_H grid and each jump, read on both sides of a jump).
    Rate accuracy: per clock, elapsed ticks between two samples of a span
    deviate from elapsed time by at most rho*elapsed + eps0.  A window's
    spans are T_max-aligned from its start and half-shifted, so within the
    window every pair within T_max/2 is covered and none beyond T_max is
    required; the last aligned span ends at the window's end, and its
    half-shifted span, inside it, is skipped.  No span crosses an edge: a
    window of run_once is exactly T_max long, so it is one span, and two
    samples on either side of an edge are never compared.

    Only the samples that can decide are evaluated: each jump, the grid
    samples at the floor and ceiling of each jump and of the window's ends
    and of each span, and those on both sides of each clock's slip
    (a grid step m to m+1 over which its ticks minus m change; monotone in
    m, so bisection finds each): about 29 of 271 samples on a reference
    window.  Between two kept samples no clock jumps and
    each reads m plus a constant, so every pair's ring distance stays that
    of the first; and each rate sequence below (e, f) falls by
    T_H*L*rho_num per sample, so a run's first sample bounds its rises and
    its last its running minimum.  A jump on the grid is its own floor and
    ceiling, so it adds one sample: side 0 of that sample reads the clocks
    just before the jump, one tick past the grid sample a step earlier on
    every clock, unless a jump or a slip lies between the two, and either
    keeps that earlier sample.  A block's samples are picked once, over
    [t_0, t_B], and those in [t_j, t_j+1] are exactly window j's own pick:
    each block mark is a mark of the window that holds it, a floor or
    ceiling of it outside that window is also one of the window's edge,
    which the neighbour picks too, and a slip across an edge lands on that
    edge's floor and ceiling.  A reading depends only on its instant, so
    each window gets the verdict it would get alone.

    Returns one (verdict, max precision deviation seen in ticks) per window.
    """
    if len(edges) < 2 or sorted(edges) != list(edges):
        raise ConfigurationError(f"window edges must be at least two, in order: {edges}")
    eps0 = rp.eps0 if eps0 is None else eps0
    n_win = len(edges) - 1
    if not tracks:
        return [(True, 0)] * n_win
    tau = rp.tau_max
    THL, delta = _lengths(rp, L)
    n, span = len(tracks), edges[-1] - edges[0] + 1
    # keys: track k's jumps in the block, shifted k*span later, so that all
    # tracks' keys form one sorted array.  cums: each track's shifts end to
    # end, each led by the shift it carries in.
    jumps, keys, cums = [], [], []
    for k, tr in enumerate(tracks):
        jt, cum = tr.jump_times, tr.jump_cum
        lo, hi = bisect_left(jt, edges[0]), bisect_right(jt, edges[-1])
        inside, shift = jt[lo:hi], k * span
        cums.append(cum[lo - 1] if lo else 0)
        cums += cum[lo:hi]
        jumps += inside
        keys += [t + shift for t in inside]

    # Each window's rate spans, as (first instant, last instant, window), and
    # the block's samples.
    spans = []
    for j, (t1, t2) in enumerate(zip(edges, edges[1:])):
        starts = list(range(t1, t2, delta))
        starts += [s + delta // 2 for s in starts[:-1]]
        spans += [(s, min(s + delta, t2), j) for s in starts]
    samples = _decisive_samples(tracks, jumps, edges[0], edges[-1], THL,
                                [*edges, *(t for s, stop, _j in spans for t in (s, stop))])
    ts = np.array(samples, dtype=np.int64)

    # U holds one row per track, with the readings at each sample
    # interleaved, side 0 first; its row n is the instant itself, read as a
    # clock of period 1 that never jumps.
    clocks = np.array([(tr.clock.t_ref, tr.clock.period, tr.clock.h0 + tr.offset0)
                       for tr in tracks] + [(0, 1, 0)], dtype=np.int64)
    t_ref, period, base = clocks.T[:, :, None]
    # Side 0 counts a track's jumps before each sample, side 1 those at or
    # before it: on integers, searching q + 1 is searching q to the right.
    q = (ts[:, None] + _SIDES).ravel() + np.arange(0, (n + 1) * span, span)[:, None]
    idx = np.searchsorted(np.array(keys, dtype=np.int64), q) + np.arange(n + 1)[:, None]
    U = (np.repeat(ts, 2) - t_ref) // period + np.array(cums + [0])[idx]

    # A window without samples passes with deviation 0.
    devs = [0] * n_win
    ok = [True] * n_win
    if n > 1:
        V = (base[:n] + U[:n]) % tau
        a, b = _pairs(n)
        d = np.abs(V[a] - V[b])
        worst = np.minimum(d, tau - d).max(axis=0).tolist()
        for j, (t1, t2) in enumerate(zip(edges, edges[1:])):
            seg = worst[2 * bisect_left(samples, t1):2 * bisect_right(samples, t2)]
            if seg:
                devs[j] = max(seg)
                ok[j] = devs[j] <= eps0

    # Rate condition, exact integer arithmetic: scale by T_H*L and by the
    # denominator of rho so both sides are integers.  Pre/post readings at
    # each instant interleave, pre first; rebasing each span on its first
    # reading bounds the int64 magnitudes by the span, not the run, and
    # shifts each sequence by a constant, which leaves its rises unchanged.
    # Each span that holds two samples or more: its first and last column
    # of readings, and its window.
    cols, owner, width = [], [], 0
    for s0, stop, j in spans:
        lo, hi = bisect_left(samples, s0), bisect_right(samples, stop)
        if hi - lo >= 2:
            cols.append((2 * lo, 2 * hi - 1))
            owner.append(j)
            width = max(width, 2 * (hi - lo))
    if cols:
        pr, qr = rp.rho.numerator, rp.rho.denominator
        c = np.array(cols, dtype=np.int64)
        # Each span padded to the longest by repeating its last reading,
        # which cannot raise max(e - cummin(e)).
        x = U[:, np.minimum(c[:, :1] + np.arange(width), c[:, 1:])]
        x = x - x[:, :, :1]
        # Clock k's readings u_k and the instants s give the rate sequences
        # e_k = THL*qr*u_k - (qr+pr)*s and f_k = (qr-pr)*s - THL*qr*u_k.
        su, s = THL * qr * x[:n], x[n]
        ef = np.concatenate((su - (qr + pr) * s, (qr - pr) * s - su))
        rise = (ef - np.minimum.accumulate(ef, axis=2)).max(axis=(0, 2))
        for j, r in zip(owner, rise.tolist()):
            if r > eps0 * THL * qr:
                ok[j] = False
    return list(zip(ok, devs))


def _against_stacked(tracks, edges, rp, L, eps0=None):
    got = sync_check(tracks, edges, rp, L, eps0=eps0)
    assert got == stacked_sync_check(tracks, edges, rp, L, eps0=eps0)
    return got


@pytest.mark.same_bytes
def test_kernel_matches_the_stacked_checker_on_block_cases():
    verdicts = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(window_blocks())
    def check(case):
        tracks, edges, eps0 = case
        verdicts.update(ok for ok, _dev in _against_stacked(tracks, edges, SMALL_RP, SMALL_L,
                                                            eps0))

    check()
    assert verdicts == {False, True}


@pytest.mark.same_bytes
@pytest.mark.parametrize("init", ["synchronized", "random"])
@pytest.mark.parametrize("name", ["silent", "random_noise", "max_skew", "split_brain"])
def test_kernel_matches_the_stacked_checker_on_recorded_runs(name, init):
    # The recorded runs of test_recorded_windows_evaluate_few_samples, in
    # blocks of 1, 7, 32 and 40 windows; then windows 1.5 T_max long, each
    # two aligned rate spans and a half-shifted one.
    w = World(RP, make_adversary(name), seed=4, init_policy=init, trace_level="off")
    w.run_until_window(40)
    tracks, edges = w.qap_tracks(), [k * w.window for k in range(41)]
    for size in (1, 7, 32, 40):
        for lo in range(0, 40, size):
            _against_stacked(tracks, edges[lo:lo + size + 1], RP, w.L)
    long = [k * (3 * w.window // 2) for k in range(27)]
    got = _against_stacked(tracks, long, RP, w.L)
    w.close()
    assert len(got) == 26
    if init == "random":
        assert {ok for ok, _dev in got} == {False, True}


@pytest.mark.same_bytes
def test_kernel_compares_every_pair_past_half_the_ring():
    # Three clocks a third of the ring apart: their offsets from the first
    # spread over 2731 ticks, more than half the ring, yet no two are more
    # than 1366 apart.  Halfway through the block the third clock comes
    # back beside the first, which breaks the rate condition in its window,
    # and the spread is the largest distance again.
    tau, L = RP.tau_max, 10
    a, b, c = (_const_track(tau, off, period=L) for off in (0, 1365, 2730))
    c.record(t=5000, new=2)
    edges = [0, 2000, 4000, 6000, 8000]
    assert _against_stacked([a, b, c], edges, RP, L) == \
        [(False, 1366), (False, 1366), (False, 1366), (False, 1365)]
    assert _against_stacked([a, b, c], edges, RP, L, eps0=1366) == \
        [(True, 1366), (True, 1366), (False, 1366), (True, 1365)]


@pytest.mark.same_bytes
def test_jumps_at_one_instant_are_one():
    # Two adjustments of b at one instant, each the short way round the
    # ring: the track keeps one jump there, whose shift is their sum, the
    # long way round.  The stacked checker, reading the two jumps apart,
    # gives the same verdicts: b's 4094 ticks in no time break the rate
    # condition, though b reads 2 ticks behind a after the instant.
    a, b = _const_track(4096, 0), _const_track(4096, 0)
    b.record(t=2500, new=2047)
    b.record(t=2500, new=4094)
    assert b.jump_times == [2500] and b.jump_cum == [4094]
    apart = ClockTrack(b.clock, 0, [2500, 2500], [2047, 4094])
    edges = [0, 2000, 4000, 6000]
    assert sync_check([a, b], edges, RP, 10) == stacked_sync_check([a, apart], edges, RP, 10) \
        == [(True, 0), (False, 2), (True, 2)]


def _transient(fn, *args):
    """fn(*args)'s tracemalloc peak above what was in use before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_block_check_in_bounded_memory():
    # A recorded 32-window block of closure's shape (synchronized start, no
    # early stop), its tracks cut at the block's start as run_once leaves
    # them: the check's arrays are clocks x samples in size, and its peak
    # stays under 0.6 MB on every built-in, a third or less of the stacked
    # checker's.
    for name in ("silent", "random_noise", "max_skew", "split_brain"):
        w = World(RP, make_adversary(name), seed=5, init_policy="synchronized",
                  trace_level="off")
        w.run_until_window(64)
        w.close()
        tracks, edges = w.qap_tracks(), [k * w.window for k in range(32, 65)]
        for tr in tracks:
            tr.forget_before(edges[0])
        sync_check(tracks, edges, RP, w.L)         # warm: caches and lazy imports
        peak = _transient(sync_check, tracks, edges, RP, w.L)
        assert peak <= 600_000, (name, peak)
        assert 3 * peak <= _transient(stacked_sync_check, tracks, edges, RP, w.L), name


@pytest.mark.parametrize("edges", [[], [5], [5, 3], (5, 3), [0, 10, 9, 20]])
def test_block_edges_must_be_in_order(edges):
    with pytest.raises(ConfigurationError, match="window edges"):
        sync_check([_const_track(4096, 0)], edges, RP, 10)


# ---- trace levels ---------------------------------------------------------------


@pytest.mark.parametrize("init", ["synchronized", "random"])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_untraced_run_builds_no_record(name, init, monkeypatch):
    def refuse(self, line):
        raise AssertionError(f"trace record built at level off: {line}")

    monkeypatch.setattr(Trace, "add", refuse)
    sc = reference_scenario(adversary=name, init=init, horizon=20, stop_after_confirm=False)
    assert run_once(sc, 1).windows_run == 20


def test_core_trace_builds_no_full_only_record(monkeypatch):
    # Every record a run asks for, by the level of the run that asked.
    asked = {"core": set(), "full": set()}
    add = Trace.add

    def spy(self, line):
        asked[level].add(json.loads(line)["ev"])
        add(self, line)

    monkeypatch.setattr(Trace, "add", spy)
    seen = {"core": set(), "full": set()}
    adversaries = [*(lambda n=n: make_adversary(n) for n in BUILTINS), _LateSender]
    for adversary, init, level in itertools.product(adversaries, ("synchronized", "random"),
                                                    ("core", "full")):
        w = World(RP, adversary(), seed=2, init_policy=init, trace_level=level)
        w.run_until_window(20)
        seen[level] |= {r["ev"] for r in _records(w)}
    assert seen["core"] and seen["core"].isdisjoint(FULL_ONLY)
    assert seen["full"] == seen["core"] | FULL_ONLY     # each full-only kind occurs
    assert asked == seen


def test_recorded_level_reads_lines(tmp_path):
    # The level comes from the lines, a list or an open file, and reading
    # stops at the first full-only record; a bare str would be read one
    # character at a time, so it is refused.
    w = World(RP, make_adversary("random_noise"), seed=2, trace_level="full")
    w.run_until_window(3)
    w.close()
    lines = w.trace.records
    core = [line for line in lines if json.loads(line)["ev"] not in FULL_ONLY]
    assert (simnet.recorded_level(lines), simnet.recorded_level(core)) == ("full", "core")
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines))
    with open(path) as f:
        assert simnet.recorded_level(f) == "full"
        first = next(k for k, line in enumerate(lines) if json.loads(line)["ev"] in FULL_ONLY)
        assert f.readline() == lines[first + 1]
    with pytest.raises(TypeError, match="not a str"):
        simnet.recorded_level(w.trace.to_jsonl())
