"""Deterministic discrete-event simulator for the plane-synchronized network.

Time is exact: every event instant is an integer count of "subticks", where
one simulated time unit equals `World.L` subticks.  L is the least common
multiple of the denominators of every rational quantity that can enter a
timestamp (tick periods, slot skews, delivery delays), so no rounding ever
occurs and runs are bit-reproducible across platforms.

Hardware clocks never tick event-by-event.  Each clock is a closed-form
staircase (reference instant, constant period, initial reading); slot
boundaries, SIG instants, and watchdogs are computed directly on that
staircase, which keeps the event count per round small regardless of how
many ticks elapse.

Round structure: a master switch emits a SIG when its adjusted clock hits a
multiple of T while idle (protocol.py states the SIG and watchdog rules;
this module only schedules them).  The SIG gives every member of the plane (the
switch itself plus each terminal's per-plane interface) a round anchor
offset by a bounded skew; TT-slot boundaries then ride on each member's own
tick progression.  A plane's round keeps the first relay from each
terminal until its receive slot ends; a terminal buffers a clock value that
arrives before its receive slot opens and processes it at slot begin.
Arrivals after slot end are dropped.

An honest message that will land in its round and simply be kept there is
stored at send time, with no delivery event: an honest terminal's relay
that reaches the plane's round before its receive slot ends, and an honest
plane's clock value that reaches a terminal's round before its receive
slot opens.  One rule decides at send time and at arrival: `_Round.fate`,
with the upward policing in `World._refusal_up`.  The store is exact: the
round stays current until the arrival, and it reads what it holds only at
its slot boundaries, later still.  Every other message keeps its delivery
event at its arrival instant: faulty traffic, a value that arrives inside
a terminal's receive slot, and any message to drop.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from random import Random
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, SimulationError
from .params import Resolved
from .protocol import (
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
from .ring import wrap_add, wrap_sub

__all__ = [
    "Engine",
    "HardwareClock",
    "ClockTrack",
    "World",
    "Trace",
    "sync_check",
    "derive_seed",
    "DRIFT_DENOM",
    "QUANT",
    "INIT_POLICIES",
    "TRACE_LEVELS",
]

INIT_POLICIES = ("synchronized", "random")
TRACE_LEVELS = ("off", "core", "full")

# Event-kind processing order at equal instants.  Slot handlers run before
# the SIG check of the same tick (a completed round may re-arm immediately);
# deliveries at a boundary instant land in the freshly opened round.
K_SLOT = 0
K_WATCHDOG = 1
K_SIG = 2
K_DELIVER = 3
K_ADV = 4

DRIFT_DENOM = 1_000_000   # tick periods are T_H * k / DRIFT_DENOM
QUANT = 16                # skew/delay/phase quantization steps


def derive_seed(master: int, tag: str) -> int:
    """Platform-stable child seed for an independent random stream."""
    import hashlib

    digest = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Min-heap event loop over integer subtick timestamps.

    An event is a handler and its arguments; it runs as fn(*args).
    Tie-break at equal instants: (node rank, kind rank, insertion sequence),
    independent of insertion interleaving.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0

    def schedule(self, t: int, node_rank: int, kind: int, fn: Callable[..., None],
                 *args) -> None:
        if t < self.now:
            raise SimulationError(f"event scheduled in the past: {t} < {self.now}")
        heapq.heappush(self._heap, (t, node_rank, kind, self._seq, fn, args))
        self._seq += 1

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    def run_until(self, t_stop: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= t_stop:
            t, _rank, _kind, _seq, fn, args = heapq.heappop(heap)
            self.now = t
            fn(*args)
        if self.now < t_stop:
            self.now = t_stop


@dataclass
class HardwareClock:
    """Constant-rate tick staircase: reading h0 at tick 0, tick k at
    t_ref + k*period (subticks)."""

    t_ref: int
    period: int
    h0: int
    tau: int

    def ticks_at(self, t: int) -> int:
        return (t - self.t_ref) // self.period

    def h_at(self, t: int) -> int:
        return (self.h0 + self.ticks_at(t)) % self.tau

    def time_of_tick(self, k: int) -> int:
        return self.t_ref + k * self.period

    def first_tick(self, t: int) -> int:
        """Index of the first tick at or after t."""
        return -((self.t_ref - t) // self.period)


@dataclass
class ClockTrack:
    """Sampling view of one node's adjusted clock: the hardware staircase
    plus the step function of applied offsets."""

    clock: HardwareClock
    offset0: int
    jump_times: list[int] = field(default_factory=list)
    jump_offsets: list[int] = field(default_factory=list)
    jump_cum: list[int] = field(default_factory=list)  # signed cumulative shift

    def record(self, t: int, old: int, new: int) -> None:
        tau = self.clock.tau
        delta = (new - old) % tau
        if delta > tau // 2:
            delta -= tau
        prev = self.jump_cum[-1] if self.jump_cum else 0
        self.jump_times.append(t)
        self.jump_offsets.append(new)
        self.jump_cum.append(prev + delta)

    def offset_at(self, t: int, side: str = "right") -> int:
        idx = (bisect_right if side == "right" else bisect_left)(self.jump_times, t)
        return self.jump_offsets[idx - 1] if idx else self.offset0

    def value_at(self, t: int, side: str = "right") -> int:
        return (self.clock.h_at(t) + self.offset_at(t, side)) % self.clock.tau


class Trace:
    """Chronological event record; exports line-delimited JSON with a stable
    field order so identical runs produce identical bytes."""

    def __init__(self, level: str = "core") -> None:
        if level not in TRACE_LEVELS:
            raise ConfigurationError(f"unknown trace level {level!r}")
        self.level = level
        self.records: list[dict] = []

    def add(self, core: bool, **rec) -> None:
        if self.level == "off" or (self.level == "core" and not core):
            return
        self.records.append(rec)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in self.records
        )


# What a terminal's round does with a clock value arriving at an instant.
DROP, BUFFER, INGEST = range(3)


@dataclass
class _Round:
    """One round of a plane, or of one terminal's interface to a plane: its
    anchor and its receive slot [b_recv, e_recv).  It takes messages from
    its anchor until its receive slot ends.  A plane's round holds the
    first relay from each terminal and the clock value it chose; a
    terminal's holds the clock values that arrive before its slot opens.
    Every event of a round carries this object.  A terminal's handlers
    return once another round has taken its place; a plane's rounds never
    overlap, since each SIG starts one only when the previous has ended."""

    anchor: int
    b_recv: int
    e_recv: int
    buffer: list = field(default_factory=list)
    relays: dict = field(default_factory=dict)   # terminal -> TTMessageUp
    c_new: Optional[int] = None

    def fate(self, t: int) -> int:
        """DROP, BUFFER or INGEST for a message arriving at instant t.  The
        slot handlers at e_recv run before any delivery at that instant, so
        an arrival at e_recv is already too late."""
        if not (self.anchor <= t < self.e_recv):
            return DROP
        return BUFFER if t < self.b_recv else INGEST


class World:
    """One simulated system: nodes, clocks, round machinery, adversary."""

    def __init__(self, rp: Resolved, adversary, seed: int, init_policy: str = "random",
                 trace_level: str = "core") -> None:
        self.rp = rp
        self.seed = seed
        self.engine = Engine()
        self.trace = Trace(trace_level)
        self.adversary = adversary

        n0, n1 = rp.n0, rp.n1
        self.faulty_planes = set(range(n1 - rp.f1, n1))
        self.faulty_mes = set(range(n0 - rp.f0, n0))
        self.honest_planes = [p for p in range(n1) if p not in self.faulty_planes]
        self.honest_mes = [i for i in range(n0) if i not in self.faulty_mes]

        self.init_rng = Random(derive_seed(seed, "init"))
        self.adv_rng = Random(derive_seed(seed, "adversary"))
        self.coin_rng = {p: Random(derive_seed(seed, f"coin:{p}")) for p in self.honest_planes}

        # Adversary-chosen per-node rates and tick phases, then the global
        # subtick scale from every rational that can enter a timestamp.
        eps_rnd = rp.dv.eps_rnd  # simulated time units, Fraction
        self.warnings: list[str] = []  # clamped periods
        adversary.bind(self)
        try:
            periods: dict = {}
            phases: dict = {}
            for key in self._node_keys():
                periods[key] = self._quantize_period(adversary.choose_period(key))
                phases[key] = Fraction(adversary.choose_phase(key) % QUANT, QUANT)
            atoms = [rp.sys.T_H, Fraction(rp.sys.T_H, QUANT), Fraction(rp.sys.d_max, QUANT)]
            if eps_rnd > 0:
                atoms.append(Fraction(eps_rnd, QUANT))
            atoms.extend(periods.values())
            atoms.extend(p * q for p, q in zip(periods.values(), phases.values()))
            self.L = math.lcm(*(a.denominator for a in atoms))

            scaled = self.scaled
            self.THL = scaled(rp.sys.T_H)
            self.skew_quantum = scaled(Fraction(eps_rnd, QUANT)) if eps_rnd > 0 else 0
            self.delay_quantum = scaled(Fraction(rp.sys.d_max, QUANT))
            # Observation-window length in subticks, rounded up to the grid.
            self.window = math.ceil(rp.dv.T_max * rp.sys.T_H * self.L)
            # Policed image of the upward slot, in subticks from a round anchor:
            # the slot stretched by the drift bound and the round-start skew.
            sc, T_H, rho = rp.sched, rp.sys.T_H, rp.rho
            self._police_lo = math.floor((sc.vc_send[0] * (1 - rho) * T_H - eps_rnd) * self.L)
            self._police_hi = math.ceil((sc.vc_send[1] * (1 + rho) * T_H + eps_rnd) * self.L)

            tau = rp.tau_max
            self.clocks: dict = {}
            self.tracks: dict = {}
            for key in self._node_keys():
                h0 = self.init_rng.randrange(tau)
                t_ref = -scaled(periods[key] * phases[key])
                self.clocks[key] = HardwareClock(t_ref=t_ref, period=scaled(periods[key]),
                                                 h0=h0, tau=tau)

            self.mws: dict[int, MwsState] = {}
            self.mes: dict[int, MesState] = {}
            self.plane_round: dict[int, Optional[_Round]] = {p: None for p in self.honest_planes}
            self.mes_round: dict[tuple[int, int], _Round] = {
                (i, p): _Round(-1, -1, -1)
                for i in self.honest_mes for p in range(n1)
            }

            # Coin tosses, for the harness's resynchronization points.
            self.toss_log: list[tuple[int, int, int, int]] = []   # (t, plane, b, gl_after)

            self._init_states(init_policy)
            adversary.setup()
            for p in self.honest_planes:
                self._arm_initial(p)
        except BaseException:
            # The adversary refers back to this half-built world: unbind it,
            # so reference counting frees the world without the collector.
            self.close()
            raise

    # ---- construction helpers -------------------------------------------

    def scaled(self, x: Fraction) -> int:
        """Exact subtick count of a time quantity on this world's grid."""
        v = x * self.L
        assert v.denominator == 1
        return int(v)

    def _node_keys(self):
        for p in range(self.rp.n1):
            yield ("mws", p)
        for i in range(self.rp.n0):
            yield ("mes", i)

    def _quantize_period(self, period: Fraction) -> Fraction:
        rp = self.rp
        lo = (1 - rp.rho) * rp.sys.T_H
        hi = (1 + rp.rho) * rp.sys.T_H
        snapped = rp.sys.T_H * Fraction(round(Fraction(period, rp.sys.T_H) * DRIFT_DENOM),
                                        DRIFT_DENOM)
        clamped = min(max(snapped, lo), hi)
        if clamped != period:
            self.warnings.append(f"period {period} adjusted to {clamped}")
        return clamped

    def _init_states(self, policy: str) -> None:
        rp, tau, rng = self.rp, self.rp.tau_max, self.init_rng
        if policy == "synchronized":
            # Start on a SIG boundary with records that look exactly like the
            # aftermath of a completed previous round: the last distributed
            # value was one cycle behind the upcoming one, received at the
            # usual point of the slot schedule.
            T = rp.T % tau
            c_init = (rp.T * rng.randrange(tau // rp.T)) % tau
            # A plane's first SIG may anchor one or more cycles past c_init
            # depending on its tick phase; records must sit exactly one cycle
            # behind that anchor or the first accuracy check fails.
            anchor_c: dict[int, int] = {}
            for p in range(rp.n1):
                k = next_sig_tick(c_init, self.clocks[("mws", p)].first_tick(0), tau, T)
                anchor_c[p] = (c_init + k) % tau
            for p in self.honest_planes:
                clk = self.clocks[("mws", p)]
                off = wrap_sub(c_init, clk.h0, tau)
                self.mws[p] = MwsState(tau_max=tau, clock_offset=off, c_tilde_old=off)
            for i in self.honest_mes:
                clk = self.clocks[("mes", i)]
                off = wrap_sub(c_init, clk.h0, tau)
                st = MesState(n1=rp.n1, clock_offset=off)
                for q in range(rp.n1):
                    rec_lag = wrap_sub(
                        wrap_add(wrap_sub(anchor_c[q], T, tau), rp.sched.c_send[1] % tau, tau),
                        c_init, tau)
                    st.m_rec[q] = wrap_add(c_init, rec_lag, tau)
                    st.h_rec[q] = wrap_add(clk.h0, rec_lag, tau)
                    st.acc[q] = rp.a0
                self.mes[i] = st
        elif policy == "random":
            for p in self.honest_planes:
                tau_idl = tau if rng.random() < 0.5 else rng.randrange(tau)
                clock_offset = rng.randrange(tau)
                grand_life = rng.randrange(rp.dv.g0 + 1)
                rng.randrange(2)  # unread draw (a last coin); it keeps each seed's bytes
                self.mws[p] = MwsState(tau_max=tau, clock_offset=clock_offset,
                                       grand_life=grand_life, tau_idl=tau_idl,
                                       c_tilde_old=rng.randrange(tau))
            for i in self.honest_mes:
                st = MesState(n1=rp.n1, clock_offset=rng.randrange(tau))
                for q in range(rp.n1):
                    if rng.random() < 0.5:
                        st.m_rec[q] = rng.randrange(tau)
                        st.h_rec[q] = rng.randrange(tau)
                        st.acc[q] = rng.randrange(rp.a0 + 1)
                        # Unread draws (an older record); they keep each seed's bytes.
                        if rng.random() < 0.5:
                            rng.randrange(tau)
                            rng.randrange(tau)
                self.mes[i] = st
        else:
            raise ConfigurationError(f"unknown initial-state policy {policy!r}")

        for p in self.honest_planes:
            self.tracks[("mws", p)] = ClockTrack(self.clocks[("mws", p)],
                                                 self.mws[p].clock_offset)
        for i in self.honest_mes:
            self.tracks[("mes", i)] = ClockTrack(self.clocks[("mes", i)],
                                                 self.mes[i].clock_offset)

    def _arm_initial(self, p: int) -> None:
        k0 = self.clocks[("mws", p)].first_tick(0)
        if self.mws[p].idle:
            self._schedule_sig(p, k0)
        else:
            # Mid-round start: the watchdog rescues the plane once the
            # hardware clock walks past tau_idl.  This is the only watchdog
            # ever scheduled.  A SIG's watchdog could not fire: validate keeps
            # c_send[1] <= T0, so the round's end_cs comes before tick
            # k + T0 + 1, and end_cs always rearms.
            self._schedule_watchdog_fire(p, k0)

    # ---- small utilities --------------------------------------------------

    def rank(self, key) -> int:
        return key[1] if key[0] == "mws" else self.rp.n1 + key[1]

    def read_clock(self, key, t: Optional[int] = None) -> int:
        t = self.engine.now if t is None else t
        clk = self.clocks[key]
        state = self.mws[key[1]] if key[0] == "mws" else self.mes[key[1]]
        return (clk.h_at(t) + state.clock_offset) % clk.tau

    def _skew(self, i: int, p: int) -> int:
        if self.skew_quantum == 0:
            return 0
        k = self.adversary.choose_skew(i, p)
        return min(max(int(k), 0), QUANT) * self.skew_quantum

    def _delay(self, sender, p: int) -> int:
        k = self.adversary.choose_delay(sender, p)
        return min(max(int(k), 1), QUANT) * self.delay_quantum

    def _record_adjust(self, key, old: int, new: int) -> None:
        self.tracks[key].record(self.engine.now, old, new)
        self.trace.add(True, ev="adjust", t=self.engine.now, node=list(key),
                       old=old, new=new)

    # ---- plane (MWS) round machinery --------------------------------------

    def _schedule_sig(self, p: int, k_min: int) -> None:
        st = self.mws[p]
        clk = self.clocks[("mws", p)]
        base = (clk.h0 + st.clock_offset) % clk.tau
        k = next_sig_tick(base, k_min, clk.tau, self.rp.T % clk.tau)
        self.engine.schedule(clk.time_of_tick(k), p, K_SIG, self._on_sig, p)

    def _schedule_watchdog_fire(self, p: int, k: int) -> None:
        """Watchdog of plane p, busy from the start, counted from its
        hardware tick k."""
        clk = self.clocks[("mws", p)]
        k_fire = k + mws_watchdog_ticks(self.mws[p], (clk.h0 + k) % clk.tau, self.rp)
        self.engine.schedule(clk.time_of_tick(k_fire), p, K_WATCHDOG,
                             self._on_watchdog_fire, p)

    def _on_sig(self, p: int) -> None:
        # Scheduled only for an idle plane, and nothing else makes it busy.
        st = self.mws[p]
        t = self.engine.now
        clk = self.clocks[("mws", p)]
        h = clk.h_at(t)
        mws_on_sig(st, h, self.rp)
        self.trace.add(True, ev="sig", t=t, plane=p, c=(h + st.clock_offset) % clk.tau)

        k = clk.ticks_at(t)
        sc = self.rp.sched
        rnd = _Round(t, clk.time_of_tick(k + sc.mc_recv[0]), clk.time_of_tick(k + sc.mc_recv[1]))
        self.plane_round[p] = rnd
        eng = self.engine
        t_end_cs = clk.time_of_tick(k + sc.c_send[1])
        eng.schedule(rnd.e_recv, p, K_SLOT, self._on_end_mc, p, rnd)
        eng.schedule(clk.time_of_tick(k + sc.c_send[0]), p, K_SLOT, self._on_begin_cs, p, rnd,
                     t_end_cs)
        eng.schedule(t_end_cs, p, K_SLOT, self._on_end_cs, p, rnd)

        self._start_member_rounds(p, t)
        self.adversary.on_sig(p, t)

    def _start_member_rounds(self, p: int, t_sig: int) -> None:
        """Give every terminal a skewed anchor for plane p's new round."""
        sc = self.rp.sched
        for i in range(self.rp.n0):
            anchor = t_sig + self._skew(i, p)
            if i in self.faulty_mes:
                self.adversary.faulty_mes_round(i, p, anchor)
                continue
            period = self.clocks[("mes", i)].period
            rnd = _Round(anchor, anchor + sc.c_recv[0] * period, anchor + sc.c_recv[1] * period)
            self.mes_round[(i, p)] = rnd
            rank = self.rank(("mes", i))
            eng = self.engine
            eng.schedule(anchor + sc.vc_send[0] * period, rank, K_SLOT,
                         self._on_begin_vc, i, p, rnd)
            eng.schedule(rnd.b_recv, rank, K_SLOT, self._on_begin_cr, i, p, rnd)
            eng.schedule(rnd.e_recv, rank, K_SLOT, self._on_end_cr, i, p, rnd)

    def _on_watchdog_fire(self, p: int) -> None:
        # Nothing else is scheduled for a plane that starts busy, so it is
        # still busy, before its first round, when this fires.
        mws_rearm(self.mws[p])
        self.trace.add(True, ev="watchdog", t=self.engine.now, plane=p)
        clk = self.clocks[("mws", p)]
        self._schedule_sig(p, clk.ticks_at(self.engine.now))

    def _on_end_mc(self, p: int, rnd: _Round) -> None:
        st = self.mws[p]
        t = self.engine.now
        h = self.clocks[("mws", p)].h_at(t)
        summary = mws_on_end_mc_recv(st, rnd.relays, h, self.coin_rng[p], self.rp)
        rnd.c_new = summary.c_new
        self.toss_log.append((t, p, summary.b_coin, st.grand_life))
        self.trace.add(True, ev="round", t=t, plane=p, b=summary.b_coin,
                       gl=st.grand_life, stb=summary.stb, branch=summary.branch,
                       c_new=summary.c_new)

    def _on_begin_cs(self, p: int, rnd: _Round, t_end_cs: int) -> None:
        # validate orders the slots, so the round's end_mc has chosen c_new.
        m = rnd.c_new
        t = self.engine.now
        for i in range(self.rp.n0):
            if i in self.faulty_mes:
                continue
            arrival = t + self._delay(("mws", p), p)
            self.trace.add(False, ev="send_down", t=t, plane=p, to=i, m=m,
                           arrival=arrival)
            # Only this plane's next SIG replaces the terminal's round for
            # it, and that comes no earlier than end_cs: before then, the
            # round it will land in is the one open now.
            dest = self.mes_round[(i, p)]
            if arrival < t_end_cs and dest.fate(arrival) == BUFFER:
                dest.buffer.append(m)
            else:
                self.engine.schedule(arrival, self.rank(("mes", i)), K_DELIVER,
                                     self._deliver_down, p, i, m)

    def _on_end_cs(self, p: int, rnd: _Round) -> None:
        st = self.mws[p]
        clk = self.clocks[("mws", p)]
        old = st.clock_offset
        mws_on_end_c_send(st, rnd.c_new, clk.h_at(self.engine.now), self.rp)
        self._record_adjust(("mws", p), old, st.clock_offset)
        self._schedule_sig(p, clk.ticks_at(self.engine.now))

    # ---- terminal (MES) round machinery ------------------------------------

    def _on_begin_vc(self, i: int, p: int, rnd: _Round) -> None:
        if self.mes_round[(i, p)] is not rnd:
            return
        t = self.engine.now
        h = self.clocks[("mes", i)].h_at(t)
        msg = mes_on_begin_vc_send(self.mes[i], h, self.rp)
        self.send_up(i, p, msg, t)

    def send_up(self, i: int, p: int, msg: TTMessageUp, send_t: int) -> None:
        if p in self.faulty_planes:
            self.adversary.on_up_to_faulty(i, p, msg, send_t)
            return
        arrival = send_t + self._delay(("mes", i), p)
        self.trace.add(False, ev="send_up", t=send_t, mes=i, plane=p, arrival=arrival)
        # A plane's round stays current until the SIG after its end_cs, so
        # a relay that this round takes at its arrival is stored now.
        rnd = self.plane_round[p]
        if rnd is not None and self._refusal_up(rnd, send_t, arrival) is None:
            rnd.relays.setdefault(i, msg)
        else:
            self.engine.schedule(arrival, self.rank(("mws", p)), K_DELIVER,
                                 self._deliver_up, p, send_t, i, msg)

    def _refusal_up(self, rnd: _Round, send_t: int, arrival: int) -> Optional[str]:
        """Why plane round rnd refuses a relay sent at send_t that arrives at
        `arrival`; None when it keeps it.  TT isolation at the plane
        boundary: the send instant must lie in the policed image of the
        upward slot for the round."""
        if not (rnd.anchor + self._police_lo <= send_t <= rnd.anchor + self._police_hi):
            return "outside policed slot"
        return "late" if rnd.fate(arrival) == DROP else None

    def _deliver_up(self, p: int, send_t: int, i: int, msg: TTMessageUp) -> None:
        rnd = self.plane_round[p]
        if rnd is None:
            return
        why = self._refusal_up(rnd, send_t, self.engine.now)
        if why is None:
            rnd.relays.setdefault(i, msg)
        else:
            self.trace.add(False, ev="drop_up", t=self.engine.now, plane=p, mes=i, why=why)

    def _deliver_down(self, p: int, i: int, m: int) -> None:
        """A clock value at its arrival instant.  An honest plane's value
        that lands before the receive slot opens was buffered at send time;
        what comes here is faulty traffic, a value arriving inside the
        slot, which is ingested at once, or a value to drop."""
        rnd = self.mes_round[(i, p)]
        now = self.engine.now
        fate = rnd.fate(now)
        if fate == DROP:
            self.trace.add(False, ev="drop_down", t=now, plane=p, mes=i, why="no round")
        elif fate == BUFFER:
            rnd.buffer.append(m)
        else:
            self._ingest_down(i, p, m)

    def _ingest_down(self, i: int, p: int, m: int) -> None:
        h = self.clocks[("mes", i)].h_at(self.engine.now)
        mes_on_clock_msg(self.mes[i], p, m, h, self.rp)
        self.trace.add(False, ev="recv_down", t=self.engine.now, mes=i, plane=p, m=m)

    def _on_begin_cr(self, i: int, p: int, rnd: _Round) -> None:
        if self.mes_round[(i, p)] is not rnd:
            return
        for m in rnd.buffer:
            self._ingest_down(i, p, m)
        rnd.buffer = []

    def _on_end_cr(self, i: int, p: int, rnd: _Round) -> None:
        if self.mes_round[(i, p)] is not rnd:
            return
        st = self.mes[i]
        old = st.clock_offset
        mes_on_end_c_recv(st, self.clocks[("mes", i)].h_at(self.engine.now), self.rp)
        self._record_adjust(("mes", i), old, st.clock_offset)

    # ---- adversary-facing hooks for faulty components ----------------------

    def faulty_sig(self, p: int, t_sig: int) -> None:
        """A faulty plane starts a round: terminals get anchors as usual, but
        the plane side is entirely adversary-driven."""
        if p not in self.faulty_planes:
            raise SimulationError("faulty_sig on a nonfaulty plane")
        self.trace.add(True, ev="sig", t=t_sig, plane=p, c=None)
        self._start_member_rounds(p, t_sig)

    def adv_deliver_down(self, p: int, i: int, m: int, arrival: int) -> None:
        if p not in self.faulty_planes:
            raise SimulationError("adversarial delivery from a nonfaulty plane")
        if i in self.faulty_mes:
            return
        arrival = max(arrival, self.engine.now)
        self.engine.schedule(arrival, self.rank(("mes", i)), K_DELIVER,
                             self._deliver_down, p, i, m % self.rp.tau_max)

    def adv_send_up(self, i: int, p: int, msg: TTMessageUp, send_t: int) -> None:
        """A faulty terminal's upload, put in wire form: each vector has n1
        entries, and every clock value is reduced onto the ring."""
        if i not in self.faulty_mes:
            raise SimulationError("adversarial upward send from a nonfaulty terminal")
        n1, tau = self.rp.n1, self.rp.tau_max
        for name in ("c_vec", "a_vec", "m_vec"):
            n = len(getattr(msg, name))
            if n != n1:
                raise SimulationError(
                    f"terminal {i} sent plane {p} a {name} of {n} entries, not n1 = {n1}")
        if p in self.faulty_planes:
            return
        msg = replace(msg, c_vec=tuple(None if v is None else v % tau for v in msg.c_vec),
                      m_vec=tuple(None if v is None else v % tau for v in msg.m_vec))
        arrival = max(send_t, self.engine.now) + self._delay(("mes", i), p)
        self.engine.schedule(arrival, self.rank(("mws", p)), K_DELIVER,
                             self._deliver_up, p, send_t, i, msg)

    def schedule_adv(self, t: int, fn: Callable[[], None]) -> None:
        self.engine.schedule(max(t, self.engine.now), self.rp.n1 + self.rp.n0, K_ADV, fn)

    # ---- runs ---------------------------------------------------------------

    def run_until_window(self, w: int) -> None:
        self.engine.run_until(w * self.window)

    def close(self) -> None:
        """End the run: drop the pending events, whose callbacks refer back
        to this world, and unbind the adversary, so that reference counting
        frees the world without waiting for the cycle collector.  Logs,
        tracks and the trace stay readable."""
        self.engine.clear()
        self.adversary.unbind()

    def qap_tracks(self) -> list[ClockTrack]:
        keys = [("mws", p) for p in self.honest_planes] + \
               [("mes", i) for i in self.honest_mes]
        return [self.tracks[k] for k in keys]


# ---- synchronization verdicts ----------------------------------------------


def _window(tr: ClockTrack, t1: int, t2: int) -> tuple[list, list, list]:
    """The jumps of tr inside [t1, t2]: their times, and the offset and
    cumulative shift in force after each, led by the values carried in from
    before t1.  Any sample in [t1, t2] indexes this slice exactly as it
    would the whole history."""
    jt = tr.jump_times
    lo, hi = bisect_left(jt, t1), bisect_right(jt, t2)
    off0, cum0 = (tr.jump_offsets[lo - 1], tr.jump_cum[lo - 1]) if lo else (tr.offset0, 0)
    return jt[lo:hi], [off0, *tr.jump_offsets[lo:hi]], [cum0, *tr.jump_cum[lo:hi]]


@cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays naming each unordered pair of n clocks once; kept, since
    building them costs more than checking a window's pairs."""
    return np.triu_indices(n, 1)


def sync_check(tracks: list[ClockTrack], t1: int, t2: int, rp: Resolved, L: int,
               eps0: Optional[int] = None) -> tuple[bool, int]:
    """Verdict of the two synchronization conditions over [t1, t2] subticks.

    Precision: every pair of clocks stays within eps0 ring distance at every
    sample (grid of period T_H plus both sides of each adjustment).
    Rate accuracy: per clock, elapsed ticks between samples at most T_max
    apart deviate from elapsed time by no more than rho*elapsed + eps0;
    evaluated exactly on integer-scaled samples over T_max-aligned and
    half-shifted spans so every pair within T_max/2 is covered and no pair
    beyond T_max is ever required.  The last aligned span ends at t2, so
    its half-shifted span would lie inside it and is not checked; a window
    exactly T_max long is one span.

    All clocks are checked at once on (side, track, sample) matrices: side 0
    reads just before any jump at a sample, side 1 just after.  V holds the
    ring values, U the hardware ticks plus the signed cumulative shift.  One
    sorted key array holds every track's jumps inside [t1, t2], track k's
    shifted by k*(t2 - t1 + 1) so the tracks never interleave; a sample's
    position among them, plus k, indexes the offsets and shifts of all
    tracks laid end to end, each track's led by the value carried in.  The
    cost depends on the samples and jumps inside [t1, t2], not on the run's
    history: checking window 1000 of a run costs the same as window 1.

    Returns (verdict, max precision deviation seen in ticks).
    """
    if t1 > t2:
        raise ConfigurationError("empty check interval")
    eps0 = rp.eps0 if eps0 is None else eps0
    tau = rp.tau_max
    TH, Tm = rp.sys.T_H, rp.dv.T_max
    THL = TH.numerator * L // TH.denominator
    wins = [_window(tr, t1, t2) for tr in tracks]
    ts = np.arange(-(-t1 // THL) * THL, t2 + 1, THL, dtype=np.int64)
    off_grid = {t for jt, _offs, _cum in wins for t in jt if t % THL}
    if off_grid:
        ts = np.sort(np.concatenate([ts, np.array(list(off_grid), dtype=np.int64)]))
    if ts.size == 0 or not tracks:
        return True, 0

    n, span = len(tracks), t2 - t1 + 1
    clocks = np.array([(tr.clock.t_ref, tr.clock.period, tr.clock.h0) for tr in tracks],
                      dtype=np.int64)
    t_ref, period, h0 = clocks.T[:, :, None]
    ticks = (ts - t_ref) // period
    keys = np.array([t + k * span for k, (jt, _o, _c) in enumerate(wins) for t in jt],
                    dtype=np.int64)
    q = ts + np.arange(0, n * span, span, dtype=np.int64)[:, None]
    idx = np.stack([np.searchsorted(keys, q, side=s) for s in ("left", "right")])
    idx += np.arange(n)[:, None]
    V = (h0 + ticks + np.array([o for _j, offs, _c in wins for o in offs])[idx]) % tau
    U = ticks + np.array([c for _j, _o, cum in wins for c in cum])[idx]

    max_dev = 0
    if n > 1:
        a, b = _pairs(n)
        d = np.abs(V[:, a] - V[:, b])
        max_dev = int(np.minimum(d, tau - d).max())
        if max_dev > eps0:
            return False, max_dev

    # Rate condition, exact integer arithmetic: scale by T_H*L and by the
    # denominator of rho so both sides are integers.  Pre/post readings at
    # each instant interleave, pre first; rebasing each span on its first
    # reading bounds the int64 magnitudes by the span, not the run.
    pr, qr = rp.rho.numerator, rp.rho.denominator
    bound = eps0 * THL * qr
    delta = -(-Tm.numerator * TH.numerator * L // (Tm.denominator * TH.denominator))
    starts = list(range(t1, t2, delta))
    starts += [s + delta // 2 for s in starts[:-1]]
    U = U.transpose(1, 2, 0).reshape(n, -1)
    S = np.repeat(ts, 2)
    for s0 in starts:
        lo, hi = np.searchsorted(ts, s0), np.searchsorted(ts, min(s0 + delta, t2), "right")
        if hi - lo < 2:
            continue
        u = U[:, 2 * lo:2 * hi]
        u = (u - u[:, :1]) * (THL * qr)
        s2 = S[2 * lo:2 * hi] - s0
        e = u - s2 * (qr + pr)
        f = s2 * (qr - pr) - u
        if int((e - np.minimum.accumulate(e, axis=1)).max()) > bound:
            return False, max_dev
        if int((f - np.minimum.accumulate(f, axis=1)).max()) > bound:
            return False, max_dev
    return True, max_dev
