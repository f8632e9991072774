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

An honest terminal's relay is stored at send time, with no delivery event:
by validate's upward rule it reaches its plane's round inside the policed
slot, before collection ends.  So is an honest plane's clock value that
reaches a terminal's round before its receive slot opens and before the
plane's own end_cs (`_MesRound`).  The store is exact: the round stays
current until the arrival (only the plane's next SIG, after its end_cs,
replaces a plane's round or a terminal's round for that plane), and it
reads what it holds only at its slot boundaries, later still.  Every other
message keeps its delivery event at its arrival instant: faulty traffic, a
value that arrives inside a terminal's receive slot, and any message to
drop.

Slot steps run by their round.  A round pushes its own slot steps onto the
engine's heap, with no `schedule` call each, keyed (instant, node rank,
K_SLOT, 3*serial + step): serial counts SIGs as they start, honest and
faulty alike, and step is the step's place in its round, 0 for the relay or
end_mc, 1 for slot-begin or begin_cs, 2 for end_cr or end_cs.  Only slot
steps are of kind K_SLOT, so two at one node and instant run in the order
their rounds began, then in slot order, whenever each was pushed (the one
step pushed after its round begins, slot-begin, is pushed before its
instant: a value is buffered only before its slot opens).  A step that
would do nothing is not pushed.  A terminal round's slot-begin step has
work only when a clock value waits in its buffer, so the first value
buffered pushes it, and a round that buffers none never pushes it.  A
faulty plane's round reads no relay, so no relay step is pushed toward one.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from random import Random
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConfigurationError, SimulationError
from .ftcore import below
from .params import Resolved
from .protocol import (MesState, MwsState, TTMessageUp, mes_on_begin_vc_send, mes_on_clock_msg,
                       mes_on_end_c_recv, mws_on_end_c_send, mws_on_end_mc_recv, mws_on_sig,
                       mws_rearm, mws_watchdog_ticks, next_sig_tick)
from .ring import wrap_sub

__all__ = ["Engine", "HardwareClock", "ClockTrack", "World", "Trace", "sync_check",
           "derive_seed", "DRIFT_DENOM", "QUANT", "INIT_POLICIES", "TRACE_LEVELS", "FULL_ONLY",
           "recorded_level"]

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

DRIFT_DENOM = 1_000_000   # the rate grid's base (World.drift_steps)
QUANT = 16                # skew/delay/phase quantization steps


def _lengths(rp: Resolved, L: int) -> tuple[int, int]:
    """T_H and the observation window T_max in subticks at scale L; the
    window is rounded up."""
    TH, Tm = rp.sys.T_H, rp.dv.T_max
    THL = TH.numerator * L // TH.denominator
    return THL, -(-Tm.numerator * THL // Tm.denominator)


def derive_seed(master: int, tag: str) -> int:
    """Platform-stable child seed for an independent random stream."""
    import hashlib

    digest = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Min-heap event loop over integer subtick timestamps.

    An event is a heap entry (t, node rank, kind rank, key, fn, args); it
    runs as fn(*args).  Events at one instant run by node rank, then kind
    rank, then key.  `schedule` keys an event by insertion order, which
    decides the ties left: deliveries, and adversary events, at one
    (instant, rank, kind); `_seq` counts the entries it has pushed.  Slot
    steps go straight onto `_heap`, keyed by their round (module docstring).
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
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= t_stop:
            t, _rank, _kind, _key, fn, args = pop(heap)
            self.now = t
            fn(*args)
        if self.now < t_stop:
            self.now = t_stop


@dataclass(slots=True)
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
        return (self.h0 + (t - self.t_ref) // self.period) % self.tau

    def time_of_tick(self, k: int) -> int:
        return self.t_ref + k * self.period

    def first_tick(self, t: int) -> int:
        """Index of the first tick at or after t."""
        return -((self.t_ref - t) // self.period)


@dataclass(slots=True)
class ClockTrack:
    """Sampling view of one node's adjusted clock: the hardware staircase
    plus the step function of applied offsets.  The offset after a jump is
    (offset0 + cum) mod tau, where cum is the signed sum of the jumps so
    far, each taken the shorter way round the ring."""

    clock: HardwareClock
    offset0: int
    jump_times: list[int] = field(default_factory=list)
    jump_cum: list[int] = field(default_factory=list)

    def record(self, t: int, new: int) -> None:
        """A jump at instant t from the offset in force to `new`.  A jump that
        leaves the offset unchanged is kept: its instant is a sample of
        sync_check, and off the grid two clocks can read further apart than
        at any grid sample.  A second jump at the same instant adds its
        shift to the first's, so the jump instants stay distinct: a reading
        at an instant is taken before all of its jumps or after all."""
        tau, cum = self.clock.tau, self.jump_cum
        prev = cum[-1] if cum else 0
        delta = (new - self.offset0 - prev) % tau
        if delta > tau // 2:
            delta -= tau
        if self.jump_times and self.jump_times[-1] == t:
            cum[-1] = prev + delta
        else:
            self.jump_times.append(t)
            cum.append(prev + delta)

    def forget_before(self, t: int) -> None:
        """Drop the jumps before instant t, folding their shift into offset0.
        Every reading at t or later, on either side of a jump, is unchanged:
        a reading is (h0 + offset0 + ticks + cum) mod tau, and the kept
        jumps' cum values fall by the shift offset0 gains, so each sum keeps
        its residue and two readings keep their difference."""
        k = bisect_left(self.jump_times, t)
        if k:
            shift = self.jump_cum[k - 1]
            self.offset0 = (self.offset0 + shift) % self.clock.tau
            del self.jump_times[:k]
            self.jump_cum = [c - shift for c in self.jump_cum[k:]]


# A full trace is the core trace, in its order, with records of these kinds added.
FULL_ONLY = frozenset({"send_up", "send_down", "recv_down", "drop_up", "drop_down"})


def recorded_level(lines: Iterable[str]) -> str:
    """The level an exported trace was recorded at, from its lines (a list,
    or an open file, read up to the first record of a FULL_ONLY kind):
    "full" if it holds such a record, "core" otherwise."""
    if isinstance(lines, str):      # iterating it would read one character at a time
        raise TypeError("recorded_level takes a trace's lines or an open file, not a str")
    marks = [f'"ev":"{ev}"' for ev in FULL_ONLY]
    return "full" if any(m in line for line in lines for m in marks) else "core"


class Trace:
    """Chronological event record: `records` holds each record's exported
    line, and `to_jsonl` joins them (harness.run_once writes and empties
    them a check block at a time).  Each record kind has a recorder of its
    name, whose keyword parameters are the kind's keys but "ev": a missing
    or extra field fails at the call.  A node is written ["tag",index], a
    SIG's clock value is null for a faulty plane's, and a stability verdict
    is true or false.

    Each recorder's f-string writes the bytes json.dumps(r, sort_keys=True,
    separators=(",", ":")) writes for the record r: it lists the keys in
    sorted order; an f-string writes a Python int as its JSON; every
    integer field is an exact int, since the World computes in ints and
    its adversary hooks take each instant and clock value through
    operator.index, which returns one; a verdict is spelled out, as an
    f-string would write a bool True; and the fixed strings (`branch`,
    `why`, the `node` tags) need no escaping.
    """

    def __init__(self) -> None:
        self.records: list[str] = []

    def add(self, line: str) -> None:
        self.records.append(line)

    def to_jsonl(self) -> str:
        return "".join(self.records)

    def adjust(self, *, new: int, node: tuple[str, int], old: int, t: int) -> None:
        self.add(f'{{"ev":"adjust","new":{new},"node":["{node[0]}",{node[1]}],"old":{old},'
                 f'"t":{t}}}\n')

    def sig(self, *, c: Optional[int], plane: int, t: int) -> None:
        self.add(f'{{"c":{"null" if c is None else c},"ev":"sig","plane":{plane},"t":{t}}}\n')

    def watchdog(self, *, plane: int, t: int) -> None:
        self.add(f'{{"ev":"watchdog","plane":{plane},"t":{t}}}\n')

    def round(self, *, b: int, branch: str, c_new: int, gl: int, plane: int, stb: bool,
              t: int) -> None:
        self.add(f'{{"b":{b},"branch":"{branch}","c_new":{c_new},"ev":"round","gl":{gl},'
                 f'"plane":{plane},"stb":{"true" if stb else "false"},"t":{t}}}\n')

    def send_up(self, *, arrival: int, mes: int, plane: int, t: int) -> None:
        self.add(f'{{"arrival":{arrival},"ev":"send_up","mes":{mes},"plane":{plane},'
                 f'"t":{t}}}\n')

    def send_down(self, *, arrival: int, m: int, plane: int, t: int, to: int) -> None:
        self.add(f'{{"arrival":{arrival},"ev":"send_down","m":{m},"plane":{plane},"t":{t},'
                 f'"to":{to}}}\n')

    def recv_down(self, *, m: int, mes: int, plane: int, t: int) -> None:
        self.add(f'{{"ev":"recv_down","m":{m},"mes":{mes},"plane":{plane},"t":{t}}}\n')

    def drop_up(self, *, mes: int, plane: int, t: int, why: str) -> None:
        self.add(f'{{"ev":"drop_up","mes":{mes},"plane":{plane},"t":{t},"why":"{why}"}}\n')

    def drop_down(self, *, mes: int, plane: int, t: int, why: str) -> None:
        self.add(f'{{"ev":"drop_down","mes":{mes},"plane":{plane},"t":{t},"why":"{why}"}}\n')


def _integer(hook: str, name: str, value) -> int:
    """An adversary hook's count, instant or clock value as a Python int.
    The hooks test for a plain int inline and pass any other value here."""
    try:
        return operator.index(value)
    except TypeError:
        raise SimulationError(f"{hook}: {name} must be an integer, not {value!r}") from None


def _count(hook: str, name: str, value, lo: int, hi: int = QUANT) -> int:
    """An adversary hook's count clamped to [lo, hi]: a rate in drift steps,
    a skew or a delay in quanta.  The per-message paths test for a plain int
    in range inline and pass any other count here."""
    return min(max(_integer(hook, name, value), lo), hi)


class _PlaneRound:
    """A plane's round from its SIG at `anchor`: the first relay from each
    terminal until its collection ends at e_recv, and the value it then
    chose (None until then).  Every event of the round carries it."""

    def __init__(self, anchor: int, e_recv: int) -> None:
        self.anchor = anchor
        self.e_recv = e_recv
        self.relays: dict[int, TTMessageUp] = {}
        self.c_new: Optional[int] = None


class _MesRound:
    """A terminal's round for one plane: its anchor, its receive slot
    [b_recv, e_recv), and the clock values that arrive before that slot
    opens, ingested when it does.  A clock value arriving at instant t is
    dropped unless anchor <= t < e_recv, buffered if t < b_recv, and
    ingested on arrival otherwise; the slot handlers at e_recv run before
    any delivery at that instant, so an arrival at e_recv is already too
    late.  Every event of the round carries it, and its receive-slot
    handlers return once another round has taken its place (when that
    happens: the module docstring), which by validate's upward rule comes
    after its relay step."""

    def __init__(self, anchor: int, b_recv: int, e_recv: int, seq_cr: int) -> None:
        self.anchor = anchor
        self.b_recv = b_recv
        self.e_recv = e_recv
        self.seq_cr = seq_cr    # its slot-begin step's key
        self.buffer: list[int] = []


class World:
    """One simulated system: nodes, clocks, round machinery, adversary.
    Plane p has rank p and terminal i rank n1 + i, the engine's tie-break;
    `clocks` and `tracks` (None for a faulty node) are indexed by rank, and
    `mes_round[i][p]` is honest terminal i's round for plane p."""

    def __init__(self, rp: Resolved, adversary, seed: int, init_policy: str = "random",
                 trace_level: str = "core") -> None:
        self.rp = rp
        self.seed = seed
        self.engine = Engine()
        self._heap = self.engine._heap      # for the slot steps' own pushes
        self._sigs = 0                      # SIGs started: the slot steps' serial
        if trace_level not in TRACE_LEVELS:
            raise ConfigurationError(f"unknown trace level {trace_level!r}")
        self.trace = Trace()
        # A record is built only at a level that keeps it.
        self._trace_core = trace_level != "off"
        self._trace_full = trace_level == "full"
        self.adversary = adversary

        n0, n1 = rp.n0, rp.n1
        self._n1 = n1
        self.honest_planes, self.faulty_planes = range(n1 - rp.f1), range(n1 - rp.f1, n1)
        self.honest_mes, self.faulty_mes = range(n0 - rp.f0), range(n0 - rp.f0, n0)

        self.init_rng = Random(derive_seed(seed, "init"))
        self.adv_rng = Random(derive_seed(seed, "adversary"))
        self.coin_rng = {p: Random(derive_seed(seed, f"coin:{p}")) for p in self.honest_planes}

        # Adversary-chosen rates (see drift_steps) and tick phases, then the
        # subtick scale, all in integers (see _clock_grid).
        grid = math.lcm(DRIFT_DENOM, rp.rho.denominator)
        self._drift_steps = bound = rp.rho.numerator * (grid // rp.rho.denominator)
        adversary.bind(self)
        try:
            # Bound once: these hold whatever the adversary's hooks are after
            # bind, overridden or wrapped, and every skew and delay calls them.
            self._choose_skew = adversary.choose_skew
            self._choose_delay = adversary.choose_delay
            steps, phases = [], []
            for rank in range(n1 + n0):
                steps.append(grid + _count("choose_period", "rate", adversary.choose_period(rank),
                                           -bound, bound))
                phases.append(_integer("choose_phase", "phase", adversary.choose_phase(rank))
                              % QUANT)
            tau = rp.tau_max
            self.clocks = [HardwareClock(t_ref=t_ref, period=period,
                                         h0=below(self.init_rng, tau), tau=tau)
                           for t_ref, period in self._clock_grid(grid, steps, phases)]
            self.tracks: list[Optional[ClockTrack]] = [None] * (n1 + n0)
            # Each slot step's offset from a round anchor, in subticks: a
            # clock's period is fixed for the run.  A plane's: end_mc,
            # begin_cs, end_cs.  A terminal's (None when faulty): its rank,
            # then begin_vc, b_recv, e_recv.
            sc = rp.sched
            self._plane_slots = [(sc.mc_recv[1] * clk.period, sc.c_send[0] * clk.period,
                                  sc.c_send[1] * clk.period) for clk in self.clocks[:n1]]
            self._mes_slots = [None if i in self.faulty_mes else
                               (n1 + i, sc.vc_send[0] * clk.period, sc.c_recv[0] * clk.period,
                                sc.c_recv[1] * clk.period)
                               for i, clk in enumerate(self.clocks[n1:])]

            self.mws: dict[int, MwsState] = {}
            self.mes: dict[int, MesState] = {}
            self.plane_round: list[Optional[_PlaneRound]] = [None] * n1
            self.mes_round = [None if i in self.faulty_mes else
                              [_MesRound(-1, -1, -1, -1) for _p in range(n1)] for i in range(n0)]

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

    @property
    def drift_steps(self) -> int:
        """The drift bound rho in rate steps.  choose_period returns a count
        k of steps, clamped to [-drift_steps, drift_steps]; the period is
        T_H * (grid + k) / grid, and grid = lcm(DRIFT_DENOM, rho's
        denominator) makes both ends of the bound whole steps."""
        return self._drift_steps

    # ---- construction helpers -------------------------------------------

    def _clock_grid(self, grid: int, steps: list[int],
                    phases: list[int]) -> list[tuple[int, int]]:
        """Set L and every subtick constant from each rank's period, T_H *
        steps / grid, and its tick phase, in QUANT-ths of a period; return
        each rank's clock (t_ref, period) in subticks.

        Each clock quantity is a whole number of u = T_H / (grid * QUANT):
        T_H is grid * QUANT of them, T_H / QUANT grid of them, a period
        steps * QUANT and its phase offset steps * phase.  With u = un/ud in
        lowest terms, the least L that makes all of them whole is ud over the
        gcd of ud and the counts; L is its lcm with the denominators of
        d_max/QUANT and eps_rnd/QUANT, the least common denominator of every
        rational that can enter a timestamp.
        """
        rp = self.rp
        T_H, rho, d_max, eps = rp.sys.T_H, rp.rho, rp.sys.d_max, rp.dv.eps_rnd
        g = math.gcd(T_H.numerator, T_H.denominator * grid * QUANT)
        un, ud = T_H.numerator // g, T_H.denominator * grid * QUANT // g
        counts = [grid] + [s * QUANT for s in steps] + [s * j for s, j in zip(steps, phases)]
        dens = [ud // math.gcd(ud, *counts),
                d_max.denominator * QUANT // math.gcd(d_max.numerator, QUANT)]
        if eps > 0:
            dens.append(eps.denominator * QUANT // math.gcd(eps.numerator, QUANT))
        L = self.L = math.lcm(*dens)

        uL = un * L          # u * L = uL / ud subticks, and every count * uL / ud is whole
        self.THL, self.window = _lengths(rp, L)
        self.skew_quantum = eps.numerator * L // (eps.denominator * QUANT) if eps > 0 else 0
        self.delay_quantum = d_max.numerator * L // (d_max.denominator * QUANT)
        # Policed image of the upward slot, in subticks from a round anchor:
        # the slot stretched by the drift bound and the round-start skew,
        # (vc_send[0] (1 - rho) T_H - eps_rnd) L rounded down and
        # (vc_send[1] (1 + rho) T_H + eps_rnd) L rounded up.
        vc, rn, rd = rp.sched.vc_send, rho.numerator, rho.denominator
        den, eps_L = rd * eps.denominator, eps.numerator * L * rd
        self._police_lo = (vc[0] * (rd - rn) * self.THL * eps.denominator - eps_L) // den
        self._police_hi = -(-(vc[1] * (rd + rn) * self.THL * eps.denominator + eps_L) // den)
        return [(-(uL * s * j // ud), uL * s * QUANT // ud) for s, j in zip(steps, phases)]

    def _init_states(self, policy: str) -> None:
        rp, tau, rng, n1 = self.rp, self.rp.tau_max, self.init_rng, self._n1
        if policy == "synchronized":
            # Start on a SIG boundary with records that look exactly like the
            # aftermath of a completed previous round: the last distributed
            # value was one cycle behind the upcoming one, received at the
            # usual point of the slot schedule.
            T = rp.T       # validate keeps tau_max >= 4T and c_send within [0, T0]
            c_init = T * below(rng, tau // T)
            # A plane's first SIG may anchor one or more cycles past c_init
            # depending on its tick phase; records must sit exactly one cycle
            # behind that anchor, at its send slot's end, or the first
            # accuracy check fails.
            m_rec = [(c_init + next_sig_tick(c_init, self.clocks[q].first_tick(0), tau, T) - T
                      + rp.sched.c_send[1]) % tau for q in range(n1)]
            for p in self.honest_planes:
                off = wrap_sub(c_init, self.clocks[p].h0, tau)
                self.mws[p] = MwsState(tau_max=tau, clock_offset=off, c_tilde_old=off)
            for i in self.honest_mes:
                h0 = self.clocks[n1 + i].h0
                st = self.mes[i] = MesState(n1=n1, clock_offset=wrap_sub(c_init, h0, tau))
                st.m_rec = m_rec[:]
                st.h_rec = [(h0 + m - c_init) % tau for m in m_rec]
                st.acc = [rp.a0] * n1
        elif policy == "random":
            for p in self.honest_planes:
                tau_idl = tau if rng.random() < 0.5 else below(rng, tau)
                clock_offset = below(rng, tau)
                grand_life = below(rng, rp.dv.g0 + 1)
                below(rng, 2)  # unread draw (a last coin); it keeps each seed's bytes
                self.mws[p] = MwsState(tau_max=tau, clock_offset=clock_offset,
                                       grand_life=grand_life, tau_idl=tau_idl,
                                       c_tilde_old=below(rng, tau))
            for i in self.honest_mes:
                st = MesState(n1=n1, clock_offset=below(rng, tau))
                for q in range(n1):
                    if rng.random() < 0.5:
                        st.m_rec[q] = below(rng, tau)
                        st.h_rec[q] = below(rng, tau)
                        st.acc[q] = below(rng, rp.a0 + 1)
                        # Unread draws (an older record); they keep each seed's bytes.
                        if rng.random() < 0.5:
                            below(rng, tau)
                            below(rng, tau)
                self.mes[i] = st
        else:
            raise ConfigurationError(f"unknown initial-state policy {policy!r}")

        for p in self.honest_planes:
            self.tracks[p] = ClockTrack(self.clocks[p], self.mws[p].clock_offset)
        for i in self.honest_mes:
            self.tracks[n1 + i] = ClockTrack(self.clocks[n1 + i], self.mes[i].clock_offset)

    def _arm_initial(self, p: int) -> None:
        k0 = self.clocks[p].first_tick(0)
        if self.mws[p].idle:
            self._schedule_sig(p, k0)
        else:
            # Mid-round start: the watchdog rescues the plane once its
            # hardware clock walks past tau_idl.  No SIG needs one: validate
            # keeps c_send[1] <= T0, so end_cs, which rearms, comes first.
            self._schedule_watchdog_fire(p, k0)

    # ---- small utilities --------------------------------------------------

    def read_clock(self, p: int, t: int) -> int:
        """Switch p's clock value at instant t."""
        clk = self.clocks[p]
        return (clk.h_at(t) + self.mws[p].clock_offset) % clk.tau

    # ---- plane (MWS) round machinery --------------------------------------

    def _schedule_sig(self, p: int, k_min: int) -> None:
        st = self.mws[p]
        clk = self.clocks[p]
        base = (clk.h0 + st.clock_offset) % clk.tau
        k = next_sig_tick(base, k_min, clk.tau, self.rp.T)
        t = clk.t_ref + k * clk.period                  # clk.time_of_tick(k), inlined
        self.engine.schedule(t, p, K_SIG, self._on_sig, p)

    def _schedule_watchdog_fire(self, p: int, k: int) -> None:
        """Watchdog of plane p, busy from the start, counted from its
        hardware tick k."""
        clk = self.clocks[p]
        k_fire = k + mws_watchdog_ticks(self.mws[p], (clk.h0 + k) % clk.tau, self.rp)
        self.engine.schedule(clk.time_of_tick(k_fire), p, K_WATCHDOG,
                             self._on_watchdog_fire, p)

    def _on_sig(self, p: int) -> None:
        # Scheduled only for an idle plane, and nothing else makes it busy.
        st = self.mws[p]
        t = self.engine.now
        clk = self.clocks[p]
        h = (clk.h0 + (t - clk.t_ref) // clk.period) % clk.tau     # clk.h_at(t), inlined
        mws_on_sig(st, h, self.rp)
        if self._trace_core:
            self.trace.sig(t=t, plane=p, c=(h + st.clock_offset) % clk.tau)

        # The slot steps, pushed directly (module docstring).  A SIG falls on
        # a tick, so each slot boundary lies whole periods after it; validate
        # keeps every slot bound >= 0, so none lies in the past.
        end_mc, begin_cs, end_cs = self._plane_slots[p]
        rnd = _PlaneRound(t, t + end_mc)
        self.plane_round[p] = rnd
        t_end_cs = t + end_cs
        key, heap = 3 * self._sigs, self._heap     # the serial _start_member_rounds takes
        heapq.heappush(heap, (rnd.e_recv, p, K_SLOT, key, self._on_end_mc, (p, rnd)))
        heapq.heappush(heap, (t + begin_cs, p, K_SLOT, key + 1,
                              self._on_begin_cs, (p, rnd, t_end_cs)))
        heapq.heappush(heap, (t_end_cs, p, K_SLOT, key + 2, self._on_end_cs, (p, rnd)))

        self._start_member_rounds(p, t)
        self.adversary.on_sig(p, t)

    def _start_member_rounds(self, p: int, t_sig: int) -> None:
        """Give every terminal an anchor for plane p's new round, skewed by
        the adversary's count of quanta clamped to [0, QUANT]; with no skew
        allowed, the adversary is not asked.  The SIG takes the next serial;
        each honest terminal's round pushes its relay step, toward an honest
        plane only, and its last step under it (module docstring); t_sig is
        not in the past, so neither is any step."""
        quantum, heap, push = self.skew_quantum, self._heap, heapq.heappush
        choose_skew, mes_round, end_cr = self._choose_skew, self.mes_round, self._on_end_cr
        begin_vc = self._on_begin_vc if p not in self.faulty_planes else None
        key = 3 * self._sigs
        self._sigs += 1
        for i, slots in enumerate(self._mes_slots):
            anchor = t_sig
            if quantum:
                k = choose_skew(i, p)
                if type(k) is not int or not 0 <= k <= QUANT:
                    k = _count("choose_skew", "skew", k, 0)
                anchor += k * quantum
            if slots is None:
                self.adversary.faulty_mes_round(i, p, anchor)
                continue
            rank, vc, cr0, cr1 = slots
            rnd = _MesRound(anchor, anchor + cr0, anchor + cr1, key + 1)
            mes_round[i][p] = rnd
            if begin_vc is not None:
                push(heap, (anchor + vc, rank, K_SLOT, key, begin_vc, (i, p, rnd)))
            push(heap, (rnd.e_recv, rank, K_SLOT, key + 2, end_cr, (i, p, rnd)))

    def _on_watchdog_fire(self, p: int) -> None:
        # Nothing else is scheduled for a plane that starts busy, so it is
        # still busy, before its first round, when this fires.
        mws_rearm(self.mws[p])
        now = self.engine.now
        if self._trace_core:
            self.trace.watchdog(t=now, plane=p)
        self._schedule_sig(p, self.clocks[p].ticks_at(now))

    def _on_end_mc(self, p: int, rnd: _PlaneRound) -> None:
        st = self.mws[p]
        t = self.engine.now
        clk = self.clocks[p]
        h = (clk.h0 + (t - clk.t_ref) // clk.period) % clk.tau     # clk.h_at(t), inlined
        summary = mws_on_end_mc_recv(st, rnd.relays, h, self.coin_rng[p], self.rp)
        rnd.c_new = summary.c_new
        self.toss_log.append((t, p, summary.b_coin, st.grand_life))
        if self._trace_core:
            self.trace.round(t=t, plane=p, b=summary.b_coin, gl=st.grand_life,
                             stb=summary.stb, branch=summary.branch, c_new=summary.c_new)

    def _on_begin_cs(self, p: int, rnd: _PlaneRound, t_end_cs: int) -> None:
        # end_mc has chosen c_new (validate orders the slots).  A value that
        # reaches a terminal's round before its receive slot opens and
        # before t_end_cs is buffered now (the store: module docstring);
        # every other value takes a delivery event.  None arrives before its
        # round's anchor: the round is the one this plane's SIG started, its
        # anchor at most eps_rnd after that SIG, and validate's upward rule
        # and slot order give eps_rnd < mc_recv[1] T_H (1 - rho) <= c_send[0]
        # T_H (1 - rho), which is at most the time from that SIG to now.
        m = rnd.c_new
        t = self.engine.now
        choose_delay, quantum, n1 = self._choose_delay, self.delay_quantum, self._n1
        for i in self.honest_mes:
            k = choose_delay(p, p)
            if type(k) is not int or not 1 <= k <= QUANT:
                k = _count("choose_delay", "delay", k, 1)
            arrival = t + k * quantum
            if self._trace_full:
                self.trace.send_down(t=t, plane=p, to=i, m=m, arrival=arrival)
            dest = self.mes_round[i][p]
            if arrival < dest.b_recv and arrival < t_end_cs:
                if not dest.buffer:     # the first value pushes the slot-begin step
                    heapq.heappush(self._heap, (dest.b_recv, n1 + i, K_SLOT, dest.seq_cr,
                                                self._on_begin_cr, (i, p, dest)))
                dest.buffer.append(m)
            else:
                self.engine.schedule(arrival, n1 + i, K_DELIVER, self._deliver_down, p, i, m)

    def _on_end_cs(self, p: int, rnd: _PlaneRound) -> None:
        st, now, clk = self.mws[p], self.engine.now, self.clocks[p]
        old = st.clock_offset
        k = (now - clk.t_ref) // clk.period                         # clk.ticks_at(now), inlined
        mws_on_end_c_send(st, rnd.c_new, (clk.h0 + k) % clk.tau, self.rp)
        self.tracks[p].record(now, st.clock_offset)
        if self._trace_core:
            self.trace.adjust(t=now, old=old, new=st.clock_offset, node=("mws", p))
        self._schedule_sig(p, k)

    # ---- terminal (MES) round machinery ------------------------------------

    def _on_begin_vc(self, i: int, p: int, _rnd: _MesRound) -> None:
        """Honest terminal i relays to honest plane p, whose round is current
        and keeps the relay (module docstring): it is stored now.  The delay
        is drawn all the same, for the trace and the adversary's stream."""
        t = self.engine.now
        clk = self.clocks[self._n1 + i]
        h = (clk.h0 + (t - clk.t_ref) // clk.period) % clk.tau     # clk.h_at(t), inlined
        msg = mes_on_begin_vc_send(self.mes[i], h, self.rp)
        k = self._choose_delay(self._n1 + i, p)
        if type(k) is not int or not 1 <= k <= QUANT:
            k = _count("choose_delay", "delay", k, 1)
        if self._trace_full:
            self.trace.send_up(t=t, mes=i, plane=p, arrival=t + k * self.delay_quantum)
        self.plane_round[p].relays[i] = msg

    def _deliver_up(self, p: int, send_t: int, i: int, msg: TTMessageUp) -> None:
        """A faulty terminal's upload, at its arrival instant.  TT isolation
        at the plane: the round keeps it if it was sent (send_t, the instant
        the World stamped) within the policed image of the round's upward
        slot and arrives before e_recv, where collection ends (slot handlers
        run before deliveries); one that comes before the slot opens is kept."""
        rnd = self.plane_round[p]
        if rnd is None:
            why = "no round"
        elif not (rnd.anchor + self._police_lo <= send_t <= rnd.anchor + self._police_hi):
            why = "outside policed slot"
        elif self.engine.now >= rnd.e_recv:
            why = "late"
        else:
            rnd.relays.setdefault(i, msg)
            return
        if self._trace_full:
            self.trace.drop_up(t=self.engine.now, plane=p, mes=i, why=why)

    def _deliver_down(self, p: int, i: int, m: int) -> None:
        """A clock value not stored at send time (module docstring), at its
        arrival instant: dropped, buffered or ingested by its round's rule
        (_MesRound)."""
        rnd = self.mes_round[i][p]
        now = self.engine.now
        if not rnd.anchor <= now < rnd.e_recv:
            if self._trace_full:
                self.trace.drop_down(t=now, plane=p, mes=i, why="no round")
        elif now < rnd.b_recv:
            if not rnd.buffer:          # the first value pushes the slot-begin step
                heapq.heappush(self._heap, (rnd.b_recv, self._n1 + i, K_SLOT, rnd.seq_cr,
                                            self._on_begin_cr, (i, p, rnd)))
            rnd.buffer.append(m)
        else:
            clk = self.clocks[self._n1 + i]
            h = (clk.h0 + (now - clk.t_ref) // clk.period) % clk.tau     # clk.h_at(now), inlined
            mes_on_clock_msg(self.mes[i], p, m, h, self.rp)
            if self._trace_full:
                self.trace.recv_down(t=now, mes=i, plane=p, m=m)

    def _on_begin_cr(self, i: int, p: int, rnd: _MesRound) -> None:
        """Terminal i takes the clock values its round buffered, in order, at
        the hardware reading of b_recv.  Pushed by the first value buffered;
        nothing is buffered from b_recv on."""
        if self.mes_round[i][p] is not rnd:
            return
        now, st, rp = self.engine.now, self.mes[i], self.rp
        clk = self.clocks[self._n1 + i]
        h = (clk.h0 + (now - clk.t_ref) // clk.period) % clk.tau     # clk.h_at(now), inlined
        for m in rnd.buffer:
            mes_on_clock_msg(st, p, m, h, rp)
            if self._trace_full:
                self.trace.recv_down(t=now, mes=i, plane=p, m=m)

    def _on_end_cr(self, i: int, p: int, rnd: _MesRound) -> None:
        if self.mes_round[i][p] is not rnd:
            return
        st, now, clk = self.mes[i], self.engine.now, self.clocks[self._n1 + i]
        old = st.clock_offset
        h = (clk.h0 + (now - clk.t_ref) // clk.period) % clk.tau     # clk.h_at(now), inlined
        mes_on_end_c_recv(st, h, self.rp)
        self.tracks[self._n1 + i].record(now, st.clock_offset)
        if self._trace_core:
            self.trace.adjust(t=now, old=old, new=st.clock_offset, node=("mes", i))

    # ---- adversary-facing hooks for faulty components ----------------------

    def faulty_sig(self, p: int) -> None:
        """A faulty plane starts a round now: terminals get anchors as usual,
        but the plane side is entirely adversary-driven."""
        if type(p) is not int:
            p = _integer("faulty_sig", "p", p)
        if p not in self.faulty_planes:
            raise SimulationError("faulty_sig on a nonfaulty plane")
        now = self.engine.now
        if self._trace_core:
            self.trace.sig(t=now, plane=p, c=None)
        self._start_member_rounds(p, now)

    def adv_deliver_down(self, p: int, i: int, m: int, arrival: int) -> None:
        if type(p) is not int:
            p = _integer("adv_deliver_down", "p", p)
        if p not in self.faulty_planes:
            raise SimulationError("adversarial delivery from a nonfaulty plane")
        if type(m) is not int:
            m = _integer("adv_deliver_down", "m", m)
        if type(arrival) is not int:
            arrival = _integer("adv_deliver_down", "arrival", arrival)
        if type(i) is not int:
            i = _integer("adv_deliver_down", "i", i)
        if i not in range(self.rp.n0):
            raise SimulationError(f"adv_deliver_down: no terminal {i} among n0 = {self.rp.n0}")
        if i in self.faulty_mes:
            return
        self.engine.schedule(max(arrival, self.engine.now), self._n1 + i, K_DELIVER,
                             self._deliver_down, p, i, m % self.rp.tau_max)

    def adv_send_up(self, i: int, p: int, msg: TTMessageUp) -> None:
        """A faulty terminal's upload, sent now, the instant _deliver_up
        polices, in wire form: each vector has n1 entries, each an integer
        or None, and every clock value is reduced onto the ring."""
        if type(i) is not int:
            i = _integer("adv_send_up", "i", i)
        if i not in self.faulty_mes:
            raise SimulationError("adversarial upward send from a nonfaulty terminal")
        n1, tau = self.rp.n1, self.rp.tau_max
        if type(p) is not int:
            p = _integer("adv_send_up", "p", p)
        if p not in range(n1):
            raise SimulationError(f"adv_send_up: no plane {p} among n1 = {n1}")
        vecs = []
        for name in ("c_vec", "a_vec", "m_vec"):
            vec = getattr(msg, name)
            if len(vec) != n1:
                raise SimulationError(f"terminal {i} sent plane {p} a {name} of {len(vec)} "
                                      f"entries, not n1 = {n1}")
            vecs.append([v if v is None or type(v) is int else _integer("adv_send_up", name, v)
                         for v in vec])
        if p in self.faulty_planes:
            return
        c_vec, a_vec, m_vec = vecs
        msg = TTMessageUp(tuple([None if v is None else v % tau for v in c_vec]), tuple(a_vec),
                          tuple([None if v is None else v % tau for v in m_vec]))
        k = self._choose_delay(n1 + i, p)
        if type(k) is not int or not 1 <= k <= QUANT:
            k = _count("choose_delay", "delay", k, 1)
        now = self.engine.now
        self.engine.schedule(now + k * self.delay_quantum, p, K_DELIVER, self._deliver_up,
                             p, now, i, msg)

    def schedule_adv(self, t: int, fn: Callable[[], None]) -> None:
        if type(t) is not int:
            t = _integer("schedule_adv", "t", t)
        self.engine.schedule(max(t, self.engine.now), self._n1 + self.rp.n0, K_ADV, fn)

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
        """The honest nodes' tracks, in rank order: planes, then terminals."""
        return [tr for tr in self.tracks if tr is not None]


# ---- synchronization verdicts ----------------------------------------------


@cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays naming each unordered pair of n clocks once; kept, since
    building them costs more than checking a window's pairs."""
    return np.triu_indices(n, 1)


def _decisive_samples(tracks: list[ClockTrack], jumps: Iterable[int], t1: int, t2: int,
                      THL: int, ends: list[int]) -> list[int]:
    """The instants in [t1, t2] that can decide sync_check (see there), sorted;
    `jumps` holds the jumps inside [t1, t2], and `ends` the block's other
    window edges and rate span ends, each once."""
    keep = set(jumps)
    marks = [t1, t2, *ends, *keep]
    keep.update([t // THL * THL for t in marks])
    keep.update([-(-t // THL) * THL for t in marks])
    m_lo, m_hi = -(-t1 // THL), t2 // THL        # grid indices inside [t1, t2]
    for tr in tracks:
        t_ref, period = tr.clock.t_ref, tr.clock.period
        gap = THL - period
        # At grid index m a clock's ticks minus m are floor((m gap - t_ref) /
        # period), at least u exactly when m gap >= t_ref + u period.  They
        # are monotone in m, so the index b at which they first reach (a
        # faster clock) or first fall below (a slower one) each value u
        # between their ends solves that inequality: a slip lies between
        # b - 1 and b.
        g_lo, g_hi = (m_lo * gap - t_ref) // period, (m_hi * gap - t_ref) // period
        if gap > 0:
            slips = {-(-(t_ref + u * period) // gap) for u in range(g_lo + 1, g_hi + 1)}
        else:
            slips = {(t_ref + u * period) // gap + 1 for u in range(g_hi + 1, g_lo + 1)}
        keep.update(t for b in slips for t in ((b - 1) * THL, b * THL))
    out = sorted(keep)
    return out[bisect_left(out, t1):bisect_right(out, t2)]


def _readings(tracks: list[ClockTrack], ts: np.ndarray, base: list[int], jumps: list[int],
              steps: list[int], counts: list[int]) -> np.ndarray:
    """Each clock's readings at the samples ts, less a multiple of tau: an
    (n, 2S) array holding the two sides of each sample side by side, side 0
    first.  Track k's readings add base[k] to its ticks and to the shift of
    its jumps inside the block, which `jumps` holds track after track,
    `counts` how many each track has, and `steps` the change each makes."""
    n, S = len(tracks), len(ts)
    clk = np.array([(tr.clock.t_ref - b * tr.clock.period, tr.clock.period)
                    for tr, b in zip(tracks, base)], dtype=np.int64)
    R = np.empty((n, S, 2), dtype=np.int64)
    np.floor_divide(ts - clk[:, :1], clk[:, 1:], out=R[:, :, 1])
    D = np.zeros((n, S), dtype=np.int64)
    at = np.searchsorted(ts, jumps)
    at += np.repeat(np.arange(0, n * S, S), counts)
    D.reshape(-1)[at] = steps       # no position twice: see sync_check
    np.cumsum(D, axis=1, out=R[:, :, 0])
    R[:, :, 1] += R[:, :, 0]
    np.subtract(R[:, :, 1], D, out=R[:, :, 0])
    return R.reshape(n, 2 * S)


def _ring_spread(R: np.ndarray, tau: int) -> list[int]:
    """The largest ring distance between two clocks at each column of R."""
    O = R - (R[0] - (tau - 1) // 2)
    O %= tau                        # offsets from the first clock, plus (tau-1)//2
    spread = O.max(axis=0)
    spread -= O.min(axis=0)         # row 0 is the first clock itself: 0 is included
    if spread.max() > tau // 2:
        wide = np.flatnonzero(spread > tau // 2)
        a, b = _pairs(len(R))
        W = O[:, wide]
        d = np.abs(W[a] - W[b])
        spread[wide] = np.minimum(d, tau - d).max(axis=0)
    return spread.tolist()


RATE_SPANS = 8      # rate spans evaluated together, which bounds their padded arrays


def _rate_rises(R: np.ndarray, ts: np.ndarray, cols: list[tuple[int, int]], THL: int,
                rho) -> list[int]:
    """Per rate span, given by its first and last column of R, the largest
    rise of its rate sequences over all clocks: of e_k = THL*qr*u_k -
    (qr+pr)*s and f_k = (qr-pr)*s - THL*qr*u_k, for clock k's readings u_k
    and the instants s, with rho = pr/qr.  Each span is padded to the
    longest by repeating its last reading, which cannot raise
    max(e - cummin(e))."""
    pr, qr = rho.numerator, rho.denominator
    c = np.array(cols, dtype=np.int64)
    C = np.minimum(c[:, :1] + np.arange(max(b - a for a, b in cols) + 1), c[:, 1:])
    x = np.take(R, C, axis=1)
    x -= x[:, :, :1]
    s = ts[C >> 1]
    s -= s[:, :1]
    x *= THL * qr
    x -= (qr + pr) * s              # e, in place
    acc = np.minimum.accumulate(x, axis=2)
    np.subtract(x, acc, out=acc)
    rise = acc.max(axis=(0, 2))
    x += 2 * pr * s                 # -f, in place: a rise of f is a fall of -f
    np.maximum.accumulate(x, axis=2, out=acc)
    acc -= x
    return np.maximum(rise, acc.max(axis=(0, 2))).tolist()


def sync_check(tracks: list[ClockTrack], edges: list[int], rp: Resolved, L: int,
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
    (a grid step m to m+1 over which its ticks minus m change): about 29
    of 271 samples on a reference window.  Between two kept samples no
    clock jumps and each reads m plus a constant, so every pair's ring
    distance stays that
    of the first; and each rate sequence (e, f; see _rate_rises) falls by
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

    Three arguments keep the evaluation exact and its arrays clocks x
    samples in size:
    - Jumps by position.  Every jump inside the block is one of its
      samples, so searching the samples for it finds the sample it falls
      on, and no two jumps of a track share one (ClockTrack.record).  Side
      1 of a sample reads a track's shift after each of its jumps up to
      that instant: the shift carried into the block plus the running sum,
      along the samples, of the changes its jumps make; side 0 reads that
      less the change at the sample itself.
    - The spread rule.  Each clock's offset from the first clock, taken in
      (-tau/2, tau/2], differs from its reading by a multiple of tau, so
      two clocks' ring distance is their offsets' distance taken the
      shorter way round.  When the offsets' spread, 0 included, is at most
      tau // 2, every pair is at most that far apart the direct way, which
      is then the shorter way, and the two ends are exactly that far: the
      spread is the largest ring distance.  Only wider columns compare
      every pair.
    - Rebasing.  Each rate span's readings and instants are taken less its
      first ones, which shifts each rate sequence by a constant and so
      leaves its rises unchanged, and bounds the int64 magnitudes by the
      span, not the run.

    Returns one (verdict, max precision deviation seen in ticks) per window.
    """
    if len(edges) < 2 or sorted(edges) != list(edges):
        raise ConfigurationError(f"window edges must be at least two, in order: {edges}")
    eps0 = rp.eps0 if eps0 is None else eps0
    # A window without samples passes with deviation 0.
    devs = [0] * (len(edges) - 1)
    ok = [True] * (len(edges) - 1)
    if not tracks:
        return list(zip(ok, devs))
    tau = rp.tau_max
    THL, delta = _lengths(rp, L)
    # Each track's jumps in the block, track after track, and the change each
    # makes to its shift; base: what its readings add to its ticks and to
    # those changes, h0, offset0 and the shift it carries in, mod tau.
    jumps, steps, counts, base = [], [], [], []
    for tr in tracks:
        jt, cum = tr.jump_times, tr.jump_cum
        lo, hi = bisect_left(jt, edges[0]), bisect_right(jt, edges[-1])
        carry, inside = (cum[lo - 1] if lo else 0), cum[lo:hi]
        jumps += jt[lo:hi]
        steps += map(operator.sub, inside, [carry, *inside[:-1]])
        counts.append(hi - lo)
        base.append((tr.clock.h0 + tr.offset0 + carry) % tau)

    # Each window's rate spans, as (first instant, last instant, window), and
    # the block's samples.  Each instant is marked once: a span stops where
    # another starts, or at its window's end, which is the next window's
    # start or the block's end, but for a last half-shifted span that stops
    # inside its window; the block's ends are t1 and t2 of the pick.
    spans, ends = [], []
    for j, (t1, t2) in enumerate(zip(edges, edges[1:])):
        starts = list(range(t1, t2, delta))
        starts += [s + delta // 2 for s in starts[:-1]]
        spans += [(s, min(s + delta, t2), j) for s in starts]
        ends += starts
        if len(starts) > 1 and starts[-1] + delta < t2:
            ends.append(starts[-1] + delta)
    samples = _decisive_samples(tracks, jumps, edges[0], edges[-1], THL, ends[1:])
    if not samples:
        return list(zip(ok, devs))
    ts = np.array(samples, dtype=np.int64)
    R = _readings(tracks, ts, base, jumps, steps, counts)

    if len(tracks) > 1:
        worst = _ring_spread(R, tau)
        for j, (t1, t2) in enumerate(zip(edges, edges[1:])):
            seg = worst[2 * bisect_left(samples, t1):2 * bisect_right(samples, t2)]
            if seg:
                devs[j] = max(seg)
                ok[j] = devs[j] <= eps0

    # Rate condition, exact integer arithmetic: scaled by T_H*L and by the
    # denominator of rho so both sides are integers.  Each span that holds
    # two samples or more, in a window whose precision held (one that failed
    # it fails either way): its first and last column of readings, and its
    # window.
    cols, owner = [], []
    for s0, stop, j in spans:
        if not ok[j]:
            continue
        lo, hi = bisect_left(samples, s0), bisect_right(samples, stop)
        if hi - lo >= 2:
            cols.append((2 * lo, 2 * hi - 1))
            owner.append(j)
    bound = eps0 * THL * rp.rho.denominator
    for k in range(0, len(cols), RATE_SPANS):
        rises = _rate_rises(R, ts, cols[k:k + RATE_SPANS], THL, rp.rho)
        for j, r in zip(owner[k:k + RATE_SPANS], rises):
            if r > bound:
                ok[j] = False
    return list(zip(ok, devs))
