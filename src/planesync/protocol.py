"""Per-node protocol state machines.

Terminal (MES) nodes act as one virtual client per switch plane: they
record each plane's distributed clock value, grade its accuracy, relay
records upward, and set their own clock to the median of the plane clocks.
Master switch (MWS) nodes generate round signals, toss the grandmaster
coin over the relays a round collected, and compute their next clock value;
the relays and that value belong to the round, not to the switch.

All state is single-owner (mutated only by the simulation event loop); the
functions here mutate in place and lean on the pure core in ftcore.

The per-round steps write ring arithmetic as `% tau` (ring.py says why
that is exact).  Relays and round summaries are slotted, unfrozen
dataclasses: a frozen dataclass's __init__ costs about twice as much, and
nothing changes either once it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional

from .ftcore import check_stb, check_weak, filters, fta, rft, accuracy_check, update_acc_counter
from .params import Resolved
from .ring import ring_med, wrap_add, wrap_sub

__all__ = [
    "MesState",
    "MwsState",
    "RoundSummary",
    "TTMessageUp",
    "mes_on_clock_msg",
    "mes_on_begin_vc_send",
    "mes_on_end_c_recv",
    "next_sig_tick",
    "grandmaster_toss",
    "mws_on_sig",
    "mws_watchdog_ticks",
    "mws_rearm",
    "mws_on_end_mc_recv",
    "mws_on_end_c_send",
]


@dataclass(slots=True)
class TTMessageUp:
    """Terminal-to-plane relay: clock estimates, accuracy counters, raw records.
    It names no sender: the plane keys it by the terminal that delivered it.
    One relay goes to every plane, so it is never changed once built."""

    c_vec: tuple[Optional[int], ...]
    a_vec: tuple[int, ...]
    m_vec: tuple[Optional[int], ...]


class MesState:
    """One terminal node: its adjustable clock offset and, per plane, the last
    record (the plane's value m_rec and the local reading h_rec it arrived
    at, both None before the first) with its accuracy counter acc."""

    def __init__(self, n1: int, clock_offset: int = 0) -> None:
        self.clock_offset = clock_offset
        self.m_rec: list[Optional[int]] = [None] * n1
        self.h_rec: list[Optional[int]] = [None] * n1
        self.acc = [0] * n1


@dataclass
class MwsState:
    """One master switch: its clock offset, the offset before its last
    adjustment, its grandmaster lifetime and its busy marker."""

    tau_max: int
    clock_offset: int = 0
    grand_life: int = 0
    tau_idl: int = -1         # tau_max is the idle sentinel
    c_tilde_old: int = 0

    def __post_init__(self) -> None:
        if self.tau_idl < 0:
            self.tau_idl = self.tau_max

    @property
    def idle(self) -> bool:
        return self.tau_idl == self.tau_max


def mes_on_clock_msg(state: MesState, p: int, m: int, h_now: int, rp: Resolved) -> None:
    """Record a plane's distributed clock value received in its receive slot."""
    h = (h_now + rp.dv.delta_tt0) % rp.tau_max
    m_pre, h_pre = state.m_rec[p], state.h_rec[p]
    state.m_rec[p] = m
    state.h_rec[p] = h
    if m_pre is None:
        state.acc[p] = 0  # a first record carries no history to grade
    else:
        ok = accuracy_check(m, m_pre, h, h_pre, rp)
        state.acc[p] = update_acc_counter(state.acc[p], ok, rp.a0)


def mes_on_begin_vc_send(state: MesState, h_now: int, rp: Resolved) -> TTMessageUp:
    """Build the upward relay message; identical content goes to every plane.

    A plane's clock estimate is its record's offset m_rec - h_rec carried
    forward to the reading h_now + delta_tt1."""
    tau = rp.tau_max
    shift = h_now + rp.dv.delta_tt1
    m_vec = tuple(state.m_rec)
    c_vec = tuple([None if m is None else (m - h + shift) % tau
                   for m, h in zip(m_vec, state.h_rec)])
    return TTMessageUp(c_vec, tuple(state.acc), m_vec)


def mes_on_end_c_recv(state: MesState, h_now: int, rp: Resolved) -> None:
    """Set the terminal clock from the median of the plane clock estimates.

    Estimates are projected to the common reference instant delta_tt2 ticks
    in the past (the planes' adjustment instant) and the median is shifted
    back, so the resulting clock tracks the plane clocks with no offset.
    """
    tau, d2 = rp.tau_max, rp.dv.delta_tt2
    h_ref = h_now - d2
    proj = [(m - h + h_ref) % tau for m, h in zip(state.m_rec, state.h_rec) if m is not None]
    if not proj:
        return
    # The median shifted forward by delta_tt2 is the target reading; the
    # offset takes the clock there from h_now.
    state.clock_offset = (ring_med(proj, tau) + d2 - h_now) % tau


def next_sig_tick(base: int, k_min: int, tau: int, T: int) -> int:
    """Smallest tick k >= k_min at which an idle switch emits a SIG: its
    clock (base + k) mod tau is a multiple of T, where base is the clock
    reading plus offset at tick 0.  When T does not divide tau, the clock
    passes no multiple between the last one below tau and the wrap to 0."""
    x = (base + k_min) % tau
    d = -x % T
    if x + d > (tau - 1) // T * T:
        d = tau - x
    return k_min + d


def mws_on_sig(state: MwsState, h_now: int, rp: Resolved) -> None:
    """A SIG at hardware reading h_now starts a round: the switch is busy
    until the round completes or the watchdog fires."""
    state.tau_idl = wrap_add(h_now, rp.sys.T0 % rp.tau_max, rp.tau_max)


def mws_watchdog_ticks(state: MwsState, h_now: int, rp: Resolved) -> int:
    """Ticks from hardware reading h_now until the watchdog of a busy switch
    fires: the first tick whose reading lies more than T0 ticks behind
    tau_idl.  T0 + 1 right after a SIG."""
    d = wrap_sub(state.tau_idl, h_now, rp.tau_max)
    return 0 if d > rp.sys.T0 else d + 1


def mws_rearm(state: MwsState) -> None:
    """Back to idle: the next clock multiple of T emits a SIG."""
    state.tau_idl = state.tau_max


@dataclass(slots=True)
class RoundSummary:
    """What the end-of-collection step decided: the coin, the stability
    verdict, the branch taken and the new clock value."""

    b_coin: int
    stb: bool
    branch: str  # "avg", "weak", "own", "rft"
    c_new: int


def grandmaster_toss(life: int, rng: Random, rp: Resolved) -> tuple[int, int]:
    """One toss of the grandmaster coin by a switch holding `life` rounds of
    grandmaster lifetime: the coin, and the lifetime left after the round.
    A head grants g0 rounds; a round that holds any lifetime spends one."""
    b_coin = 1 if rng.random() < rp.dv.q0_cut else 0
    if b_coin == 1:
        life = rp.dv.g0
    return b_coin, max(life - 1, 0)


def mws_on_end_mc_recv(state: MwsState, relays: dict[int, TTMessageUp], h_now: int,
                       rng: Random, rp: Resolved) -> RoundSummary:
    """Coin toss, grandmaster bookkeeping, and the new clock value choice,
    over the round's relays keyed by the terminal that delivered them.

    ftcore reads the relays' own vectors in arrival order; its docstring
    says why neither that order nor a terminal that sent nothing can change
    the decision.  When the chosen branch has too few relays to work with,
    the switch keeps its own clock."""
    tau = rp.tau_max
    held = state.grand_life
    b_coin, state.grand_life = grandmaster_toss(held, rng, rp)
    grand = b_coin == 1 or held > 0

    C, M, A = [], [], []
    for u in relays.values():
        C.append(u.c_vec)
        M.append(u.m_vec)
        A.append(u.a_vec)
    stb = check_stb(C, filters(M, A, rp), rp)
    if stb or (grand and b_coin == 0):
        branch, c_new = "avg", fta(C, rp)
    elif grand:
        branch, c_new = "weak", check_weak(C, rp)
    else:
        c_pre = (h_now + rp.dv.delta_tt3 + state.c_tilde_old) % tau
        branch, c_new = "rft", rft(C, c_pre, rp.dv.p0_cut, rng, rp)
    if c_new is None:
        # During chaos a node must still output something: its own clock.
        branch = "own"
        c_new = (h_now + state.clock_offset + rp.dv.delta_tt3) % tau
    return RoundSummary(b_coin, stb, branch, c_new)


def mws_on_end_c_send(state: MwsState, c_new: int, h_now: int, rp: Resolved) -> None:
    """Adjust the clock to the round's new value and rearm SIG generation."""
    state.c_tilde_old = state.clock_offset
    state.clock_offset = wrap_sub(c_new, h_now, rp.tau_max)
    mws_rearm(state)
