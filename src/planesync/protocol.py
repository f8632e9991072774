"""Per-node protocol state machines.

Terminal (MES) nodes act as one virtual client per switch plane: they
record each plane's distributed clock value, grade its accuracy, relay
records upward, and set their own clock to the median of the plane clocks.
Master switch (MWS) nodes generate round signals, collect the relayed
matrices, toss the grandmaster coin, and compute their next clock value.

All state is single-owner (mutated only by the simulation event loop); the
functions here mutate in place and lean on the pure core in ftcore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Optional

from .errors import InsufficientDataError
from .ftcore import Mat, check_stb, check_weak, filters, fta, rft, accuracy_check, update_acc_counter
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
    "mws_on_sig",
    "mws_watchdog_ticks",
    "mws_rearm",
    "mws_on_end_mc_recv",
    "mws_on_end_c_send",
]


@dataclass(frozen=True)
class TTMessageUp:
    """Terminal-to-plane relay: clock estimates, accuracy counters, raw records."""

    sender: int
    c_vec: tuple[Optional[int], ...]
    a_vec: tuple[int, ...]
    m_vec: tuple[Optional[int], ...]


@dataclass
class MesState:
    """Per-plane records of one terminal node plus its adjustable clock offset."""

    n1: int
    clock_offset: int = 0
    m_rec: dict[int, int] = field(default_factory=dict)
    h_rec: dict[int, int] = field(default_factory=dict)
    c_tilde: dict[int, int] = field(default_factory=dict)
    prev_m: dict[int, int] = field(default_factory=dict)
    prev_h: dict[int, int] = field(default_factory=dict)
    acc: dict[int, int] = field(default_factory=dict)


@dataclass
class MwsState:
    """Grandmaster bookkeeping and per-round matrices of one master switch."""

    tau_max: int
    clock_offset: int = 0
    grand_life: int = 0
    b_coin: int = 0
    tau_idl: int = -1         # tau_max is the idle sentinel
    c_tilde_old: int = 0
    c_new: Optional[int] = None
    C_mat: Optional[Mat] = None
    A_mat: Optional[Mat] = None
    M_mat: Optional[Mat] = None

    def __post_init__(self) -> None:
        if self.tau_idl < 0:
            self.tau_idl = self.tau_max

    @property
    def idle(self) -> bool:
        return self.tau_idl == self.tau_max


def mes_on_clock_msg(state: MesState, p: int, m: int, h_now: int, rp: Resolved) -> None:
    """Record a plane's distributed clock value received in its receive slot."""
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


def mes_on_begin_vc_send(state: MesState, sender: int, h_now: int, rp: Resolved) -> TTMessageUp:
    """Build the upward relay message; identical content goes to every plane."""
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


def mes_on_end_c_recv(state: MesState, h_now: int, rp: Resolved) -> None:
    """Set the terminal clock from the median of the plane clock estimates.

    Estimates are projected to the common reference instant delta_tt2 ticks
    in the past (the planes' adjustment instant) and the median is shifted
    back, so the resulting clock tracks the plane clocks with no offset.
    """
    if not state.c_tilde:
        return
    tau = rp.tau_max
    h_ref = wrap_sub(h_now, rp.dv.delta_tt2, tau)
    proj = [wrap_add(ct, h_ref, tau) for ct in state.c_tilde.values()]
    target = wrap_add(ring_med(proj, tau), rp.dv.delta_tt2, tau)
    state.clock_offset = wrap_sub(target, h_now, tau)


def next_sig_tick(base: int, k_min: int, tau: int, T: int) -> int:
    """Smallest tick k >= k_min at which an idle switch emits a SIG: its
    clock (base + k) mod tau is a multiple of T, where base is the clock
    reading plus offset at tick 0."""
    best = None
    for v in range(0, ((tau - 1) // T) * T + 1, T):
        k = k_min + (v - base - k_min) % tau
        if best is None or k < best:
            best = k
    return best


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


@dataclass(frozen=True)
class RoundSummary:
    """What the end-of-collection step decided, for traces and tests."""

    stb: bool
    branch: str  # "avg", "weak", "own", "rft"


def mws_on_end_mc_recv(state: MwsState, h_now: int, rng: Random, rp: Resolved) -> RoundSummary:
    """Coin toss, grandmaster bookkeeping, and the new clock value choice."""
    tau = rp.tau_max
    state.b_coin = 1 if rng.random() < rp.dv.q0_cut else 0
    if state.b_coin == 1:
        state.grand_life = rp.dv.g0

    C, A, M = state.C_mat, state.A_mat, state.M_mat
    assert C is not None and A is not None and M is not None
    fr = filters(M, A, rp)
    stb = check_stb(C, fr.p_acma, rp)
    own = wrap_add(wrap_add(h_now, state.clock_offset, tau), rp.dv.delta_tt3, tau)
    branch = "avg"

    def averaged() -> int:
        nonlocal branch
        try:
            return fta(C, rp)
        except InsufficientDataError:
            branch = "own"  # during chaos a node must still output something
            return own

    if state.grand_life > 0:
        state.grand_life -= 1
        if state.b_coin == 0 or stb:
            state.c_new = averaged()
        else:
            weak = check_weak(C, rp)
            branch = "weak" if weak is not None else "own"
            state.c_new = weak if weak is not None else own
    else:
        if stb:
            state.c_new = averaged()
        else:
            c_pre = wrap_add(wrap_add(h_now, rp.dv.delta_tt3, tau), state.c_tilde_old, tau)
            try:
                branch = "rft"
                state.c_new = rft(C, c_pre, rp.dv.p0_cut, rng, rp)
            except InsufficientDataError:
                branch = "own"
                state.c_new = own
    return RoundSummary(stb=stb, branch=branch)


def mws_on_end_c_send(state: MwsState, h_now: int, rp: Resolved) -> None:
    """Adjust the clock to the latched value and rearm SIG generation."""
    if state.c_new is None:
        return
    tau = rp.tau_max
    state.c_tilde_old = state.clock_offset
    state.clock_offset = wrap_sub(state.c_new, h_now, tau)
    mws_rearm(state)
