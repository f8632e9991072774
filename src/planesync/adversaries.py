"""Built-in adversary strategies.

An adversary owns every nondeterministic knob of a run: per-node tick rates
within the drift bound, per-message delivery delays in (0, d_max],
per-member round-start skews in [0, eps_rnd], and the complete behavior of
faulty components.  Every knob is an integer count, which the World checks
and clamps: a rate in drift steps (World.drift_steps is rho), a tick phase,
skew or delay in QUANT-ths of its span.
A node is named by its engine rank: plane p is p, terminal i is n1 + i.
Faulty nodes take the last indices: World's honest_* and faulty_* are ranges.

Faulty planes act through three World hooks: faulty_sig starts a round at
the terminals, adv_deliver_down injects arbitrary per-recipient clock
values, and schedule_adv runs strategy code at chosen instants.  Faulty
terminals inject upward messages through adv_send_up.
"""

from __future__ import annotations

from functools import partial

from .errors import ConfigurationError
from .ftcore import below
from .params import Resolved
from .protocol import TTMessageUp
from .ring import wrap_add
from .simnet import QUANT, World

__all__ = ["Adversary", "Silent", "RandomNoise", "MaxSkew", "SplitBrain", "BUILTINS",
           "make_adversary"]

# Bits of one draw of a skew in [0, QUANT] and of a delay in [1, QUANT]:
# below's width for QUANT + 1 and for QUANT values.
_SKEW_BITS, _DELAY_BITS = (QUANT + 1).bit_length(), QUANT.bit_length()


class Adversary:
    """Neutral baseline: nominal rates, random mid-range delays and skews,
    faulty components completely silent."""

    name = "silent"

    def __init__(self) -> None:
        self.world: World | None = None

    # -- wiring ------------------------------------------------------------

    def bind(self, world: World) -> None:
        self.world = world
        self.rp: Resolved = world.rp
        self.rng = world.adv_rng
        # Every integer draw is ftcore.below on the public getrandbits.  The
        # skew and delay hooks, about 40 draws a window, run its loop in
        # place; the other draws go through _below.
        self._bits = world.adv_rng.getrandbits
        self._below = partial(below, world.adv_rng)

    def unbind(self) -> None:
        self.world = None

    def setup(self) -> None:
        pass

    # -- physical knobs ------------------------------------------------------

    def choose_period(self, rank: int) -> int:
        return 0

    def choose_phase(self, rank: int) -> int:
        return self._below(QUANT)

    def choose_skew(self, i: int, p: int) -> int:
        k = self._bits(_SKEW_BITS)              # below(rng, QUANT + 1), in place
        while k > QUANT:
            k = self._bits(_SKEW_BITS)
        return k

    def choose_delay(self, sender: int, p: int) -> int:
        k = self._bits(_DELAY_BITS)             # 1 + below(rng, QUANT), in place
        while k >= QUANT:
            k = self._bits(_DELAY_BITS)
        return 1 + k

    # -- faulty-component behavior -------------------------------------------

    def on_sig(self, p: int, t: int) -> None:
        pass

    def faulty_mes_round(self, i: int, p: int, anchor: int) -> None:
        pass

    def on_up_to_faulty(self, i: int, p: int, msg: TTMessageUp, send_t: int) -> None:
        """Honest terminal i's relay to faulty plane p, sent at send_t.  While
        this hook is this base no-op, a World pushes no relay step toward a
        faulty plane: nothing would read the relay."""


class Silent(Adversary):
    name = "silent"


class RandomNoise(Adversary):
    """Uniform chaos: random constant drifts, random payloads and timings
    from every faulty component."""

    name = "random_noise"

    def bind(self, world: World) -> None:
        super().bind(world)
        span = world.drift_steps
        self._rates = [self._below(2 * span + 1) - span for _rank in range(self.rp.n1 + self.rp.n0)]

    def choose_period(self, rank: int) -> int:
        return self._rates[rank]

    def setup(self) -> None:
        for p in self.world.faulty_planes:
            self._arm_faulty_plane(p)

    def _arm_faulty_plane(self, p: int) -> None:
        w = self.world
        T_ticks = self.rp.T
        lo, hi = T_ticks // 2, 3 * T_ticks // 2
        gap = w.THL * (lo + self._below(hi - lo))
        t_sig = w.engine.now + gap

        def fire(p=p):
            w.faulty_sig(p, w.engine.now)
            sc = self.rp.sched
            for i in w.honest_mes:
                off = sc.c_send[0] * QUANT + self._below(4 * QUANT)
                arrival = w.engine.now + off * (w.THL // QUANT) + \
                    (1 + self._below(QUANT)) * w.delay_quantum
                w.adv_deliver_down(p, i, self._below(self.rp.tau_max), arrival)
            self._arm_faulty_plane(p)

        w.schedule_adv(t_sig, fire)

    def faulty_mes_round(self, i: int, p: int, anchor: int) -> None:
        w = self.world
        if p in w.faulty_planes:
            return
        rp = self.rp
        sc = rp.sched
        send_t = anchor + (sc.vc_send[0] * QUANT + self._below(4 * QUANT)) * \
            (w.THL // QUANT)

        def blast(i=i, p=p, send_t=send_t):
            tau, below, random, planes = rp.tau_max, self._below, self.rng.random, range(rp.n1)
            c_vec = tuple([below(tau) if random() < 0.8 else None for _ in planes])
            a_vec = tuple([below(rp.a0 + 1) for _ in planes])
            m_vec = tuple([below(tau) if random() < 0.8 else None for _ in planes])
            w.adv_send_up(i, p, TTMessageUp(c_vec, a_vec, m_vec), send_t)

        w.schedule_adv(send_t, blast)


class MaxSkew(Adversary):
    """Everything at the bound, signs chosen to pull clocks apart: honest
    planes at opposite drift extremes, terminals split, delays at d_max,
    alternating anchor skews.  Faulty components stay silent."""

    name = "max_skew"

    def choose_period(self, rank: int) -> int:
        n1, w = self.rp.n1, self.world
        ranked = w.honest_planes if rank < n1 else [n1 + i for i in w.honest_mes]
        if rank not in ranked:
            return 0
        return w.drift_steps if ranked.index(rank) % 2 == 0 else -w.drift_steps

    def choose_skew(self, i: int, p: int) -> int:
        return QUANT if (i + p) % 2 == 0 else 0

    def choose_delay(self, sender: int, p: int) -> int:
        return QUANT


class SplitBrain(Adversary):
    """The faulty plane shadows the first honest plane and distributes that
    clock plus a bias hovering at the stability window boundary.

    One update per cycle, with a bias toggling across the eps1 boundary in
    steps below the accuracy bound, so terminal accuracy counters for the
    faulty row stay maxed while the row moves in and out of the window.
    The update is aimed between the two honest planes' upward relay
    instants, so that they collect different biases.  It seldom splits
    their stability verdicts: on the reference scenario, 6 seeds x 200
    windows, the two honest switches judged one cycle differently in 0 of
    2,400 cycles from a synchronized start and in 1 of 2,401 from random
    starts (ROADMAP.md, item 10)."""

    name = "split_brain"

    def bind(self, world: World) -> None:
        super().bind(world)
        rp = self.rp
        self.bias_lo = (3 * rp.eps1) // 4
        self.bias_hi = min(self.bias_lo + 2 * rp.eps0 - 4, rp.eps1 + 3 * rp.eps0)
        self._hi = False
        self.tracked = world.honest_planes[0]
        self._last: tuple[int, int] | None = None  # first SIG of the pair
        # Shadow-round anchor offset: the terminals' receive slot must be
        # open around the next cycle's relay instants (anchor + vc_send).
        mid = rp.T + rp.sched.vc_send[0] + 1
        self._anchor_off = mid - (rp.sched.c_recv[0] + rp.sched.c_recv[1]) // 2

    def choose_skew(self, i: int, p: int) -> int:
        return 0  # relay instants must be predictable to place the update

    def on_sig(self, p: int, t: int) -> None:
        w = self.world
        if not w.faulty_planes:
            return
        half = (self.rp.T // 2) * w.THL
        if self._last is not None and self._last[1] != p and t - self._last[0] <= half:
            t1, _p1 = self._last
            self._last = None
            self._inject_between(t1, t)
            for pf in w.faulty_planes:
                w.schedule_adv(t1 + self._anchor_off * w.THL,
                               lambda pf=pf: w.faulty_sig(pf, w.engine.now))
        else:
            self._last = (t, p)

    def _inject_between(self, t1: int, t2: int) -> None:
        w = self.world
        rp = self.rp
        self._hi = not self._hi
        bias = self.bias_hi if self._hi else self.bias_lo
        for pf in w.faulty_planes:
            for i in w.honest_mes:
                period = w.clocks[rp.n1 + i].period
                r1 = t1 + rp.sched.vc_send[0] * period
                r2 = t2 + rp.sched.vc_send[0] * period
                u = max(w.engine.now, r1) + w.delay_quantum
                if u >= r2:
                    u = (max(w.engine.now, r1) + r2) // 2  # best effort
                base = w.read_clock(self.tracked, u)
                m = wrap_add(wrap_add(base, rp.dv.delta_tt0, rp.tau_max),
                             bias, rp.tau_max)
                w.adv_deliver_down(pf, i, m, u)


BUILTINS = {a.name: a for a in (Silent, RandomNoise, MaxSkew, SplitBrain)}


def make_adversary(name: str) -> Adversary:
    try:
        cls = BUILTINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary {name!r}; built-ins: {sorted(BUILTINS)}") from None
    return cls()
