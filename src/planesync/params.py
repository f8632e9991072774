"""Static system parameters, the TT-slot schedule, and derived constants.

Everything downstream (filters, guarded conditions, the simulator, the
statistical harness) reads its constants from a single resolved parameter
bundle built here.  Probabilities and time quantities are exact rationals
so that RNG thresholds and event times reproduce bit-identically per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Iterable

from .errors import ConfigurationError
from .ring import wrap_sub

__all__ = [
    "as_fraction",
    "as_int",
    "checked_section",
    "SystemParams",
    "TTSchedule",
    "DerivedParams",
    "ValidationReport",
    "Resolved",
    "validate",
    "derive",
    "resolve",
    "load_config_doc",
]


def as_fraction(x: Any) -> Fraction:
    """Exact rational from int, Fraction, decimal string, 'p/q' string, or
    finite float; a bool, which YAML reads from `yes` or `true`, is refused.

    Floats go through their shortest decimal repr, so 0.01 becomes 1/100.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return Fraction(str(x))
    elif isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigurationError(f"cannot interpret {x!r} as an exact rational")


def as_int(x: Any, what: str) -> int:
    """x itself if it is an int; anything else, a bool or a numeric string
    included, is refused with a message naming what x is."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigurationError(f"{what} must be an integer: {x!r}")
    return x


@dataclass(frozen=True)
class TTSchedule:
    """Per-slot (begin, end) tick offsets from the round start.

    Slot order within one round: the terminal nodes upload their records
    (vc_send), the master switch collects them (mc_recv), distributes its
    new clock (c_send), and the terminals receive it (c_recv).
    """

    vc_send: tuple[int, int]
    mc_recv: tuple[int, int]
    c_send: tuple[int, int]
    c_recv: tuple[int, int]

    def bounds(self) -> list[int]:
        return [*self.vc_send, *self.mc_recv, *self.c_send, *self.c_recv]


@dataclass(frozen=True)
class SystemParams:
    n0: int                      # terminal (MES) node count
    n1: int                      # switch plane count
    f0: int                      # tolerated Byzantine MES nodes
    f1: int                      # tolerated Byzantine planes
    tau_max: int                 # ring modulus, ticks
    T_H: Fraction                # nominal tick duration, simulated time units
    rho: Fraction                # max hardware clock drift rate
    d_max: Fraction              # max end-to-end message delay, time units
    T0: int                      # max basic round cycle, ticks
    a0: int = 3                  # accuracy-counter cap
    eps0: int | None = None      # target precision, ticks
    eps1: int | None = None      # stability-condition window, ticks
    eps2: int | None = None      # weak-condition window, ticks
    eps_rnd: Fraction | None = None  # intra-plane round-start skew bound, time
    q0: Fraction | None = None   # coin head probability
    p0: Fraction | None = None   # deterministic branch probability of RFT


@dataclass(frozen=True)
class DerivedParams:
    c0: int | None               # per-round contraction base (None when f0 = 0)
    k0: int                      # contraction round count
    g0: int                      # grandmaster lifetime, rounds
    q0: Fraction
    p0: Fraction
    q0_cut: float                # rng.random() < q0_cut exactly when < q0
    p0_cut: float                # the same for p0
    T: int                       # nominal SIG cycle, ticks
    delta_tt0: int
    delta_tt1: int
    delta_tt2: int
    delta_tt3: int
    q1_bound: Fraction           # per-attempt stabilization probability bound
    T_max: Fraction              # window length 2*T*(1+rho), ticks
    stb_exp_windows: Fraction | None  # mean stabilization bound 2/q1 + g0, windows;
                                      # None when q1_bound is 0
    # Resolved inputs carried along for convenience:
    eps0: int
    eps1: int
    eps2: int
    d_max_ticks: int
    hw_acc_bound: int            # accuracy condition's hardware-clock bound, ticks
    eps_rnd: Fraction
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "fail:\n" + "\n".join(f"  - {v}" for v in self.violations)


def _d_max_ticks(p: SystemParams) -> int:
    return math.ceil(Fraction(p.d_max) / ((1 - p.rho) * p.T_H))


def _eps_rnd(p: SystemParams) -> Fraction:
    """The round-start skew bound; unset, it is d_max."""
    return p.eps_rnd if p.eps_rnd is not None else Fraction(p.d_max)


def _resolve_eps(p: SystemParams, dmt: int) -> tuple[int, int, int]:
    """Defaults: eps0 from the precision claim, eps1/eps2 from their orders.

    eps1 and eps2 are mutually dependent through T = T0 + eps2, so the
    default solves the linear fixpoint
        eps1 = 2*eps0 + 4*rho*(T0 + 2*eps1) + 2*d_max_ticks,  eps2 = 2*eps1
    exactly and rounds up to ticks.  Requires rho < 1/8.
    """
    eps0 = p.eps0 if p.eps0 is not None else math.ceil(3 * (1 + p.rho) * dmt)
    if p.eps1 is not None:
        eps1 = p.eps1
    else:
        if p.rho >= Fraction(1, 8):
            raise ConfigurationError("default eps1 needs rho < 1/8; set eps1/eps2 explicitly")
        eps1 = math.ceil((2 * eps0 + 4 * p.rho * p.T0 + 2 * dmt) / (1 - 8 * p.rho))
    eps2 = p.eps2 if p.eps2 is not None else 2 * eps1
    return eps0, eps1, eps2


def _draw_cut(q: Fraction) -> float:
    """The float c such that rng.random() < c exactly when rng.random() < q.

    random() returns k/2**53 for an integer k, and k < q*2**53 holds exactly
    when k < ceil(q*2**53); that bound over 2**53 is an exact float, so the
    per-round draw compares two floats instead of a float with a Fraction.
    """
    return -(-q.numerator * 2**53 // q.denominator) / 2**53


def validate(params: SystemParams, sched: TTSchedule) -> ValidationReport:
    """Report-style check of every static invariant."""
    v: list[str] = []
    p = params
    for name in ("f0", "f1"):
        if getattr(p, name) < 0:
            v.append(f"{name} must be >= 0: {getattr(p, name)}")
    if not p.n0 > 3 * p.f0:
        v.append(f"n0>3f0 violated: n0={p.n0}, f0={p.f0}")
    if not p.n1 > 2 * p.f1:
        v.append(f"n1>2f1 violated: n1={p.n1}, f1={p.f1}")
    if p.n1 != 3:
        v.append(f"n1 must be 3: the randomized reference pick is defined for "
                 f"three planes, n1={p.n1}")
    if not (0 <= p.rho < 1):
        v.append(f"rho must be in [0,1): {p.rho}")
    if not p.d_max > 0:
        v.append(f"d_max must be positive: {p.d_max}")
    if p.T_H <= 0:
        v.append(f"T_H must be positive: {p.T_H}")
    if p.eps_rnd is not None and p.eps_rnd < 0:
        v.append(f"eps_rnd must be >= 0: {p.eps_rnd}")
    if p.a0 < 1:
        v.append(f"a0 must be >= 1: {p.a0}")
    if p.q0 is not None and not (0 <= p.q0 <= 1):
        v.append(f"q0 outside [0,1]: {p.q0}")
    if p.p0 is not None and not (0 <= p.p0 <= 1):
        v.append(f"p0 outside [0,1]: {p.p0}")
    b = sched.bounds()
    if any(x < 0 for x in b) or b[-1] > p.T0:
        v.append(f"schedule must lie within [0, T0={p.T0}]: {b}")
    if b != sorted(b):
        v.append(f"schedule slot ordering violated: {b}")
    if p.T_H <= 0 or not 0 <= p.rho < 1:
        return ValidationReport(ok=False, violations=tuple(v))   # no tick count exists

    dmt = _d_max_ticks(p)
    try:
        eps0, eps1, eps2 = _resolve_eps(p, dmt)
        if not (eps2 >= eps1 >= eps0 > 0):
            v.append(f"eps2 >= eps1 >= eps0 > 0 violated: {eps0}, {eps1}, {eps2}")
        T = p.T0 + eps2
        if not p.tau_max >= 4 * T:
            v.append(f"tau_max >= 4T violated: tau_max={p.tau_max}, T={T}")
    except ConfigurationError as e:
        v.append(str(e))
    if sched.mc_recv[1] - sched.vc_send[0] <= dmt:
        v.append(
            "vc_send->mc_recv gap must exceed "
            f"d_max ticks ({dmt}): {sched.vc_send} -> {sched.mc_recv}"
        )
    if sched.c_recv[1] - sched.c_send[0] <= dmt:
        v.append(
            "c_send->c_recv gap must exceed "
            f"d_max ticks ({dmt}): {sched.c_send} -> {sched.c_recv}"
        )
    # The same windows in time, on the worst clocks.  An honest relay, sent at
    # vc_send[0] on a slow terminal clock from an anchor eps_rnd late, arrives
    # by d_max later, before collection ends at mc_recv[1] on a fast plane
    # clock; an honest clock value, sent at c_send[0] on a slow plane clock,
    # arrives before the receive slot ends at c_recv[1] on a fast terminal
    # clock.  The first also keeps every terminal anchor before c_send[0] on
    # a fast plane clock, so no honest value arrives before its round.
    slow, fast = p.T_H * (1 + p.rho), p.T_H * (1 - p.rho)
    late, end = _eps_rnd(p) + sched.vc_send[0] * slow + p.d_max, sched.mc_recv[1] * fast
    if not late < end:
        v.append("an honest relay can miss collection: eps_rnd + vc_send[0]*T_H*(1+rho) + d_max "
                 f"< mc_recv[1]*T_H*(1-rho) violated: {late} >= {end}")
    late, end = sched.c_send[0] * slow + p.d_max, sched.c_recv[1] * fast
    if not late < end:
        v.append("an honest clock value can miss its receive slot: c_send[0]*T_H*(1+rho) + d_max "
                 f"< c_recv[1]*T_H*(1-rho) violated: {late} >= {end}")
    return ValidationReport(ok=not v, violations=tuple(v))


def derive(params: SystemParams, sched: TTSchedule) -> DerivedParams:
    """Compute every derived constant from the closed forms.

    T first (it does not depend on k0), then k0, then g0 and the
    probabilities; this matches the dependency order of the formulas.
    """
    rep = validate(params, sched)
    if not rep.ok:
        raise ConfigurationError(str(rep))
    p = params
    warnings: list[str] = []
    dmt = _d_max_ticks(p)
    eps0, eps1, eps2 = _resolve_eps(p, dmt)
    T = p.T0 + eps2

    c0: int | None = None
    k0 = 1
    if p.f0 == 0:
        warnings.append("f0=0: contraction base undefined, k0 fixed at 1")
    else:
        # validate gives f0 >= 1 and n0 > 3 f0, hence c0 >= 2 (the loop ends), and
        # eps2 >= eps0 > 0, hence ratio >= 2: k0 is the least k with c0^k >= ratio.
        c0 = (p.n0 - 2 * p.f0 - 1) // p.f0 + 1
        ratio = Fraction(2 * eps2 + 8 * p.rho * (1 + p.rho) * T, eps0)
        acc = Fraction(c0)
        while acc < ratio:
            acc *= c0
            k0 += 1

    if p.tau_max % T != 0:
        # One round per ring wrap is tau_max mod T ticks short, which upsets
        # the accuracy filters periodically.
        warnings.append(f"tau_max={p.tau_max} is not a multiple of T={T}: "
                        "signal cadence is nonuniform at the ring wrap")

    g0 = p.a0 + k0
    q0 = p.q0 if p.q0 is not None else Fraction(1, 2 * g0 + 1)
    p0 = p.p0 if p.p0 is not None else 1 - Fraction(1, g0 + 1)
    q1_bound = q0 * (1 - q0) ** (2 * g0) * p0**g0 * (1 - p0) / 2
    if q1_bound == 0:
        warnings.append(f"q0={q0}, p0={p0}: q1_bound is 0, so there is no stabilization "
                        "bound (it needs 0 < q0 < 1 and 0 < p0 < 1)")

    tm = p.tau_max
    d0 = wrap_sub(sched.c_send[1] % tm, sched.c_recv[0] % tm, tm)
    d1 = wrap_sub(sched.c_send[1] % tm, sched.vc_send[0] % tm, tm)
    d2 = wrap_sub(sched.c_recv[1] % tm, sched.c_send[1] % tm, tm)
    d3 = wrap_sub(sched.c_send[1] % tm, sched.mc_recv[1] % tm, tm)

    t_max = 2 * T * (1 + p.rho)
    hw_acc_bound = math.ceil(Fraction(2 * eps0 + 2 * p.rho * T + dmt) / (1 - p.rho) ** 2)
    stb_exp = 2 / q1_bound + g0 if q1_bound > 0 else None
    return DerivedParams(
        c0=c0, k0=k0, g0=g0, q0=q0, p0=p0, T=T,
        q0_cut=_draw_cut(q0), p0_cut=_draw_cut(p0),
        delta_tt0=d0, delta_tt1=d1, delta_tt2=d2, delta_tt3=d3,
        q1_bound=q1_bound, T_max=t_max, stb_exp_windows=stb_exp,
        eps0=eps0, eps1=eps1, eps2=eps2, d_max_ticks=dmt, hw_acc_bound=hw_acc_bound,
        eps_rnd=_eps_rnd(p), warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class Resolved:
    """SystemParams + TTSchedule + DerivedParams bundled for the hot paths."""

    sys: SystemParams
    sched: TTSchedule
    dv: DerivedParams = field(repr=False)

    # Shorthands used throughout the fault-tolerant core: plain attributes,
    # copied once from sys and dv, so a hot-path read is not a call.
    n0: int = field(init=False, repr=False, compare=False)
    n1: int = field(init=False, repr=False, compare=False)
    f0: int = field(init=False, repr=False, compare=False)
    f1: int = field(init=False, repr=False, compare=False)
    tau_max: int = field(init=False, repr=False, compare=False)
    a0: int = field(init=False, repr=False, compare=False)
    rho: Fraction = field(init=False, repr=False, compare=False)
    T: int = field(init=False, repr=False, compare=False)
    eps0: int = field(init=False, repr=False, compare=False)
    eps1: int = field(init=False, repr=False, compare=False)
    eps2: int = field(init=False, repr=False, compare=False)
    d_max_ticks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for source, names in ((self.sys, ("n0", "n1", "f0", "f1", "tau_max", "a0", "rho")),
                              (self.dv, ("T", "eps0", "eps1", "eps2", "d_max_ticks"))):
            for name in names:
                object.__setattr__(self, name, getattr(source, name))


def resolve(params: SystemParams, sched: TTSchedule) -> Resolved:
    return Resolved(sys=params, sched=sched, dv=derive(params, sched))


def checked_section(data: Any, name: str, keys: Iterable[str], optional: bool = False) -> dict:
    """Config section `name` as a mapping whose keys all lie in `keys`; an
    optional section may also be null, which means empty."""
    if optional and data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name} section must be a mapping: {data!r}")
    unknown = data.keys() - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {sorted(unknown)}")
    return data


def parse_system_section(data: Any) -> SystemParams:
    kwargs: dict[str, Any] = {}
    fs = {f.name: f for f in fields(SystemParams)}
    for k, val in checked_section(data, "system", fs).items():
        if val is None and fs[k].default is None:     # a derived default
            kwargs[k] = None
        elif "Fraction" in fs[k].type:
            try:
                kwargs[k] = as_fraction(val)
            except ConfigurationError as e:
                raise ConfigurationError(f"system key {k}: {e}") from None
        else:
            kwargs[k] = as_int(val, f"system key {k}")
    try:
        return SystemParams(**kwargs)
    except TypeError as e:
        raise ConfigurationError(f"bad system section: {e}") from e


def parse_schedule_section(data: Any) -> TTSchedule:
    names = [f.name for f in fields(TTSchedule)]
    missing = set(names) - checked_section(data, "schedule", names).keys()
    if missing:
        raise ConfigurationError(f"missing schedule keys: {sorted(missing)}")
    slots = {}
    for k in names:
        pair = data[k]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigurationError(f"schedule slot {k} must be [begin, end]: {pair!r}")
        slots[k] = tuple(as_int(v, f"schedule slot {k}") for v in pair)
    return TTSchedule(**slots)


def load_config_doc(path: str) -> dict:
    """Read a YAML config once.

    Returns the raw document, checked to be a mapping; `Scenario.from_doc`
    states which sections it needs.  yaml is imported here, so a run that
    reads no file does not load it.  libyaml's CSafeLoader parses when PyYAML
    was built with it: it shares SafeLoader's resolver and constructor, so
    the document is the same, only faster.
    """
    import yaml

    with open(path) as f:
        try:
            doc = yaml.load(f, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as e:
            raise ConfigurationError(f"{path} is not valid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config root must be a mapping: {path}")
    return doc
