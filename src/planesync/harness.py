"""Experiment runner: single runs, Monte Carlo campaigns, coin-model checks.

A scenario bundles the system parameters with an adversary choice, an
initial-state policy, and run-control knobs.  run_once simulates one seed
and reports when (if ever) the clock ensemble stabilizes; run_monte_carlo
fans seeds out over worker processes, joins them in seed order, and reduces
the results to a summary with one-sided binomial lower confidence bounds
against the theoretical floors.  The coin-model mode replays only the coin
tosses and lifetime bookkeeping, isolating the probabilistic claim from the
protocol dynamics.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import deque
from dataclasses import dataclass, asdict, field, replace
from fractions import Fraction
from itertools import chain, repeat
from random import Random
from typing import Iterable, Iterator, Optional, TextIO, Union

from .adversaries import BUILTINS, make_adversary
from .errors import ConfigurationError
from .params import (
    Resolved,
    SystemParams,
    TTSchedule,
    as_int,
    checked_section,
    load_config_doc,
    parse_schedule_section,
    parse_system_section,
    resolve,
)
from .ftcore import below
from .protocol import grandmaster_toss
from .simnet import INIT_POLICIES, TRACE_LEVELS, World, derive_seed, sync_check

__all__ = [
    "Scenario",
    "reference_scenario",
    "RunResult",
    "StatsSummary",
    "CoinModelSummary",
    "run_once",
    "run_monte_carlo",
    "table",
    "lemma1_coin_model",
    "resync_points",
    "ResyncScan",
    "lower_confidence_bound",
]


# ---- scenario ----------------------------------------------------------------


_SECTIONS = {"system", "schedule", "adversary", "init", "run"}
_RUN_KEYS = {"horizon", "confirm", "stop_after_confirm", "trace", "eps0_check"}


@dataclass(frozen=True)
class Scenario:
    """Everything one experiment needs besides the seed."""

    params: SystemParams
    sched: TTSchedule
    adversary: str = "silent"
    init: str = "random"
    horizon: int = 1000                 # max simulated windows
    confirm: Optional[int] = None       # consecutive good windows; default g0+1
    stop_after_confirm: bool = True
    eps0_check: Optional[int] = None    # precision bound checked; default eps0
    trace_level: str = "off"
    # Resolved once, which checks every static invariant; every run of a
    # campaign reads this one.
    resolved: Resolved = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "resolved", resolve(self.params, self.sched))
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1: {self.horizon}")
        if self.confirm is not None and self.confirm < 1:
            raise ConfigurationError(f"confirm must be >= 1: {self.confirm}")
        if self.eps0_check is not None and self.eps0_check < 0:
            raise ConfigurationError(f"eps0_check must be >= 0: {self.eps0_check}")
        if self.adversary not in BUILTINS:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; built-ins: {sorted(BUILTINS)}")
        if self.init not in INIT_POLICIES:
            raise ConfigurationError(f"unknown initial-state policy {self.init!r}")
        if self.trace_level not in TRACE_LEVELS:
            raise ConfigurationError(f"unknown trace level {self.trace_level!r}")

    def confirm_windows(self, rp: Resolved) -> int:
        return self.confirm if self.confirm is not None else rp.dv.g0 + 1

    @classmethod
    def from_doc(cls, doc: dict, **overrides) -> "Scenario":
        unknown = set(doc) - _SECTIONS
        if unknown:
            raise ConfigurationError(f"unknown sections: {sorted(unknown)}")
        kwargs: dict = {"params": parse_system_section(doc.get("system", {})),
                        "sched": parse_schedule_section(doc.get("schedule", {}))}
        adv = checked_section(doc.get("adversary"), "adversary", ("name", "params"),
                              optional=True)
        if adv.get("params"):
            raise ConfigurationError("adversary params: no built-in adversary takes parameters")
        if "name" in adv:
            if not isinstance(adv["name"], str):
                raise ConfigurationError(f"adversary name must be a string: {adv['name']!r}")
            kwargs["adversary"] = adv["name"]
        if "init" in doc:
            kwargs["init"] = doc["init"]
        run = checked_section(doc.get("run"), "run", _RUN_KEYS, optional=True)
        for k in ("horizon", "confirm", "eps0_check"):
            if run.get(k) is not None:
                kwargs[k] = as_int(run[k], f"run key {k}")
        stop = run.get("stop_after_confirm")
        if stop is not None:
            if not isinstance(stop, bool):
                raise ConfigurationError(
                    f"run key stop_after_confirm must be true or false: {stop!r}")
            kwargs["stop_after_confirm"] = stop
        if run.get("trace") is not None:
            kwargs["trace_level"] = run["trace"]
        kwargs.update(overrides)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Optional[str] = None, **overrides) -> "Scenario":
        return cls.from_doc(load_config_doc(path), **overrides)


def reference_scenario(**overrides) -> Scenario:
    """The desk-scale reference setup, mirrored in scenarios/reference.yaml.

    T0 is chosen so the full cycle T = T0 + eps2 = 128 divides tau_max; a
    nonuniform wrap cycle trips the accuracy filters once per revolution.
    """
    params = SystemParams(
        n0=4, n1=3, f0=1, f1=1, tau_max=4096,
        T_H=Fraction(1), rho=Fraction(1, 1000), d_max=Fraction(2),
        T0=74, a0=3, eps_rnd=Fraction(1, 2),
    )
    sched = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24),
                       c_send=(30, 34), c_recv=(38, 48))
    kwargs: dict = {"params": params, "sched": sched}
    kwargs.update(overrides)
    return Scenario(**kwargs)


# ---- per-run result ----------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Outcome of one seeded simulation.

    stabilization_window is the first window index from which the verdict
    held for the full confirmation horizon; absent means the run exhausted
    its horizon without ever confirming.
    """

    seed: int
    stabilization_window: Optional[int]
    windows_run: int
    max_precision: int                       # worst pairwise deviation, ticks
    max_precision_after_stb: Optional[int]   # same, from stabilization on
    n_violations: int                        # windows failing the verdict
    first_violation: Optional[int]
    resync_point_count: int
    attempts: int                            # resync points before stabilization
    successes: int                           # attempts confirmed within g0+1 windows
    resync_windows: int                      # windows containing >= 1 resync point
    trace_path: Optional[str] = None         # file name, relative to the result

    def to_record(self) -> dict:
        return asdict(self)


class ResyncScan:
    """The rule of resync_points, applied one coin toss at a time, in log
    order, as the tosses are fed.

    A head waits for the next toss of each of its witnesses, the other
    nodes that held lifetime 0 going into it: it is a point once one of
    them tosses a tail, and it is not once all of them have tossed a head.
    """

    def __init__(self, nodes: list[int], initial_gl: dict[int, int]) -> None:
        self._life = {q: initial_gl[q] for q in nodes}    # after q's last toss
        self._t: Optional[int] = None                     # the current instant
        self._into = dict(self._life)                     # going into it
        # Heads in log order: [t, node, witnesses yet to toss, confirmed].
        self._heads: deque[list] = deque()

    def feed(self, tosses: Iterable[tuple[int, int, int, int]]) -> Iterator[tuple[int, int]]:
        """Scan tosses, each (t, node, coin, lifetime after), in log order,
        and yield each point (t, node) as it is decided, in log order.  The
        scan runs only as its points are drawn: a caller draws them all
        before it feeds more or ends the log."""
        life, heads = self._life, self._heads
        for t, node, coin, gl in tosses:
            if node not in life:
                continue
            if t != self._t:
                self._t, self._into = t, dict(life)
            for head in heads:
                if head[0] == t:        # the heads from here on share this instant
                    break
                if node in head[2]:     # its first toss after the head
                    if coin == 0:
                        head[2].clear()
                        head[3] = True
                    else:
                        head[2].discard(node)
            while heads and not heads[0][2]:
                head = heads.popleft()
                if head[3]:
                    yield head[0], head[1]
            life[node] = gl
            if coin == 1:
                witnesses = {q for q, g in self._into.items() if q != node and g == 0}
                if witnesses:
                    heads.append([t, node, witnesses, False])

    def end(self) -> Iterator[tuple[int, int]]:
        """The log ends: yield the heads already confirmed, and drop those
        still waiting."""
        yield from ((head[0], head[1]) for head in self._heads if head[3])
        self._heads.clear()


def resync_points(toss_log: Iterable[tuple[int, int, int, int]],
                  nodes: list[int],
                  initial_gl: dict[int, int]) -> list[tuple[int, int]]:
    """Extract resynchronization points from a coin-toss log.

    A log entry is (time, node, coin, lifetime_after).  Time t is a point
    iff some node tosses a head at t while some other node held lifetime 0
    going into t and its first toss strictly after t is a tail (so its
    lifetime stays 0 through the exchanging window containing that toss).
    Head tosses whose witness cannot be confirmed inside the log (no later
    toss) are not counted.
    """
    scan = ResyncScan(nodes, initial_gl)
    return [*scan.feed(toss_log), *scan.end()]


class _PointTally:
    """The resynchronization point fields of a RunResult, from the points'
    windows, which `waiting` takes in log order.  A point waits only until
    it is known whether it is an attempt (before stabilization) and a
    success (also at most g0 + 1 windows before it)."""

    def __init__(self, g0: int) -> None:
        self.g0 = g0
        self.points = self.windows = self.attempts = self.successes = 0
        self.last = -1                          # the last counted point's window
        self.waiting: deque[int] = deque()

    def settle(self, stab: Optional[int], earliest: float) -> None:
        """Count the waiting points that can be: each, once stab is known;
        before, those too early to succeed, given the earliest stab can be."""
        waiting, cut = self.waiting, earliest - self.g0 - 1
        while waiting and (stab is not None or waiting[0] < cut):
            w = waiting.popleft()
            self.points += 1
            self.windows += w != self.last
            self.last = w
            if stab is None or w < stab:
                self.attempts += 1
                self.successes += stab is not None and w >= stab - self.g0 - 1


CHECK_BLOCK = 32   # most windows one sync_check call checks


def run_once(sc: Scenario, seed: int,
             trace_path: Union[str, TextIO, None] = None) -> RunResult:
    """Simulate one seed; see RunResult for the verdict semantics.  With
    trace_path, the run's trace is written to that file, or to that open
    text stream (replay compares a re-run's trace as it comes), one check
    block at a time; a run that raises leaves no file."""
    if trace_path is None or hasattr(trace_path, "write"):
        return _run(sc, seed, trace_path)
    sink = open(trace_path, "w")     # outside the try: a file not opened is not removed
    try:
        with sink:
            result = _run(sc, seed, sink)
    except BaseException:
        os.remove(trace_path)
        raise
    return replace(result, trace_path=os.path.basename(trace_path))


def _run(sc: Scenario, seed: int, sink: Optional[TextIO]) -> RunResult:
    """run_once with its trace, if any, written to the open stream `sink`.
    The run holds no more than one block: each block's trace records are
    written and dropped, its coin tosses scanned and dropped, the tracks
    forget the jumps before its end, and only the points of its last
    confirm + g0 + 1 windows wait to be classified."""
    rp = sc.resolved
    # A trace is built only to be written, at level core or finer.
    level = "off" if sink is None else \
        (sc.trace_level if sc.trace_level != "off" else "core")
    world = World(rp, make_adversary(sc.adversary), seed=seed, init_policy=sc.init,
                  trace_level=level)
    initial_gl = {p: world.mws[p].grand_life for p in world.honest_planes}
    confirm = sc.confirm_windows(rp)

    run_len = 0
    run_max = 0         # worst deviation over the current run of good windows
    stab: Optional[int] = None
    max_dev = 0
    max_dev_stb: Optional[int] = None
    n_viol = 0
    first_viol: Optional[int] = None
    windows_run = 0

    tracks = world.qap_tracks()
    # Each block's coin tosses are scanned for resynchronization points and
    # dropped, and the points are counted.
    scan = ResyncScan(world.honest_planes, initial_gl)
    tally = _PointTally(rp.dv.g0)
    # Closing breaks the world's reference cycles, so it is freed as soon
    # as this call returns; its logs and trace stay readable.
    try:
        # Windows are simulated one by one and checked a block at a time.
        # While the run could still stop at confirmation, a block ends at
        # the first window where it could, so no window past the stop is
        # ever simulated.
        while windows_run < sc.horizon and not (sc.stop_after_confirm and stab is not None):
            size = min(CHECK_BLOCK, sc.horizon - windows_run)
            if sc.stop_after_confirm:
                size = min(size, confirm - run_len)
            block = range(windows_run, windows_run + size)
            for k in block:
                world.run_until_window(k + 1)
            if sink is not None:
                sink.write(world.trace.to_jsonl())
                world.trace.records.clear()
            tally.waiting += [t // world.window for t, _p in scan.feed(world.toss_log)]
            world.toss_log.clear()
            edges = [w * world.window for w in range(block[0], block[-1] + 2)]
            for k, (ok, dev) in zip(block, sync_check(tracks, edges, rp, world.L,
                                                      eps0=sc.eps0_check)):
                windows_run = k + 1
                max_dev = max(max_dev, dev)
                if stab is not None:
                    max_dev_stb = max(max_dev_stb, dev)
                if ok:
                    run_len += 1
                    run_max = max(run_max, dev)
                    if stab is None and run_len == confirm:
                        stab, max_dev_stb = k - confirm + 1, run_max
                else:
                    run_len = run_max = 0
                    n_viol += 1
                    if first_viol is None:
                        first_viol = k
            for tr in tracks:
                tr.forget_before(edges[-1])
            tally.settle(stab, windows_run - run_len)   # at the earliest, the good run's start
    finally:
        world.close()
    tally.waiting += [t // world.window for t, _p in scan.end()]
    tally.settle(stab, math.inf)

    return RunResult(
        seed=seed,
        stabilization_window=stab,
        windows_run=windows_run,
        max_precision=max_dev,
        max_precision_after_stb=max_dev_stb,
        n_violations=n_viol,
        first_violation=first_viol,
        resync_point_count=tally.points,
        attempts=tally.attempts,
        successes=tally.successes,
        resync_windows=tally.windows,
    )


# ---- statistics ----------------------------------------------------------------


ALPHA = 0.01  # one-sided confidence level of every lower bound reported

_TINY = 1e-300  # keeps Lentz's divisors off zero


def _stirling_tail(x: float) -> float:
    """lgamma(x) minus (x - 1/2) ln x - x + ln(2 pi)/2, for x >= 10."""
    y = 1.0 / (x * x)
    return (1 / 12 - y * (1 / 360 - y * (1 / 1260 - y * (1 / 1680 - y * (
        1 / 1188 - y * (691 / 360360 - y / 156)))))) / x


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b).  For large b, lgamma(b) - lgamma(a + b) is a difference
    of two values near b ln b; Stirling's series gives it without that
    cancellation."""
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    s = a + b
    return (math.lgamma(a) + _stirling_tail(b) - _stirling_tail(s)
            + a - a * math.log(s) + (b - 0.5) * math.log1p(-a / s))


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method;
    it converges fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 100_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _reg_inc_beta(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta I_x(a, b) for 0 < x < 1."""
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x * (a + b + 2.0) < a + 1.0:
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def lower_confidence_bound(k: int, n: int, alpha: float = ALPHA) -> float:
    """One-sided Clopper-Pearson lower bound on a binomial proportion.

    The bound is the p at which P(X >= k; n, p) = I_p(k, n - k + 1) equals
    alpha.  Bisection halves [0, 1] until its ends are adjacent floats and
    returns the lower end, where the tail is still below alpha.
    """
    if n <= 0 or k <= 0:
        return 0.0
    if k >= n:
        return float(alpha ** (1.0 / n))
    a, b = float(k), float(n - k + 1)
    lo, hi = 0.0, 1.0
    while True:
        mid = (lo + hi) / 2
        if mid <= lo or mid >= hi:
            return lo
        if _reg_inc_beta(mid, a, b) < alpha:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class StatsSummary:
    """Campaign reduction; a pure function of the set of RunResults."""

    n_runs: int
    n_stabilized: int
    all_stabilized: bool
    stab_mean: Optional[float]
    stab_max: Optional[int]
    stab_mean_bound: float          # DerivedParams.stb_exp_windows (2/q1 + g0), windows
    stab_mean_ok: bool              # mean within the bound with 20% slack
    attempts: int
    successes: int
    attempt_freq: Optional[float]
    attempt_freq_lcb: float
    q1_bound: float
    attempt_freq_ok: bool           # lcb >= q1_bound (vacuous without attempts)
    resync_windows: int
    windows_total: int
    resync_window_freq: float
    max_precision_after_stb: Optional[int]
    n_violations: int
    incomplete: bool = False
    failed_seeds: tuple[int, ...] = ()
    failure_reasons: tuple[str, ...] = ()   # "<ExcType>: <message>", per failed seed

    def to_record(self) -> dict:
        """The summary's fields; a mean bound that is not finite (a scenario
        whose coin or branch probability leaves no derived bound) is None,
        which JSON writes as null."""
        rec = asdict(self)
        if not math.isfinite(self.stab_mean_bound):
            rec["stab_mean_bound"] = None
        return rec

    def table(self) -> str:
        rows = [
            ("runs", self.n_runs),
            ("stabilized", self.n_stabilized),
            ("all stabilized", self.all_stabilized),
            ("mean stabilization window", self.stab_mean),
            ("max stabilization window", self.stab_max),
            ("mean bound (2/q1 + g0)", f"{self.stab_mean_bound:.1f}"),
            ("mean within bound", self.stab_mean_ok),
            ("resync attempts", self.attempts),
            ("confirmed attempts", self.successes),
            ("attempt frequency", self.attempt_freq),
            (f"attempt frequency lcb (a={ALPHA})", f"{self.attempt_freq_lcb:.6f}"),
            ("theoretical q1 bound", f"{self.q1_bound:.6f}"),
            ("attempt bound satisfied", self.attempt_freq_ok),
            ("windows with resync point", f"{self.resync_windows}/{self.windows_total}"),
            ("per-window resync frequency", f"{self.resync_window_freq:.4f}"),
            ("max precision after stabilization", self.max_precision_after_stb),
            ("violation windows", self.n_violations),
            ("incomplete", self.incomplete),
        ]
        rows += [(f"failed seed {s}", why)
                 for s, why in zip(self.failed_seeds, self.failure_reasons)]
        return table(rows)


def table(rows: list[tuple[str, object]]) -> str:
    """Rows of `label  value`, each label padded to the longest, one per line."""
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def summarize(results: list[RunResult], rp: Resolved, failed_seeds: tuple[int, ...] = (),
              failure_reasons: tuple[str, ...] = ()) -> StatsSummary:
    """The campaign summary; it is incomplete when any seed failed."""
    incomplete = bool(failed_seeds)
    results = sorted(results, key=lambda r: r.seed)
    stabs = [r.stabilization_window for r in results if r.stabilization_window is not None]
    attempts = sum(r.attempts for r in results)
    successes = sum(r.successes for r in results)
    q1 = float(rp.dv.q1_bound)
    lcb = lower_confidence_bound(successes, attempts)
    stb_exp = rp.dv.stb_exp_windows
    mean_bound = float(stb_exp) if stb_exp is not None else math.inf
    stab_mean = sum(stabs) / len(stabs) if stabs else None
    devs = [r.max_precision_after_stb for r in results
            if r.max_precision_after_stb is not None]
    windows_total = sum(r.windows_run for r in results)
    resync_windows = sum(r.resync_windows for r in results)
    return StatsSummary(
        n_runs=len(results),
        n_stabilized=len(stabs),
        all_stabilized=len(stabs) == len(results) and not incomplete,
        stab_mean=stab_mean,
        stab_max=max(stabs) if stabs else None,
        stab_mean_bound=mean_bound,
        stab_mean_ok=stab_mean is not None and stab_mean <= mean_bound * 1.2,
        attempts=attempts,
        successes=successes,
        attempt_freq=successes / attempts if attempts else None,
        attempt_freq_lcb=lcb,
        q1_bound=q1,
        attempt_freq_ok=attempts == 0 or lcb >= q1,
        resync_windows=resync_windows,
        windows_total=windows_total,
        resync_window_freq=resync_windows / windows_total if windows_total else 0.0,
        max_precision_after_stb=max(devs) if devs else None,
        n_violations=sum(r.n_violations for r in results),
        incomplete=incomplete,
        failed_seeds=failed_seeds,
        failure_reasons=failure_reasons,
    )


def _run_seed(sc: Scenario, seed: int) -> Union[RunResult, str]:
    """A campaign's run of one seed: its result, or why it failed."""
    try:
        return run_once(sc, seed)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


_worker_scenario: Optional[Scenario] = None     # a campaign worker's scenario


def _init_worker(sc: Scenario) -> None:
    global _worker_scenario
    _worker_scenario = sc


def _run_chunk(seeds: list[int]) -> list[Union[RunResult, str]]:
    return [_run_seed(_worker_scenario, s) for s in seeds]


def run_monte_carlo(sc: Scenario, seeds: list[int],
                    jobs: int = 1) -> tuple[StatsSummary, list[RunResult]]:
    """Independent runs, one per seed, joined in seed order.

    A run that raises is recorded in failed_seeds, with its exception in
    failure_reasons, and marks the campaign incomplete rather than aborting
    the others.  With jobs > 1, each worker process gets the scenario once,
    when it starts, and the seeds in chunks, about four per worker.
    """
    if not seeds:
        raise ConfigurationError("a campaign needs at least one seed")
    if jobs < 1:
        raise ConfigurationError(f"a campaign needs at least one worker process: {jobs}")
    if len(seeds) != len(set(seeds)):
        raise ConfigurationError("duplicate seeds in campaign")
    outs: list[Union[RunResult, str]] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor     # a serial run never loads it

        size = -(-len(seeds) // (4 * jobs))
        chunks = [seeds[k:k + size] for k in range(0, len(seeds), size)]
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(sc,)) as ex:
            futs = [(chunk, ex.submit(_run_chunk, chunk)) for chunk in chunks]
            for chunk, fut in futs:
                try:
                    outs += fut.result()
                except Exception as e:      # the worker itself failed
                    outs += [f"{type(e).__name__}: {e}"] * len(chunk)
    else:
        outs = [_run_seed(sc, s) for s in seeds]
    results: list[RunResult] = []
    failed: list[int] = []
    reasons: list[str] = []
    for s, out in zip(seeds, outs):
        if isinstance(out, str):
            failed.append(s)
            reasons.append(out)
        else:
            results.append(out)
    summary = summarize(results, sc.resolved, failed_seeds=tuple(failed),
                        failure_reasons=tuple(reasons))
    return summary, results


# ---- coin-model mode -----------------------------------------------------------


@dataclass(frozen=True)
class CoinModelSummary:
    n_windows: int
    windows_with_point: int
    freq: float
    freq_lcb: float
    bound: float                # 2*q0*(1-q0)^g0
    ok: bool

    def to_record(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        return table([
            ("windows", self.n_windows),
            ("windows with point", self.windows_with_point),
            ("frequency", f"{self.freq:.4f}"),
            (f"frequency lcb (a={ALPHA})", f"{self.freq_lcb:.4f}"),
            ("theoretical bound", f"{self.bound:.4f}"),
            ("bound satisfied", self.ok),
        ])


def _coin_tosses(rp: Resolved, n_windows: int,
                 seed: int) -> Iterator[tuple[int, int, int, int]]:
    """The coin model's toss log, (t, node, coin, lifetime_after), drawn
    from the seed as it is read, so that it is never held whole."""
    T, horizon = rp.T, math.ceil(rp.dv.T_max * n_windows)
    rng = Random(derive_seed(seed, "coin-model"))
    phases = [below(rng, T) for _node in range(rp.n1 - rp.f1)]
    # Each node's toss instants, merged in (t, node) order.
    merged = heapq.merge(*(zip(range(phase, horizon, T), repeat(node))
                           for node, phase in enumerate(phases)))
    gl = [0] * len(phases)
    for t, node in merged:
        b, gl[node] = grandmaster_toss(gl[node], rng, rp)
        yield t, node, b, gl[node]


def lemma1_coin_model(rp: Resolved, n_windows: int, seed: int) -> CoinModelSummary:
    """Coin tosses and lifetime bookkeeping only, no network, by the
    switch's own rule (protocol.grandmaster_toss).

    Each of the nonfaulty coin holders tosses once per cycle of T ticks at
    a random phase; a window is T_max ticks.  The per-window frequency of
    resynchronization points is compared against its theoretical floor.
    The tosses are drawn and the points counted as they come, neither held;
    the points come in time order, so each window is counted at its first.
    """
    if n_windows < 1:
        raise ConfigurationError(f"need at least one window: {n_windows}")
    n = rp.n1 - rp.f1  # 2 or 3: resolve validates n1 == 3 > 2*f1
    g0, q0 = rp.dv.g0, rp.dv.q0
    t_max = rp.dv.T_max  # ticks, Fraction

    scan = ResyncScan(list(range(n)), dict.fromkeys(range(n), 0))
    k, last = 0, -1
    for t, _p in chain(scan.feed(_coin_tosses(rp, n_windows, seed)), scan.end()):
        w = t * t_max.denominator // t_max.numerator
        if last < w < n_windows:
            k, last = k + 1, w
    bound = float(2 * q0 * (1 - q0) ** g0)
    lcb = lower_confidence_bound(k, n_windows)
    return CoinModelSummary(
        n_windows=n_windows,
        windows_with_point=k,
        freq=k / n_windows,
        freq_lcb=lcb,
        bound=bound,
        ok=lcb >= bound,
    )
