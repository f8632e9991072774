"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line on the terminal.

Covers ring-algebra oracle equivalence, averaging contraction and
validity, condition-checker oracles, precision closure under every
built-in adversary, the coin-model frequency floor, stabilization
statistics at campaign scale, the closed-form constants, and bytewise
run determinism.
"""

import functools
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

import numpy as np
import pytest

from planesync.cli import main as cli_main
from planesync.ftcore import check_stb, check_weak, fta_values
from planesync.harness import (
    lemma1_coin_model,
    reference_scenario,
    run_monte_carlo,
)
from planesync.params import resolve
from planesync.ring import circ_sort, ring_dist, ring_med, wrap_add, wrap_sub

REF = reference_scenario()
RP = REF.resolved
ADVERSARIES = ("silent", "random_noise", "max_skew", "split_brain")
# Worker processes of the campaign criteria; a campaign's results do not
# depend on how many there are.
JOBS = min(4, os.cpu_count() or 1)


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL  {desc}", file=sys.__stdout__, flush=True)
                raise
            print(f"criterion {n}: PASS  {desc}", file=sys.__stdout__, flush=True)
        return wrapper
    return deco


# ---- brute-force oracles -------------------------------------------------------


def brute_add(a, b, tau):
    r = a + b
    while r >= tau:
        r -= tau
    while r < 0:
        r += tau
    return r


def brute_dist(a, b, tau):
    d = abs(a - b) % tau
    return min(d, tau - d)


def brute_sort(values, tau):
    """Minimal enclosing arc by trying every attained start value."""
    best = None
    for s in set(values):
        span = max((v - s) % tau for v in values)
        if best is None or (span, s) < best:
            best = (span, s)
    start = best[1]
    return sorted(values, key=lambda v: (v - start) % tau)


def brute_med(values, tau):
    ordered = brute_sort(values, tau)
    return ordered[(len(ordered) - 1) // 2]


def window_counts(C, rows, width, tau, anchors=None):
    """Columns fully inside [v, v+width] for the given rows, per anchor v."""
    ent = np.array([[-1 if e is None else e for e in C[p]] for p in rows])
    present = (ent >= 0).all(axis=0)
    v = np.arange(tau) if anchors is None else np.asarray(sorted(anchors))
    off = (ent[None, :, :] - v[:, None, None]) % tau
    ok = (off <= width).all(axis=1) & present[None, :]
    return v, ok.sum(axis=1)


def brute_stb(C, p_acma, rp):
    k = rp.n1 - rp.f1
    for rows in combinations(sorted(p_acma), k):
        _, counts = window_counts(C, rows, rp.eps1, rp.tau_max)
        if (counts >= rp.n0 - rp.f0).any():
            return True
    return False


def brute_weak(C, rp):
    k = rp.n1 - rp.f1
    half = rp.eps2 // 2
    starts = set()
    for rows in combinations(range(rp.n1), k):
        anchors = {C[p][i] for p in rows for i in range(rp.n0)
                   if C[p][i] is not None}
        if not anchors:
            continue
        v, counts = window_counts(C, rows, 2 * half, rp.tau_max, anchors)
        starts.update(int(x) for x in v[counts >= rp.n0 - 2 * rp.f0])
    if not starts:
        return None
    first = brute_sort(list(starts), rp.tau_max)[0]
    return (first + half) % rp.tau_max


# ---- criteria ------------------------------------------------------------------


@criterion(1, "ring algebra matches brute force")
def test_criterion_1_ring_algebra():
    for tau in range(2, 65):
        for a in range(tau):
            for b in range(tau):
                assert wrap_add(a, b, tau) == brute_add(a, b, tau)
                assert wrap_sub(a, b, tau) == brute_add(a, -b, tau)
                assert ring_dist(a, b, tau) == brute_dist(a, b, tau)

    # exhaustive medians where the input space is small enough, shuffled
    # so attained-value order carries no information
    shuffler = Random(7)
    budgets = {1: 64, 2: 64, 3: 32, 4: 14, 5: 9}
    for size, tau_cap in budgets.items():
        for tau in range(2, tau_cap + 1):
            for tup in combinations_with_replacement(range(tau), size):
                vals = list(tup)
                shuffler.shuffle(vals)
                assert circ_sort(vals, tau) == brute_sort(vals, tau)
                assert ring_med(vals, tau) == brute_med(vals, tau)

    # randomized sweep over the sizes the exhaustive pass cannot afford
    rng = Random(20260823)
    for _ in range(50_000):
        tau = rng.randrange(2, 65)
        vals = [rng.randrange(tau) for _ in range(rng.randrange(1, 6))]
        assert ring_med(vals, tau) == brute_med(vals, tau)


@criterion(2, "averaging contraction and validity")
def test_criterion_2_fta_contraction():
    tau, f0, diam = 64, 1, 21

    def sweep(n0, grid):
        c0 = (n0 - 2 * f0 - 1) // f0 + 1
        for rest in combinations_with_replacement(grid, n0 - 2):
            common = [0, *rest]
            delta = max(common)
            bound = -(-delta // c0)  # ceil
            outs = np.array([fta_values(common + [c], f0, tau)
                             for c in range(tau)])
            pos = outs % tau
            assert (pos <= delta).all(), (n0, common)  # validity: inside hull
            d = np.abs(outs[:, None] - outs[None, :])
            assert np.minimum(d, tau - d).max() <= bound, (n0, common)

    sweep(4, range(diam + 1))
    sweep(5, range(diam + 1))
    sweep(6, range(0, diam + 1, 3))
    sweep(7, range(0, diam + 1, 3))

    rng = Random(41)
    for _ in range(100_000):
        f = rng.randint(1, 3)
        n0 = rng.randint(3 * f + 1, 3 * f + 7)
        t = rng.choice([256, 1024, 4096])
        c0 = (n0 - 2 * f - 1) // f + 1
        base = rng.randrange(t)
        width = rng.randrange(t // 4)
        common = [wrap_add(base, rng.randrange(width + 1), t)
                  for _ in range(n0 - f)]
        ordered = circ_sort(common, t)
        span = (ordered[-1] - ordered[0]) % t
        bound = -(-span // c0)
        o1 = fta_values(common + [rng.randrange(t) for _ in range(f)], f, t)
        o2 = fta_values(common + [rng.randrange(t) for _ in range(f)], f, t)
        assert ring_dist(o1, o2, t) <= bound
        assert (o1 - ordered[0]) % t <= span
        assert (o2 - ordered[0]) % t <= span


@criterion(3, "condition checkers match subset-and-window enumeration")
def test_criterion_3_checker_oracles():
    rng = Random(29)
    tau = 48

    class Cfg:
        n1, f0, f1, tau_max = 3, 1, 1, tau

    for n0 in (4, 7):
        for _ in range(10_000):
            cfg = Cfg()
            cfg.n0 = n0
            cfg.eps1 = rng.randint(3, 9)
            cfg.eps2 = rng.randint(6, 18)
            base = rng.randrange(tau)
            C = []
            for _ in range(3):
                row = []
                for _ in range(n0):
                    r = rng.random()
                    if r < 0.15:
                        row.append(None)
                    elif r < 0.75:
                        row.append(wrap_add(base, rng.randrange(2 * cfg.eps1 + 1), tau))
                    else:
                        row.append(rng.randrange(tau))
                C.append(row)
            p_acma = frozenset(p for p in range(3) if rng.random() < 0.8)
            assert check_stb(list(zip(*C)), p_acma, cfg) == brute_stb(C, p_acma, cfg)
            assert check_weak(list(zip(*C)), cfg) == brute_weak(C, cfg)


@pytest.mark.slow
@criterion(4, "precision closure from a synchronized start, 20 seeds x 1000 windows")
def test_criterion_4_closure():
    dmt = RP.dv.d_max_ticks
    bound = math.floor(3 * (1 + RP.rho) * dmt)
    assert RP.eps0 == math.ceil(3 * (1 + RP.rho) * dmt)
    for adv in ADVERSARIES:
        sc = replace(REF, adversary=adv, init="synchronized", horizon=1000,
                     stop_after_confirm=False, eps0_check=bound)
        summary, results = run_monte_carlo(sc, list(range(20)), jobs=JOBS)
        assert not summary.incomplete, adv
        assert summary.n_violations == 0, adv
        assert all(r.windows_run == 1000 for r in results), adv


@pytest.mark.slow
@criterion(5, "coin-model resynchronization frequency floor at 1e5 windows")
def test_criterion_5_coin_model():
    s = lemma1_coin_model(RP, n_windows=100_000, seed=0)
    bound = float(2 * RP.dv.q0 * (1 - RP.dv.q0) ** RP.dv.g0)
    assert s.bound == pytest.approx(bound)
    assert s.freq_lcb >= s.bound
    assert s.ok


@pytest.mark.slow
@criterion(6, "stabilization from random starts, 500 seeds per adversary")
def test_criterion_6_stabilization():
    for adv in ADVERSARIES:
        sc = replace(REF, adversary=adv, init="random", horizon=10_000)
        summary, _results = run_monte_carlo(sc, list(range(500)), jobs=JOBS)
        assert summary.all_stabilized, adv
        assert summary.attempts > 0 and summary.attempt_freq_ok, adv
        assert summary.stab_mean_ok, adv


@criterion(7, "closed-form derived constants")
def test_criterion_7_derivation(q1_floor):
    dv = RP.dv
    assert dv.q0 == Fraction(1, 2 * dv.g0 + 1)
    assert dv.p0 == 1 - Fraction(1, dv.g0 + 1)
    assert dv.q1_bound == dv.q0 * (1 - dv.q0) ** (2 * dv.g0) * \
        dv.p0 ** dv.g0 * (1 - dv.p0) / 2

    # enough terminals that a single exchange contracts below eps0
    big = resolve(replace(REF.params, n0=13), REF.sched)
    assert big.dv.k0 == 1
    assert big.dv.g0 == REF.params.a0 + 1 == 4
    assert big.dv.q0 == Fraction(1, 9) and big.dv.p0 == Fraction(4, 5)
    floor = q1_floor(big.dv.g0)
    assert floor == pytest.approx(1 / (90 * math.e ** 2), rel=1e-15)
    assert floor <= float(big.dv.q1_bound)


@criterion(8, "bytewise determinism of seeded runs")
def test_criterion_8_determinism(tmp_path):
    seeds = Random(97).sample(range(1_000_000), 10)
    for adv in ADVERSARIES:
        for s in seeds:
            outputs = []
            for rep in range(2):
                d = tmp_path / f"{adv}_{s}_{rep}"
                rc = cli_main(["run", "--seed", str(s), "--adversary", adv,
                               "--horizon", "200", "--trace-level", "core",
                               "--out", str(d)])
                assert rc == 0
                outputs.append((
                    (d / f"result_seed{s}.json").read_bytes(),
                    (d / f"trace_seed{s}.jsonl").read_bytes(),
                ))
            assert outputs[0] == outputs[1], (adv, s)
