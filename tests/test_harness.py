"""Experiment-runner tests: scenario parsing, single-run verdicts,
campaign reduction, and the coin-model bound checker."""

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesync import adversaries, cli, harness, params, simnet
from planesync.cli import main as cli_main
from planesync.errors import ConfigurationError, SimulationError
from planesync.harness import (
    CoinModelSummary,
    ResyncScan,
    Scenario,
    lemma1_coin_model,
    lower_confidence_bound,
    reference_scenario,
    resync_points,
    run_monte_carlo,
    run_once,
    summarize,
)
from planesync.params import resolve

REF = reference_scenario()
RP = REF.resolved
G0 = RP.dv.g0
# The repo's own files, found from this file, not from the working directory.
ROOT = Path(__file__).resolve().parent.parent
REFERENCE_YAML = str(ROOT / "scenarios" / "reference.yaml")


def scenario(**kw):
    sys_kw = {k: kw.pop(k) for k in list(kw) if k in ("f0", "f1", "q0", "p0")}
    sc = reference_scenario(**kw)
    if sys_kw:
        sc = dataclasses.replace(sc, params=dataclasses.replace(sc.params, **sys_kw))
    return sc


class TestScenario:
    def test_reference_resolves(self):
        assert RP.T == 128 and RP.tau_max % RP.T == 0
        assert G0 == 7 and RP.dv.q0 == Fraction(1, 15)

    def test_resolved_once_per_scenario(self):
        sc = reference_scenario(adversary="max_skew")
        assert sc.resolved is sc.resolved
        assert sc.resolved == resolve(sc.params, sc.sched)
        other = dataclasses.replace(sc, horizon=5)
        assert other.resolved is not sc.resolved and other.resolved == sc.resolved

    def test_invariants_checked_once(self, monkeypatch):
        # Resolving checks the invariants once; derive works the eps values
        # out again from its own inputs, and the bundle is built only once.
        calls = {"validate": 0, "_resolve_eps": 0}
        for name in calls:
            real = getattr(params, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(params, name, counted)
        sc = Scenario.from_file(REFERENCE_YAML)
        assert calls == {"validate": 1, "_resolve_eps": 2}
        assert sc.resolved == RP and sc.resolved is sc.resolved
        assert calls == {"validate": 1, "_resolve_eps": 2}

    def test_confirm_default_is_g0_plus_1(self):
        assert REF.confirm_windows() == G0 + 1
        assert dataclasses.replace(REF, confirm=3).confirm_windows() == 3

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(REF, horizon=0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(REF, confirm=0)
        with pytest.raises(ConfigurationError):
            scenario(f0=2)  # n0 > 3*f0 fails
        for knob, name in [("adversary", "no_such_strategy"), ("init", "sideways"),
                           ("trace_level", "verbose")]:
            with pytest.raises(ConfigurationError, match=repr(name)):
                dataclasses.replace(REF, **{knob: name})

    def test_from_doc_roundtrip(self):
        doc = {
            "system": {"n0": 4, "n1": 3, "f0": 1, "f1": 1, "tau_max": 4096,
                       "T_H": 1, "rho": "1/1000", "d_max": 2, "T0": 74,
                       "a0": 3, "eps_rnd": "1/2"},
            "schedule": {"vc_send": [6, 10], "mc_recv": [14, 24],
                         "c_send": [30, 34], "c_recv": [38, 48]},
            "adversary": {"name": "max_skew", "params": {}},
            "init": "synchronized",
            "run": {"horizon": 50, "confirm": 4, "stop_after_confirm": False},
        }
        sc = Scenario.from_doc(doc)
        assert sc.params == REF.params and sc.sched == REF.sched
        assert sc.adversary == "max_skew" and sc.init == "synchronized"
        assert (sc.horizon, sc.confirm, sc.stop_after_confirm) == (50, 4, False)

    def test_from_doc_rejects_unknown_keys(self):
        base = {
            "system": {"n0": 4, "n1": 3, "f0": 1, "f1": 1, "tau_max": 4096,
                       "T_H": 1, "rho": "1/1000", "d_max": 2, "T0": 74, "a0": 3},
            "schedule": {"vc_send": [6, 10], "mc_recv": [14, 24],
                         "c_send": [30, 34], "c_recv": [38, 48]},
        }
        with pytest.raises(ConfigurationError):
            Scenario.from_doc({**base, "adversary": {"name": "silent", "typo": 1}})
        with pytest.raises(ConfigurationError):
            Scenario.from_doc({**base, "run": {"horizn": 10}})

    def test_from_doc_rejects_adversary_params(self):
        doc = {"system": dataclasses.asdict(REF.params),
               "schedule": dataclasses.asdict(REF.sched)}
        for empty in ({}, None):
            adv = {"name": "max_skew", "params": empty}
            assert Scenario.from_doc({**doc, "adversary": adv}).adversary == "max_skew"
        with pytest.raises(ConfigurationError, match="no built-in adversary takes parameters"):
            Scenario.from_doc({**doc, "adversary": {"name": "max_skew", "params": {"bias": 3}}})

    # Whole sections replaced, which TestValidateCli's one-line edits of
    # scenarios/reference.yaml cannot express.
    @pytest.mark.parametrize("key, value, why", [
        ("system", 5, "system section must be a mapping: 5"),
        ("system", None, "system section must be a mapping: None"),
        ("schedule", [6, 10], "schedule section must be a mapping: [6, 10]"),
        ("run", 5, "run section must be a mapping: 5"),
    ])
    def test_from_doc_rejects_misshapen_sections(self, key, value, why):
        doc = {"system": dataclasses.asdict(REF.params),
               "schedule": dataclasses.asdict(REF.sched)}
        with pytest.raises(ConfigurationError) as e:
            Scenario.from_doc({**doc, key: value})
        assert str(e.value) == why

    def test_from_doc_takes_null_optional_sections(self):
        doc = {"system": dataclasses.asdict(REF.params),
               "schedule": dataclasses.asdict(REF.sched)}
        assert Scenario.from_doc({**doc, "adversary": None, "run": None}) == REF

    @pytest.mark.parametrize("section", ["system", "schedule"])
    def test_from_doc_needs_system_and_schedule(self, section):
        # A document built in Python is refused as a file would be.
        doc = params.load_config_doc(REFERENCE_YAML)
        del doc[section]
        with pytest.raises(ConfigurationError) as e:
            Scenario.from_doc(doc)
        assert str(e.value) == "config must contain 'system' and 'schedule' sections"

    def test_reference_file_matches_builtin(self):
        sc = Scenario.from_file(REFERENCE_YAML)
        assert sc == REF

    def test_from_file_parses_the_system_section_once(self, monkeypatch):
        calls = []
        parse = params.parse_system_section

        def counted(data):
            calls.append(data)
            return parse(data)

        # Both the loader's module and the harness's imported name.
        monkeypatch.setattr(params, "parse_system_section", counted)
        monkeypatch.setattr(harness, "parse_system_section", counted)
        assert Scenario.from_file(REFERENCE_YAML) == REF
        assert len(calls) == 1


class TestResyncPoints:
    # log entries are (time, node, coin, lifetime_after)

    def test_head_with_idle_witness(self):
        log = [(10, 0, 1, G0), (20, 1, 0, 0)]
        assert resync_points(log, [0, 1], {0: 0, 1: 0}) == [(10, 0)]

    def test_witness_head_disqualifies(self):
        log = [(10, 0, 1, G0), (20, 1, 1, G0)]
        assert resync_points(log, [0, 1], {0: 0, 1: 0}) == []

    def test_witness_lifetime_must_be_zero(self):
        log = [(5, 1, 1, G0), (10, 0, 1, G0), (20, 1, 0, G0 - 1)]
        # node 1 holds lifetime g0 going into t=10, so t=10 is not a point
        assert resync_points(log, [0, 1], {0: 0, 1: 0}) == []

    def test_initial_lifetime_used_before_first_toss(self):
        log = [(10, 0, 1, G0), (20, 1, 0, 2)]
        assert resync_points(log, [0, 1], {0: 0, 1: 3}) == []
        assert resync_points(log, [0, 1], {0: 0, 1: 0}) == [(10, 0)]

    def test_unconfirmed_tail_of_log(self):
        # no witness toss after the head: cannot confirm, not counted
        log = [(20, 1, 0, 0), (30, 0, 1, G0)]
        assert resync_points(log, [0, 1], {0: 0, 1: 0}) == []

    def test_one_witness_suffices(self):
        log = [(10, 0, 1, G0), (12, 1, 1, G0), (14, 2, 0, 0)]
        # node 2 witnesses both heads; node 1's own head cannot witness
        pts = resync_points(log, [0, 1, 2], {0: 0, 1: 0, 2: 0})
        assert pts == [(10, 0), (12, 1)]


def reference_resync_points(toss_log: list[tuple[int, int, int, int]],
                            nodes: list[int],
                            initial_gl: dict[int, int]) -> list[tuple[int, int]]:
    """resync_points as it was before ResyncScan, verbatim but for its name
    and this paragraph: every node's tosses listed, then each head checked
    by bisection against the other nodes' lists.  The oracle of the
    streamed scan.

    A log entry is (time, node, coin, lifetime_after).  Time t is a point
    iff some node tosses a head at t while some other node held lifetime 0
    going into t and its first toss strictly after t is a tail (so its
    lifetime stays 0 through the exchanging window containing that toss).
    Head tosses whose witness cannot be confirmed inside the log (no later
    toss) are not counted.
    """
    times: dict[int, list[int]] = {q: [] for q in nodes}
    coins: dict[int, list[int]] = {q: [] for q in nodes}
    lifes: dict[int, list[int]] = {q: [] for q in nodes}
    for t, q, b, gl in toss_log:
        if q in times:
            times[q].append(t)
            coins[q].append(b)
            lifes[q].append(gl)
    points: list[tuple[int, int]] = []
    for t, p, b, _gl in toss_log:
        if b != 1 or p not in times:
            continue
        for q in nodes:
            if q == p:
                continue
            i = bisect_left(times[q], t)
            prev_gl = lifes[q][i - 1] if i > 0 else initial_gl[q]
            j = bisect_right(times[q], t)
            if prev_gl == 0 and j < len(times[q]) and coins[q][j] == 0:
                points.append((t, p))
                break
    return points


def _scanned(log, nodes, initial_gl, cuts):
    """The points of a ResyncScan fed `log` in pieces, cut before each index
    in `cuts`, the points each piece yields collected before the next is
    fed, as run_once does after each block."""
    scan, points = ResyncScan(nodes, initial_gl), []
    for lo, hi in zip([0, *cuts], [*cuts, len(log)]):
        points += scan.feed(log[lo:hi])
    return points + list(scan.end())


@st.composite
def toss_logs(draw):
    """A toss log in time order by nodes 0 to 3, of which `nodes` count:
    several tosses at one instant, heads that no witness toss follows, and
    lifetimes from 0 to 2, the initial ones too; and cuts into pieces."""
    nodes = draw(st.sampled_from([[0, 1], [0, 1, 2], [1, 2, 3], [0, 2]]))
    initial_gl = {q: draw(st.integers(0, 2)) for q in nodes}
    t, log = 0, []
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.sampled_from([0, 0, 1, 5]))
        log.append((t, draw(st.integers(0, 3)), draw(st.integers(0, 1)),
                    draw(st.integers(0, 2))))
    cuts = sorted(draw(st.lists(st.integers(0, len(log)), max_size=4)))
    return log, nodes, initial_gl, cuts


class TestResyncScan:
    """The streamed scan finds the points the whole-log rule finds, in the
    same order, however the log is cut."""

    def test_matches_the_whole_log_rule(self):
        found = shared = unconfirmed = 0

        @settings(derandomize=True, max_examples=400, deadline=None)
        @given(toss_logs())
        def check(case):
            nonlocal found, shared, unconfirmed
            log, nodes, initial_gl, cuts = case
            want = reference_resync_points(log, nodes, initial_gl)
            assert resync_points(log, nodes, initial_gl) == want
            assert _scanned(log, nodes, initial_gl, cuts) == want
            found += len(want)
            shared += any(a[0] == b[0] and a[1] != b[1] and a[2] == 1
                          for a, b in zip(log, log[1:]))
            if log:     # a tail by every node after the log would confirm more
                tails = [(log[-1][0] + 1, q, 0, 0) for q in nodes]
                unconfirmed += len(reference_resync_points(log + tails, nodes,
                                                           initial_gl)) > len(want)

        check()
        # Not vacuous: points, heads sharing their instant with another
        # node's toss, and heads a later tail would have confirmed.
        assert found > 100 and shared > 50 and unconfirmed > 20

    @pytest.mark.parametrize("init", ["synchronized", "random"])
    @pytest.mark.parametrize("adv", sorted(adversaries.BUILTINS))
    def test_recorded_logs(self, adv, init):
        # A run's whole log, cut at its check blocks and at every window.
        w = simnet.World(RP, adversaries.make_adversary(adv), seed=3, init_policy=init,
                         trace_level="off")
        initial_gl = {p: w.mws[p].grand_life for p in w.honest_planes}
        w.run_until_window(80)
        w.close()
        log, nodes = w.toss_log, w.honest_planes
        want = reference_resync_points(log, nodes, initial_gl)
        assert want and resync_points(log, nodes, initial_gl) == want
        for block in (harness.CHECK_BLOCK, 1):
            cuts = [next((i for i, toss in enumerate(log) if toss[0] >= k * w.window), len(log))
                    for k in range(block, 80, block)]
            assert _scanned(log, nodes, initial_gl, cuts) == want

    @pytest.mark.parametrize("init", ["synchronized", "random"])
    @pytest.mark.parametrize("adv", sorted(adversaries.BUILTINS))
    def test_run_counts_the_points_of_its_log(self, adv, init):
        # run_once keeps only the points' windows.  A run that stops at
        # confirmation ends inside a block, and one with no stop after two
        # full blocks and a short one.
        for horizon, stop in ((70, False), (200, True)):
            sc = scenario(adversary=adv, init=init, horizon=horizon, stop_after_confirm=stop)
            for seed in (0, 1):
                r = run_once(sc, seed)
                assert r.windows_run % harness.CHECK_BLOCK != 0
                w = simnet.World(RP, adversaries.make_adversary(adv), seed=seed,
                                 init_policy=init, trace_level="off")
                initial_gl = {p: w.mws[p].grand_life for p in w.honest_planes}
                w.run_until_window(r.windows_run)
                w.close()
                windows = [t // w.window for t, _p in
                           reference_resync_points(w.toss_log, w.honest_planes, initial_gl)]
                stab = r.stabilization_window
                before = [v for v in windows if stab is None or v < stab]
                assert (r.resync_point_count, r.resync_windows, r.attempts, r.successes) == (
                    len(windows), len(set(windows)), len(before),
                    sum(stab is not None and stab <= v + G0 + 1 for v in before))


    def test_run_tallies_the_points_it_draws(self, monkeypatch):
        # run_once counts the points as the scan yields them and holds only
        # those not yet classified: its four fields equal the formula over
        # the list of every yielded point's window.  A tight precision bound
        # makes runs that stabilize late or never.
        points, windows = [], []

        class Recording(ResyncScan):
            def feed(self, tosses):
                for point in super().feed(tosses):
                    points.append(point)
                    yield point

            def end(self):
                for point in super().end():
                    points.append(point)
                    yield point

        class Spy(harness.World):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                windows.append(self.window)

        monkeypatch.setattr(harness, "ResyncScan", Recording)
        monkeypatch.setattr(harness, "World", Spy)
        never = late = after = 0
        for adv, init, stop, eps0 in itertools.product(
                sorted(adversaries.BUILTINS), ("synchronized", "random"), (True, False),
                (None, 1)):
            sc = scenario(adversary=adv, init=init, horizon=40, stop_after_confirm=stop,
                          eps0_check=eps0)
            for seed in range(30):
                points.clear()
                windows.clear()
                r = run_once(sc, seed)
                [window] = windows
                point_windows = [t // window for t, _p in points]
                stab = r.stabilization_window
                attempts = [w for w in point_windows if stab is None or w < stab]
                assert (r.resync_point_count, r.resync_windows, r.attempts, r.successes) == (
                    len(point_windows), len(set(point_windows)), len(attempts),
                    sum(stab is not None and stab <= w + G0 + 1 for w in attempts))
                never += stab is None and bool(attempts)
                late += len(attempts) - r.successes if stab is not None else 0
                after += len(point_windows) - len(attempts)
        # Not vacuous: runs that never stabilize, attempts too early to
        # succeed before a late stabilization, and points after it.
        assert never and late and after


class TestRunOnce:
    def test_trace_built_only_to_be_written(self, monkeypatch, tmp_path):
        def refuse(self, line):
            raise AssertionError(f"trace record built with no trace file: {line}")

        sc = scenario(trace_level="full", horizon=3)
        path = tmp_path / "trace.jsonl"
        run_once(sc, 1, trace_path=str(path))
        assert path.read_text()
        monkeypatch.setattr(simnet.Trace, "add", refuse)
        assert run_once(sc, 1).windows_run == 3

    def test_synchronized_fault_free_start_is_stable_from_window_zero(self):
        sc = scenario(init="synchronized", horizon=G0 + 3)
        for seed in (0, 1, 2):
            r = run_once(sc, seed)
            assert r.stabilization_window == 0
            assert r.n_violations == 0 and r.first_violation is None
            assert r.max_precision <= RP.eps0

    def test_no_faults_random_start_stabilizes(self):
        sc = scenario(f0=0, f1=0, init="random", horizon=60)
        for seed in (0, 1, 2):
            r = run_once(sc, seed)
            assert r.stabilization_window is not None
            assert r.max_precision_after_stb <= RP.eps0

    def test_random_start_stabilizes_under_every_builtin(self):
        for adv in ("silent", "random_noise", "max_skew", "split_brain"):
            r = run_once(scenario(adversary=adv, horizon=80), seed=11)
            assert r.stabilization_window is not None, adv

    def test_no_coins_means_no_resync_points(self):
        sc = scenario(q0=Fraction(0), adversary="max_skew", horizon=30)
        rp = sc.resolved
        assert rp.dv.q1_bound == 0
        for seed in (0, 1):
            r = run_once(sc, seed)
            assert r.resync_point_count == 0
            assert r.attempts == 0 and r.resync_windows == 0

    def test_stabilization_monotone_in_confirmation_horizon(self):
        # a verdict confirmed over c windows is confirmed over any c' <= c
        for seed in (3, 4, 5):
            stabs = []
            for confirm in (2, G0 + 1, G0 + 5):
                sc = scenario(horizon=60, confirm=confirm,
                              stop_after_confirm=False)
                stabs.append(run_once(sc, seed).stabilization_window)
            assert all(s is not None for s in stabs)
            assert stabs[0] <= stabs[1] <= stabs[2]

    def test_counters_are_consistent(self):
        sc = scenario(horizon=40, stop_after_confirm=False)
        r = run_once(sc, seed=7)
        assert r.windows_run == 40
        assert r.successes <= r.attempts <= r.resync_point_count
        assert r.resync_windows <= r.resync_point_count
        if r.stabilization_window is not None:
            assert r.max_precision_after_stb <= r.max_precision

    def test_split_brain_with_a_negative_bias_runs(self):
        # eps0 = eps1 = 1, eps2 = 2 passes validate, and split_brain's upper
        # bias bias_lo + 2*eps0 - 4 is then -2: like any value a faulty plane
        # sends, it is wrapped onto the ring.
        sc = reference_scenario(adversary="split_brain", horizon=30, stop_after_confirm=False)
        sc = dataclasses.replace(sc, params=dataclasses.replace(sc.params, eps0=1, eps1=1,
                                                                 eps2=2))
        assert run_once(sc, 0).windows_run == 30

    def test_same_seed_same_result(self):
        sc = scenario(horizon=15)
        assert run_once(sc, 9) == run_once(sc, 9)

    @pytest.mark.parametrize("adv", ["silent", "random_noise", "max_skew", "split_brain"])
    def test_world_freed_by_reference_counting(self, adv, monkeypatch):
        # Pending events and the adversary refer back to the world; run_once
        # must break those cycles so the world dies without the collector.
        refs = []

        class Spy(harness.World):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(harness, "World", Spy)
        sc = scenario(adversary=adv, horizon=5, stop_after_confirm=False)
        gc.disable()
        try:
            run_once(sc, seed=1)
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()


def per_window_run(sc, seed):
    """run_once as it was before blocks: one sync_check call per window,
    right after simulating it.  Kept as the oracle of the block loop."""
    rp = sc.resolved
    world = harness.World(rp, adversaries.make_adversary(sc.adversary), seed=seed,
                          init_policy=sc.init, trace_level="off")
    initial_gl = {p: world.mws[p].grand_life for p in world.honest_planes}
    confirm = sc.confirm_windows()
    run_len, stab, n_viol, first_viol, devs = 0, None, 0, None, []
    tracks = world.qap_tracks()
    for k in range(sc.horizon):
        world.run_until_window(k + 1)
        [(ok, dev)] = simnet.sync_check(tracks, [k * world.window, (k + 1) * world.window],
                                        rp, world.L, eps0=sc.eps0_check)
        devs.append(dev)
        if ok:
            run_len += 1
            if stab is None and run_len == confirm:
                stab = k - confirm + 1
                if sc.stop_after_confirm:
                    break
        else:
            run_len = 0
            n_viol += 1
            if first_viol is None:
                first_viol = k
    world.close()
    points = resync_points(world.toss_log, world.honest_planes, initial_gl)
    attempts = successes = 0
    for t, _p in points:
        w = t // world.window
        if stab is not None and w >= stab:
            continue
        attempts += 1
        if stab is not None and stab <= w + G0 + 1:
            successes += 1
    return harness.RunResult(
        seed=seed, stabilization_window=stab, windows_run=len(devs), max_precision=max(devs),
        max_precision_after_stb=max(devs[stab:]) if stab is not None else None,
        n_violations=n_viol, first_violation=first_viol, resync_point_count=len(points),
        attempts=attempts, successes=successes,
        resync_windows=len({t // world.window for t, _p in points}))


class TestBlockRun:
    @pytest.mark.parametrize("stop", [True, False])
    @pytest.mark.parametrize("init", ["synchronized", "random"])
    @pytest.mark.parametrize("adv", ["silent", "random_noise", "max_skew", "split_brain"])
    def test_matches_the_per_window_loop(self, adv, init, stop):
        # 70 windows: two full blocks and a short one when nothing stops the run.
        sc = scenario(adversary=adv, init=init, horizon=70, stop_after_confirm=stop)
        for seed in (0, 1, 2):
            assert run_once(sc, seed).to_record() == per_window_run(sc, seed).to_record()

    def test_confirmation_cuts_the_blocks(self):
        # Violations first, then a stop at confirmation, so the blocks are cut
        # short; with confirm = 3 as well.
        for sc in (scenario(horizon=90), scenario(horizon=90, confirm=3)):
            for seed in (3, 4):
                r = run_once(sc, seed)
                assert r.n_violations > 0 and r.stabilization_window is not None
                assert r == per_window_run(sc, seed)

    @pytest.mark.parametrize("adv", ["silent", "max_skew"])
    def test_no_window_past_the_stop_is_simulated(self, adv, monkeypatch):
        calls = []

        class Counted(harness.World):
            def run_until_window(self, w):
                calls.append(w)
                super().run_until_window(w)

        monkeypatch.setattr(harness, "World", Counted)
        for init in ("synchronized", "random"):
            for seed in (0, 5):
                calls.clear()
                r = run_once(scenario(adversary=adv, init=init, horizon=200), seed)
                assert r.stabilization_window is not None
                assert calls == list(range(1, r.windows_run + 1))


class _Sink:
    """A trace stream that keeps each write."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


class TestStreamedRun:
    """run_once writes its trace a check block at a time and then drops it,
    and its tracks forget each checked block's jumps."""

    @pytest.mark.parametrize("init", ["synchronized", "random"])
    @pytest.mark.parametrize("adv", sorted(adversaries.BUILTINS))
    def test_file_is_the_whole_trace(self, adv, init, tmp_path, monkeypatch):
        # 70 windows are three blocks; a run that stops at confirmation ends
        # inside its first block.  The file holds an unstreamed World's bytes.
        worlds = []

        class Kept(harness.World):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                worlds.append(self)

        monkeypatch.setattr(harness, "World", Kept)
        for horizon, stop in ((70, False), (200, True)):
            sc = scenario(adversary=adv, init=init, horizon=horizon, stop_after_confirm=stop,
                          trace_level="full")
            path = tmp_path / f"trace_{stop}.jsonl"
            r = run_once(sc, 3, trace_path=str(path))
            if stop:
                assert 0 < r.windows_run < harness.CHECK_BLOCK
            else:
                assert r.windows_run == 70
            whole = simnet.World(RP, adversaries.make_adversary(adv), seed=3, init_policy=init,
                                 trace_level="full")
            whole.run_until_window(r.windows_run)
            whole.close()
            assert path.read_bytes() == whole.trace.to_jsonl().encode()
            sink = _Sink()
            assert run_once(sc, 3, trace_path=sink) == dataclasses.replace(r, trace_path=None)
            assert "".join(sink.parts) == path.read_text()
            if not stop:
                assert len(sink.parts) == 3 and all(sink.parts)     # one write per block
            # Nothing of an earlier block is left.
            w = worlds[-1]
            assert w.trace.records == []
            assert all(t >= r.windows_run * w.window for tr in w.qap_tracks()
                       for t in tr.jump_times)

    def test_run_that_raises_leaves_no_file(self, tmp_path, monkeypatch):
        # The second block's check fails after the first block's trace is written.
        check, calls = harness.sync_check, []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise SimulationError("checker failed")
            return check(*args, **kwargs)

        monkeypatch.setattr(harness, "sync_check", failing)
        sc = scenario(horizon=70, stop_after_confirm=False, trace_level="full")
        with pytest.raises(SimulationError, match="checker failed"):
            run_once(sc, 1, trace_path=str(tmp_path / "trace.jsonl"))
        assert len(calls) == 2 and list(tmp_path.iterdir()) == []

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # The tracemalloc peak of a run, of its replay and of an untraced run
        # grows by at most a few hundred KB from 150 to 600 windows: the
        # trace, the tracks, the deviations and the coin tosses are held a
        # block at a time.
        rr = str(ROOT / "bench" / "record_replay.yaml")

        def traced(h):
            sc = Scenario.from_file(rr, adversary="random_noise", horizon=h, trace_level="full")
            run_once(sc, 11, trace_path=str(tmp_path / f"trace{h}.jsonl"))

        def replayed(h):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(["replay", "-c", rr, "--seed", "11", "--adversary",
                                 "random_noise", "--horizon", str(h),
                                 "--trace", str(tmp_path / f"trace{h}.jsonl")]) == 0

        def untraced(h):
            run_once(Scenario.from_file(rr, adversary="random_noise", horizon=h), 11)

        def peak(run, h):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(h)
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            untraced(20)    # warm: lazy imports and caches
            growth = {run.__name__: peak(run, 600) - peak(run, 150)
                      for run in (traced, replayed, untraced)}
        finally:
            tracemalloc.stop()
        assert growth["traced"] <= 500_000 and growth["replayed"] <= 500_000, growth
        assert growth["untraced"] <= 100_000, growth


class TestConfidenceBound:
    def test_edges(self):
        assert lower_confidence_bound(0, 100) == 0.0
        assert lower_confidence_bound(5, 0) == 0.0
        assert lower_confidence_bound(10, 10, 0.01) == pytest.approx(0.01 ** 0.1)

    def test_below_point_estimate_and_monotone(self):
        prev = 0.0
        for k in range(1, 100, 7):
            lcb = lower_confidence_bound(k, 100)
            assert 0.0 < lcb < k / 100
            assert lcb > prev
            prev = lcb

    def test_tighter_with_more_data(self):
        assert lower_confidence_bound(50, 100) < lower_confidence_bound(500, 1000)

    @staticmethod
    def _tail_below_alpha(k: int, n: int, p: Fraction) -> bool:
        """Exactly, P(X >= k; n, p) < ALPHA, in integers over p's denominator."""
        num, den = p.numerator, p.denominator
        tail = sum(math.comb(n, j) * num**j * (den - num)**(n - j)
                   for j in range(k, n + 1))
        alpha = Fraction(harness.ALPHA)
        return tail * alpha.denominator < alpha.numerator * den**n

    def test_exact_binomial_tail_brackets_alpha(self):
        # A float continued fraction cannot reach a one-ulp bracket; a
        # relative 1e-12 bracket is met in all 1,770 cases.
        rel = Fraction(1, 10**12)
        for n in range(2, 61):
            for k in range(1, n):
                p = Fraction(lower_confidence_bound(k, n))
                assert self._tail_below_alpha(k, n, p * (1 - rel)), (k, n)
                assert not self._tail_below_alpha(k, n, p * (1 + rel)), (k, n)

    # scipy.stats.beta.ppf(0.01, k, n - k + 1), recorded with scipy 1.17.1.
    RECORDED = [
        (1, 1000, 1.0050285349045254e-05),
        (500, 1000, 0.46277806676099753),
        (999, 1000, 0.9933803316043514),
        (7, 10000, 0.00023306402287031348),
        (4321, 10000, 0.42055477771717087),
        (5, 100000, 1.2791234820278724e-05),
        (16021, 100000, 0.15752005954195925),   # criterion 5's count
        (99990, 100000, 0.9997985634157721),
        (1, 1000000, 1.0050335802996816e-08),
        (3, 1000000, 4.360455060561863e-07),
        (1000, 1000000, 0.000927941152247036),
        (240759, 1000000, 0.2397649070285469),
        (500000, 1000000, 0.49883632792948496),
        (999999, 1000000, 0.9999933616666467),
    ]

    @pytest.mark.parametrize("k,n,expected", RECORDED)
    def test_matches_recorded_reference(self, k, n, expected):
        assert lower_confidence_bound(k, n) == pytest.approx(expected, rel=1e-9, abs=0)

    def test_cli_import_leaves_scipy_out(self):
        assert _loaded_by_cli_import(["scipy"]) == []


def _loaded_by_cli_import(modules: list[str]) -> list[str]:
    """Those of `modules` that a fresh interpreter holds after importing
    planesync.cli."""
    code = ("import json, sys, planesync.cli; "
            f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(harness.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_leaves_yaml_and_worker_pool_out():
    # yaml loads only to read a file, and the process pool only for a
    # campaign with more than one job.
    assert _loaded_by_cli_import(["yaml", "concurrent.futures.process"]) == []


class TestCampaign:
    def test_summary_is_order_independent(self):
        sc = scenario(horizon=40)
        _, results = run_monte_carlo(sc, list(range(6)))
        assert summarize(results, RP) == summarize(results[::-1], RP)

    def test_reference_campaign_healthy(self):
        summary, results = run_monte_carlo(scenario(horizon=60), list(range(8)))
        assert summary.n_runs == 8 and summary.all_stabilized
        assert not summary.incomplete
        # violations happen only in the chaotic phase before stabilization
        assert summary.max_precision_after_stb <= RP.eps0
        assert summary.stab_mean_ok
        assert summary.attempt_freq_ok
        assert summary.windows_total == sum(r.windows_run for r in results)
        assert "stabilized" in summary.table()

    def test_mean_bound_is_the_derived_one(self):
        assert summarize([], RP).stab_mean_bound == float(2 / RP.dv.q1_bound + G0)
        no_coins = scenario(q0=Fraction(0)).resolved
        assert no_coins.dv.stb_exp_windows is None
        assert summarize([], no_coins).stab_mean_bound == math.inf

    @pytest.mark.parametrize("knob", ["p0: 1", "q0: 0", "q0: 1"])
    def test_campaign_without_a_mean_bound_writes_strict_json(self, knob, tmp_path, capsys):
        # Such a scenario validates, but derives no mean bound: the summary
        # writes null for it, in summary.json and on the jsonl line, where
        # json.dumps would write Infinity, which a strict parser refuses.
        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        text = Path(REFERENCE_YAML).read_text()
        assert text.count("  eps_rnd: 1/2\n") == 1
        config = tmp_path / "config.yaml"
        config.write_text(text.replace("  eps_rnd: 1/2\n", f"  eps_rnd: 1/2\n  {knob}\n"))
        assert cli_main(["validate", "-c", str(config)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli_main(["campaign", "-c", str(config), "--seeds", "2", "--horizon", "5",
                         "--format", "jsonl", "--out", str(out)]) == 0
        line = capsys.readouterr().out
        for text in (line, (out / "summary.json").read_text()):
            assert json.loads(text, parse_constant=refuse)["stab_mean_bound"] is None
        for text in (out / "runs.jsonl").read_text().splitlines():
            json.loads(text, parse_constant=refuse)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(REF, [1, 2, 1])

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            run_monte_carlo(REF, [])

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_campaign_needs_a_worker(self, jobs, capsys):
        with pytest.raises(ConfigurationError, match="at least one worker process"):
            run_monte_carlo(REF, [0], jobs=jobs)
        assert cli_main(["campaign", "--seeds", "2", "--jobs", str(jobs)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and \
            err == f"error: a campaign needs at least one worker process: {jobs}\n"

    def test_worker_processes_write_the_serial_bytes(self, tmp_path, capsys):
        # The pool runs each seed in a worker process; what the campaign
        # writes must not depend on how many there are.
        written = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert cli_main(["campaign", "-c", REFERENCE_YAML, "--seeds", "4",
                             "--horizon", "20", "--adversary", "random_noise",
                             "--jobs", str(jobs), "--out", str(out)]) == 0
            written.append([(out / name).read_bytes() for name in ("summary.json", "runs.jsonl")])
        assert written[0] == written[1]
        assert written[0][1].count(b"\n") == 4

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_campaign_cli_refuses_no_seeds(self, count, capsys):
        # No run, so no verdict: not "all stabilized True" with exit 0.
        assert cli_main(["campaign", "--seeds", count]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a campaign needs at least one seed\n"

    def test_seed_list_order_does_not_change_the_files(self, tmp_path, capsys):
        written = []
        for seeds in ("3,1,2", "1,2,3"):
            out = tmp_path / seeds.replace(",", "_")
            assert cli_main(["campaign", "--seed-list", seeds, "--horizon", "10",
                             "--out", str(out)]) == 0
            written.append([(out / name).read_bytes() for name in ("summary.json", "runs.jsonl")])
        assert written[0] == written[1]
        assert written[0][1].count(b"\n") == 3

    def test_campaign_cli_names_a_bad_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["campaign", "--seed-list", "1,x", "--horizon", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed-list: seed 'x' is not an integer" in err
        assert "Traceback" not in err

    @pytest.fixture
    def setup_fails(self, monkeypatch):
        """A failure only a run can meet: the silent adversary's setup
        raises, naming the seed.  Returns the reason recorded for seed s."""
        def setup(adv):
            raise SimulationError(f"setup failed at seed {adv.world.seed}")

        monkeypatch.setattr(adversaries.Silent, "setup", setup)
        return "SimulationError: setup failed at seed {}".format

    def test_failing_seed_marks_campaign_incomplete(self, setup_fails):
        sc = dataclasses.replace(REF, horizon=5)
        summary, results = run_monte_carlo(sc, [0, 1])
        assert summary.incomplete and summary.failed_seeds == (0, 1)
        assert not summary.all_stabilized and results == []

    def test_failure_reasons_name_the_exception(self, setup_fails):
        sc = dataclasses.replace(REF, horizon=5)
        summary, results = run_monte_carlo(sc, [3, 4])
        assert summary.failed_seeds == (3, 4) and results == []
        assert summary.failure_reasons == (setup_fails(3), setup_fails(4))
        assert summary.to_record()["failure_reasons"] == summary.failure_reasons

    def test_table_names_each_failed_seed(self, setup_fails):
        sc = dataclasses.replace(REF, horizon=5)
        summary, _ = run_monte_carlo(sc, [3, 4])
        lines = summary.table().splitlines()
        assert [" ".join(ln.split()) for ln in lines[-2:]] == \
            [f"failed seed {s} {setup_fails(s)}" for s in (3, 4)]
        # A complete campaign's table has no such rows.
        done, _ = run_monte_carlo(scenario(adversary="max_skew", horizon=10), [0])
        assert not done.incomplete and "failed seed" not in done.table()
        assert len(done.table().splitlines()) == len(lines) - 2

    def test_campaign_cli_prints_why_each_seed_failed(self, setup_fails, capsys):
        rc = cli_main(["campaign", "-c", REFERENCE_YAML, "--seeds", "2",
                       "--horizon", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "failed seeds: [0, 1]" in err
        for s in (0, 1):
            assert f"seed {s}: {setup_fails(s)}" in err


class TestMoreTerminals:
    """The claim holds for any terminal count with fewer than a third
    Byzantine, and the reference scenario has 4: the same scenario with 7
    and with 10 (scenarios/wide.yaml), under every adversary."""

    @pytest.mark.parametrize("adversary", sorted(adversaries.BUILTINS))
    @pytest.mark.parametrize("n0, f0", [(7, 2), (10, 3)], ids=["n0=7", "n0=10"])
    def test_closure_and_stabilization(self, n0, f0, adversary):
        base = reference_scenario(adversary=adversary, horizon=60)
        base = dataclasses.replace(base, params=dataclasses.replace(base.params, n0=n0, f0=f0))
        closure = dataclasses.replace(base, init="synchronized", stop_after_confirm=False)
        summary, results = run_monte_carlo(closure, [0])
        assert summary.n_violations == 0 and results[0].windows_run == 60
        summary, _ = run_monte_carlo(dataclasses.replace(base, init="random"), list(range(5)))
        assert summary.all_stabilized and not summary.incomplete

    def test_wide_scenario_file(self):
        sc = Scenario.from_file(str(ROOT / "scenarios" / "wide.yaml"))
        assert (sc.params.n0, sc.params.f0) == (10, 3)
        assert dataclasses.replace(sc, params=dataclasses.replace(sc.params, n0=4, f0=1)) == REF


class TestNoConfig:
    """Only -c names a scenario file: without it, every command but validate
    runs the built-in reference, whatever the environment holds."""

    @pytest.fixture(autouse=True)
    def stale_variable(self, tmp_path, monkeypatch):
        # The variable the CLI once read in place of -c, naming no file.
        monkeypatch.setenv("PLANESYNC_CONFIG", str(tmp_path / "missing.yaml"))

    def test_commands_run_the_reference(self, tmp_path, capsys):
        def record(x):
            return json.loads(json.dumps(x.to_record()))

        sc = reference_scenario(horizon=3)
        assert cli_main(["run", "--horizon", "3", "--format", "jsonl"]) == 0
        assert json.loads(capsys.readouterr().out) == record(run_once(sc, 0))
        assert cli_main(["campaign", "--seeds", "2", "--horizon", "3", "--format", "jsonl"]) == 0
        assert json.loads(capsys.readouterr().out) == record(run_monte_carlo(sc, [0, 1])[0])
        coin = lemma1_coin_model(RP, 2000, 0)
        assert cli_main(["lemma1", "--windows", "2000", "--format", "jsonl"]) == (0 if coin.ok else 1)
        assert json.loads(capsys.readouterr().out) == record(coin)
        args = ["--horizon", "3", "--trace-level", "core"]
        assert cli_main(["run", "--out", str(tmp_path), *args]) == 0
        trace = str(tmp_path / "trace_seed0.jsonl")
        assert cli_main(["replay", "--trace", trace, *args]) == 0
        assert "records match" in capsys.readouterr().out

    def test_validate_needs_a_file(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli_main(["validate"])
        assert e.value.code == 2
        assert "-c/--config" in capsys.readouterr().err


class TestValidateCli:
    def test_reference_passes(self, capsys):
        assert cli_main(["validate", "-c", REFERENCE_YAML]) == 0
        assert capsys.readouterr().out == "pass\n"

    @pytest.mark.parametrize("path", [
        *sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "scenarios").glob("*.yaml")),
        "bench/record_replay.yaml"])
    def test_committed_scenario_files_pass(self, path, capsys):
        # The benchmark's scenario too: a schema change that rejected it
        # would otherwise show up only in the benchmark.
        assert cli_main(["validate", "-c", str(ROOT / path)]) == 0
        assert capsys.readouterr() == ("pass\n", "")

    def test_derived_constant_warning_reported(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        with open(REFERENCE_YAML) as f:
            text = f.read()
        assert "tau_max: 4096" in text
        path.write_text(text.replace("tau_max: 4096", "tau_max: 4000"))
        assert cli_main(["validate", "-c", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "pass\n"
        assert err.startswith("warning: tau_max=4000 is not a multiple of T=128")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("coin", ["p0: 1", "q0: 0", "q0: 1"])
    def test_no_stabilization_bound_reported(self, tmp_path, capsys, coin):
        # q1_bound is 0: a run is possible, but criterion 6's mean check
        # has no bound to hold against.
        path = tmp_path / "scenario.yaml"
        with open(REFERENCE_YAML) as f:
            text = f.read()
        path.write_text(text.replace("a0: 3", f"a0: 3\n  {coin}"))
        assert cli_main(["validate", "-c", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "pass\n"
        assert err.startswith("warning: q0=") and "q1_bound is 0" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit, why", [
        (("  trace: \"off\"", "  trace: \"off\"\n  bogus: 1"), "unknown run keys: ['bogus']"),
        (("name: silent", "name: nope"), "unknown adversary 'nope'"),
        (("init: random", "init: sideways"), "unknown initial-state policy 'sideways'"),
        (("params: {}", "params: {bias: 3}"), "no built-in adversary takes parameters"),
        (("n0: 4", "n0: 3"), "n0>3f0 violated"),
        (("horizon: 1000", "horizon: abc"), "run key horizon must be an integer"),
        (("vc_send: [6, 10]", "vc_send: [6, ten]"), "schedule slot vc_send must be an integer"),
        (("n0: 4", "n0: \"4\""), "system key n0 must be an integer"),
        (("stop_after_confirm: true", "stop_after_confirm: \"false\""),
         "run key stop_after_confirm must be true or false"),
        (("rho: 1/1000", "rho: abc"), "system key rho: cannot interpret 'abc'"),
        (("name: silent", "name: [silent]"), "adversary name must be a string: ['silent']"),
        (("adversary:\n  name: silent\n  params: {}", "adversary: max_skew"),
         "adversary section must be a mapping: 'max_skew'"),
        (("adversary:", "adversery:"), "unknown sections: ['adversery']"),
        (("n1: 3", "n1: 5"), "n1 must be 3"),
        (("f0: 1", "f0: -1"), "f0 must be >= 0: -1"),
        (("f1: 1", "f1: -1"), "f1 must be >= 0: -1"),
        (("eps_rnd: 1/2", "eps_rnd: -1/2"), "eps_rnd must be >= 0: -1/2"),
        (("n0: 4", "n0: [4"), "scenario.yaml is not valid YAML"),
        (("rho: 1/1000", "rho: .nan"), "system key rho: cannot interpret nan"),
        (("T_H: 1", "T_H: yes"), "system key T_H: cannot interpret True"),
        (("d_max: 2", "d_max: true"), "system key d_max: cannot interpret True"),
        (("  trace: \"off\"", "  trace: \"off\"\n  eps0_check: -1"),
         "eps0_check must be >= 0: -1"),
        (("d_max: 2", "d_max: 0"), "d_max must be positive: 0"),
        (("a0: 3", "a0: 0"), "a0 must be >= 1: 0"),
        (("a0: 3", "a0: 3\n  q0: 2"), "q0 outside [0,1]: 2"),
        (("a0: 3", "a0: 3\n  p0: -1/2"), "p0 outside [0,1]: -1/2"),
        (("c_recv: [38, 48]", "c_recv: [38, 75]"),
         "schedule must lie within [0, T0=74]: [6, 10, 14, 24, 30, 34, 38, 75]"),
        (("a0: 3", "a0: 3\n  eps2: 1"), "eps2 >= eps1 >= eps0 > 0 violated: 10, 27, 1"),
        (("rho: 1/1000", "rho: 1/8"), "default eps1 needs rho < 1/8; set eps1/eps2 explicitly"),
        (("vc_send: [6, 10]\n  mc_recv: [14, 24]", "vc_send: [12, 13]\n  mc_recv: [14, 15]"),
         "vc_send->mc_recv gap must exceed d_max ticks (3): (12, 13) -> (14, 15)"),
        (("c_send: [30, 34]\n  c_recv: [38, 48]", "c_send: [40, 41]\n  c_recv: [42, 43]"),
         "c_send->c_recv gap must exceed d_max ticks (3): (40, 41) -> (42, 43)"),
        (("eps_rnd: 1/2", "eps_rnd: 16"),
         "an honest relay can miss collection: eps_rnd + vc_send[0]*T_H*(1+rho) + d_max "
         "< mc_recv[1]*T_H*(1-rho) violated: 12003/500 >= 2997/125"),
        (("rho: 1/1000", "rho: 1/4\n  eps1: 30\n  eps2: 60"),
         "an honest clock value can miss its receive slot: c_send[0]*T_H*(1+rho) + d_max "
         "< c_recv[1]*T_H*(1-rho) violated: 79/2 >= 36"),
        (("  c_recv: [38, 48]\n", ""), "missing schedule keys: ['c_recv']"),
        (("vc_send: [6, 10]", "vc_send: [6, 10, 12]"),
         "schedule slot vc_send must be [begin, end]: [6, 10, 12]"),
        (("  T0: 74\n", ""), "bad system section: "),
        # Every line commented out: an empty document.
        (("\n", "\n#"), "config root must be a mapping: "),
        (("schedule:\n", "slots:\n"), "config must contain 'system' and 'schedule' sections"),
    ], ids=["run_key", "adversary", "init", "adversary_params", "invariant",
            "horizon_text", "slot_text", "n0_string", "stop_string", "rho_text",
            "name_list", "adversary_string", "section_typo", "five_planes",
            "f0_negative", "f1_negative", "eps_rnd_negative", "yaml_syntax", "rho_nan",
            "T_H_yes", "d_max_true", "eps0_check_negative", "d_max_zero", "a0_zero", "q0_outside", "p0_outside",
            "slot_past_T0", "eps_order", "rho_eighth", "upward_gap", "downward_gap",
            "upward_timing", "downward_timing",
            "slot_missing", "slot_triple", "T0_missing", "empty_document", "no_schedule"])
    def test_rejects_what_a_run_rejects(self, tmp_path, capsys, edit, why):
        # Everything `run` and `campaign` would reject, validate rejects too.
        path = tmp_path / "scenario.yaml"
        with open(REFERENCE_YAML) as f:
            text = f.read()
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1]))
        assert cli_main(["validate", "-c", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and why in captured.err


class TestReplayCli:
    def test_missing_trace_leaves_nothing_behind(self, tmp_path, capsys):
        trace = tmp_path / "missing.jsonl"
        assert cli_main(["replay", "--trace", str(trace), "--horizon", "3"]) == 2
        assert "missing.jsonl" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_recorded_run_replays(self, tmp_path, capsys):
        args = ["--horizon", "3", "--seed", "4", "--trace-level", "full"]
        assert cli_main(["run", "--out", str(tmp_path), *args]) == 0
        trace = tmp_path / "trace_seed4.jsonl"
        assert cli_main(["replay", "--trace", str(trace), *args]) == 0
        assert "records match" in capsys.readouterr().out
        assert not (tmp_path / "trace_seed4.jsonl.replay").exists()

    def test_replay_writes_no_file(self, tmp_path, capsys):
        # The re-run's trace is compared in memory: a file of the name a
        # replay once used for it survives byte for byte.
        args = ["--horizon", "3", "--seed", "4", "--trace-level", "full"]
        assert cli_main(["run", "--out", str(tmp_path), *args]) == 0
        trace = tmp_path / "trace_seed4.jsonl"
        kept = tmp_path / "trace_seed4.jsonl.replay"
        kept.write_bytes(b"a user's own file\n")
        before = sorted(tmp_path.iterdir())
        assert cli_main(["replay", "--trace", str(trace), *args]) == 0
        assert "records match" in capsys.readouterr().out
        assert kept.read_bytes() == b"a user's own file\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("level", ["full", "core"])
    def test_level_read_from_the_recording(self, tmp_path, capsys, level):
        # Without --trace-level, replay runs at the level the file was made at.
        args = ["--horizon", "3", "--seed", "4"]
        assert cli_main(["run", "--out", str(tmp_path), *args, "--trace-level", level]) == 0
        trace = tmp_path / "trace_seed4.jsonl"
        assert cli_main(["replay", "--trace", str(trace), *args]) == 0
        assert "records match" in capsys.readouterr().out

    def test_cut_recording_diverges_by_count(self, tmp_path, capsys):
        # Every recorded line matches, but the re-run has more of them; a
        # recording that only lacks its last newline still matches.
        args = ["--horizon", "3", "--seed", "4", "--trace-level", "full"]
        assert cli_main(["run", "--out", str(tmp_path), *args]) == 0
        trace = tmp_path / "trace_seed4.jsonl"
        lines = trace.read_text().splitlines(keepends=True)
        capsys.readouterr()
        trace.write_text("".join(lines)[:-1])
        assert cli_main(["replay", "--trace", str(trace), *args]) == 0
        assert capsys.readouterr().out == f"replay ok: {len(lines)} records match\n"
        trace.write_text("".join(lines[:-2]))
        assert cli_main(["replay", "--trace", str(trace), *args]) == 1
        assert capsys.readouterr().err == \
            f"replay diverges: {len(lines) - 2} recorded vs {len(lines)} replayed records\n"

    def test_doubled_last_line_diverges_by_count(self, tmp_path, capsys):
        # Every replayed line matches, but the recording has one more.
        args = ["--horizon", "3", "--seed", "4", "--trace-level", "full"]
        assert cli_main(["run", "--out", str(tmp_path), *args]) == 0
        trace = tmp_path / "trace_seed4.jsonl"
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines + lines[-1:]))
        capsys.readouterr()
        assert cli_main(["replay", "--trace", str(trace), *args]) == 1
        assert capsys.readouterr().err == \
            f"replay diverges: {len(lines) + 1} recorded vs {len(lines)} replayed records\n"

    def test_edited_record_is_named(self, tmp_path, capsys):
        # The comparison runs across the re-run's blocks: an edited record in
        # the second block of 40 windows is named by its number.
        args = ["--horizon", "40", "--seed", "4", "--trace-level", "full"]
        assert cli_main(["run", "--out", str(tmp_path), *args]) == 0
        trace = tmp_path / "trace_seed4.jsonl"
        lines = trace.read_text().splitlines(keepends=True)
        k = len(lines) - 5
        edited = lines[k].replace('"t":', '"t":1')
        trace.write_text("".join(lines[:k] + [edited] + lines[k + 1:]))
        capsys.readouterr()
        assert cli_main(["replay", "--trace", str(trace), *args]) == 1
        assert capsys.readouterr().err == \
            f"replay diverges at record {k + 1}:\n- {edited[:-1]}\n+ {lines[k][:-1]}\n"

    def test_other_seed_diverges(self, tmp_path, capsys):
        args = ["--horizon", "3", "--trace-level", "full"]
        assert cli_main(["run", "--out", str(tmp_path), "--seed", "4", *args]) == 0
        trace = tmp_path / "trace_seed4.jsonl"
        assert cli_main(["replay", "--trace", str(trace), "--seed", "5", *args]) == 1
        assert "replay diverges at record" in capsys.readouterr().err


class TestTables:
    """The exact text of each `label  value` table, for fixed records."""

    def test_campaign_summary(self):
        s = harness.StatsSummary(
            n_runs=3, n_stabilized=2, all_stabilized=False, stab_mean=4.5, stab_max=6,
            stab_mean_bound=123.456, stab_mean_ok=True, attempts=7, successes=2,
            attempt_freq=2 / 7, attempt_freq_lcb=0.0123456789, q1_bound=0.0011,
            attempt_freq_ok=True, resync_windows=5, windows_total=90,
            resync_window_freq=5 / 90, max_precision_after_stb=3, n_violations=4,
            incomplete=True, failed_seeds=(8,), failure_reasons=("SimulationError: boom",))
        assert s.table() == (
            "runs                               3\n"
            "stabilized                         2\n"
            "all stabilized                     False\n"
            "mean stabilization window          4.5\n"
            "max stabilization window           6\n"
            "mean bound (2/q1 + g0)             123.5\n"
            "mean within bound                  True\n"
            "resync attempts                    7\n"
            "confirmed attempts                 2\n"
            "attempt frequency                  0.2857142857142857\n"
            "attempt frequency lcb (a=0.01)     0.012346\n"
            "theoretical q1 bound               0.001100\n"
            "attempt bound satisfied            True\n"
            "windows with resync point          5/90\n"
            "per-window resync frequency        0.0556\n"
            "max precision after stabilization  3\n"
            "violation windows                  4\n"
            "incomplete                         True\n"
            "failed seed 8                      SimulationError: boom")

    def test_coin_model_summary(self):
        s = CoinModelSummary(n_windows=2000, windows_with_point=321, freq=0.1605,
                             freq_lcb=0.14012345, bound=0.0987654, ok=True)
        assert s.table() == (
            "windows                 2000\n"
            "windows with point      321\n"
            "frequency               0.1605\n"
            "frequency lcb (a=0.01)  0.1401\n"
            "theoretical bound       0.0988\n"
            "bound satisfied         True")

    def test_run_record(self, monkeypatch, capsys):
        r = harness.RunResult(seed=4, stabilization_window=None, windows_run=3,
                              max_precision=12, max_precision_after_stb=None, n_violations=3,
                              first_violation=0, resync_point_count=1, attempts=1,
                              successes=0, resync_windows=1)
        monkeypatch.setattr(cli, "run_once", lambda sc, seed, trace_path=None: r)
        assert cli_main(["run", "--seed", "4"]) == 0
        assert capsys.readouterr().out == (
            "attempts                 1\n"
            "first_violation          0\n"
            "max_precision            12\n"
            "max_precision_after_stb  None\n"
            "n_violations             3\n"
            "resync_point_count       1\n"
            "resync_windows           1\n"
            "seed                     4\n"
            "stabilization_window     None\n"
            "successes                0\n"
            "trace_path               None\n"
            "windows_run              3\n")


class TestCoinModel:
    @pytest.mark.parametrize("ok", [True, False])
    def test_cli_prints_the_table_and_exits_on_ok(self, monkeypatch, capsys, ok):
        # The real summary, and the same one with its verdict flipped, so
        # that the exit code is seen to follow `ok` both ways.
        real = lemma1_coin_model(RP, 2000, 0)
        summary = real if real.ok == ok else dataclasses.replace(real, ok=ok)
        calls = []

        def model(rp, n_windows, seed):
            calls.append((rp, n_windows, seed))
            return summary

        monkeypatch.setattr(cli, "lemma1_coin_model", model)
        assert cli_main(["lemma1", "--windows", "2000"]) == (0 if ok else 1)
        assert calls == [(RP, 2000, 0)]
        assert capsys.readouterr().out == summary.table() + "\n"

    def test_bound_holds_at_moderate_size(self):
        s = lemma1_coin_model(RP, n_windows=4000, seed=0)
        assert isinstance(s, CoinModelSummary)
        assert s.ok and s.freq_lcb >= s.bound
        assert s.bound == pytest.approx(float(2 * RP.dv.q0 * (1 - RP.dv.q0) ** G0))

    def test_zero_coin_rate_yields_no_points(self):
        rp = scenario(q0=Fraction(0)).resolved
        s = lemma1_coin_model(rp, n_windows=500, seed=1)
        assert s.windows_with_point == 0 and s.freq == 0.0

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            lemma1_coin_model(RP, n_windows=0, seed=0)

    def test_tosses_are_not_held(self):
        # The tosses are drawn as they are scanned and the points counted as
        # they are decided: at the CLI's default 100,000 windows neither the
        # 400,000 tosses (77 MB when they were held) nor the 16,553 points
        # (1.5 MB) are held.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s = lemma1_coin_model(RP, 100_000, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert s.windows_with_point == 16_021
        assert peak <= 100_000, peak

    def test_lifetime_is_logged_as_the_switch_leaves_it(self, monkeypatch):
        # The switch's rule (TestMwsRound asserts g0 - 1 after a head): a
        # head grants g0 rounds, and every round that holds any spends one.
        logs, real = [], harness._coin_tosses

        def logged(*args):
            logs.append(list(real(*args)))
            return iter(logs[-1])
        monkeypatch.setattr(harness, "_coin_tosses", logged)
        lemma1_coin_model(RP, n_windows=300, seed=0)
        (log,) = logs
        held = {}
        for _, node, b, gl in log:
            assert gl == (G0 - 1 if b else max(held.get(node, 0) - 1, 0))
            held[node] = gl
        assert any(b for _, _, b, _ in log)

    @pytest.mark.parametrize("n_windows", [1, 7, 40, 150])
    def test_counts_the_windows_of_the_whole_log_rule(self, n_windows):
        # The windows below n_windows that hold a point of the whole drawn
        # log, by the rule before ResyncScan.
        t_max, n = RP.dv.T_max, RP.n1 - RP.f1
        found = 0
        for seed in range(60):
            points = reference_resync_points(list(harness._coin_tosses(RP, n_windows, seed)),
                                             list(range(n)), dict.fromkeys(range(n), 0))
            windows = {t * t_max.denominator // t_max.numerator for t, _p in points}
            want = len({w for w in windows if w < n_windows})
            assert lemma1_coin_model(RP, n_windows, seed).windows_with_point == want
            found += want
        assert found > 0

    def test_deterministic_in_seed(self):
        a = lemma1_coin_model(RP, n_windows=300, seed=5)
        b = lemma1_coin_model(RP, n_windows=300, seed=5)
        c = lemma1_coin_model(RP, n_windows=300, seed=6)
        assert a == b
        assert a != c
