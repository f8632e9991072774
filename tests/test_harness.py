"""Experiment-runner tests: scenario parsing, single-run verdicts,
campaign reduction, and the coin-model bound checker."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from planesync import adversaries, cli, harness, params, simnet
from planesync.cli import main as cli_main
from planesync.errors import ConfigurationError, SimulationError
from planesync.harness import (
    CoinModelSummary,
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

    def test_invariants_checked_and_eps_resolved_once(self, monkeypatch):
        # Resolving checks the invariants; derive reuses the eps values and
        # the d_max tick count that check resolved.
        calls = {"validate": 0, "_resolve_eps": 0}
        for name in calls:
            real = getattr(params, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(params, name, counted)
        sc = Scenario.from_file(REFERENCE_YAML)
        assert calls == {"validate": 1, "_resolve_eps": 1}
        assert sc.resolved == RP and sc.resolved is sc.resolved
        assert calls == {"validate": 1, "_resolve_eps": 1}

    def test_confirm_default_is_g0_plus_1(self):
        assert REF.confirm_windows(RP) == G0 + 1
        assert dataclasses.replace(REF, confirm=3).confirm_windows(RP) == 3

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
    confirm = sc.confirm_windows(rp)
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
    ], ids=["run_key", "adversary", "init", "adversary_params", "invariant",
            "horizon_text", "slot_text", "n0_string", "stop_string", "rho_text",
            "name_list", "adversary_string", "section_typo", "five_planes",
            "f0_negative", "f1_negative", "eps_rnd_negative", "yaml_syntax", "rho_nan"])
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

    def test_lifetime_is_logged_as_the_switch_leaves_it(self, monkeypatch):
        # The switch's rule (TestMwsRound asserts g0 - 1 after a head): a
        # head grants g0 rounds, and every round that holds any spends one.
        logs = []
        real = harness.resync_points
        monkeypatch.setattr(harness, "resync_points",
                            lambda log, *args: logs.append(log) or real(log, *args))
        lemma1_coin_model(RP, n_windows=300, seed=0)
        (log,) = logs
        held = {}
        for _, node, b, gl in log:
            assert gl == (G0 - 1 if b else max(held.get(node, 0) - 1, 0))
            held[node] = gl
        assert any(b for _, _, b, _ in log)

    def test_deterministic_in_seed(self):
        a = lemma1_coin_model(RP, n_windows=300, seed=5)
        b = lemma1_coin_model(RP, n_windows=300, seed=5)
        c = lemma1_coin_model(RP, n_windows=300, seed=6)
        assert a == b
        assert a != c
