"""Experiment-runner tests: scenario parsing, single-run verdicts,
campaign reduction, and the coin-model bound checker."""

import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import pytest

from planesync import adversaries, harness, params
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
        sc = Scenario.from_file("scenarios/reference.yaml")
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
        assert Scenario.from_file("scenarios/reference.yaml") == REF
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

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(REF, [1, 2, 1])

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
        rc = cli_main(["campaign", "-c", "scenarios/reference.yaml", "--seeds", "2",
                       "--horizon", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "failed seeds: [0, 1]" in err
        for s in (0, 1):
            assert f"seed {s}: {setup_fails(s)}" in err


class TestValidateCli:
    def test_reference_passes(self, capsys):
        assert cli_main(["validate", "-c", "scenarios/reference.yaml"]) == 0
        assert capsys.readouterr().out == "pass\n"

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
    ], ids=["run_key", "adversary", "init", "adversary_params", "invariant",
            "horizon_text", "slot_text", "n0_string", "stop_string", "rho_text",
            "name_list", "adversary_string", "section_typo"])
    def test_rejects_what_a_run_rejects(self, tmp_path, capsys, edit, why):
        # Everything `run` and `campaign` would reject, validate rejects too.
        path = tmp_path / "scenario.yaml"
        with open("scenarios/reference.yaml") as f:
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


class TestCoinModel:
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
