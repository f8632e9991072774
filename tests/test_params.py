"""Parameter validation, derivation, and config parsing tests."""

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from planesync.errors import ConfigurationError
from planesync.params import (
    SystemParams,
    TTSchedule,
    as_fraction,
    derive,
    load_config_doc,
    parse_schedule_section,
    parse_system_section,
    resolve,
    validate,
)

SCHED = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34), c_recv=(38, 48))
ROOT = Path(__file__).resolve().parent.parent
COMMITTED = [*sorted((ROOT / "scenarios").glob("*.yaml")), ROOT / "bench" / "record_replay.yaml"]


def make_params(**over):
    base = dict(
        n0=4, n1=3, f0=1, f1=1,
        tau_max=4096, T_H=Fraction(1), rho=Fraction(1, 100),
        d_max=Fraction(2), T0=100, a0=3,
    )
    base.update(over)
    return SystemParams(**base)


class TestDrawCuts:
    def test_cut_decides_each_draw_like_the_fraction(self):
        # random() returns k/2**53; the float cut must agree with the exact
        # comparison against q on both sides of K = ceil(q*2**53) and at the
        # ends of the draw range.
        ref = derive(make_params(), SCHED)
        qs = {ref.q0, ref.p0} | {Fraction(a, b) for b in range(1, 40) for a in range(b + 1)}
        for q in qs:
            dv = derive(make_params(q0=q, p0=q), SCHED)
            K = math.ceil(q * 2**53)
            ks = {k for k in range(K - 2, K + 3) if 0 <= k < 2**53} | {0, 2**53 - 1}
            for cut in (dv.q0_cut, dv.p0_cut):
                for k in ks:
                    assert (k / 2**53 < cut) == (Fraction(k, 2**53) < q), (q, k)

    def test_reference_cut_matches_the_rounded_float(self):
        # For the reference q0 and p0 no draw lies between float(q) and the
        # cut, so a draw against either decides the same way.
        ref = derive(make_params(), SCHED)
        for q, cut in ((ref.q0, ref.q0_cut), (ref.p0, ref.p0_cut)):
            assert math.ceil(float(q) * 2**53) == math.ceil(q * 2**53) == cut * 2**53


class TestValidate:
    def test_reference_shape_passes(self):
        assert validate(make_params(), SCHED).ok

    def test_n0_boundary(self):
        rep = validate(make_params(n0=3), SCHED)
        assert not rep.ok
        assert any("n0>3f0" in v for v in rep.violations)

    def test_n1_boundary(self):
        rep = validate(make_params(n1=2), SCHED)
        assert not rep.ok
        assert any("n1>2f1" in v for v in rep.violations)

    def test_n1_other_than_three_rejected(self):
        # The randomized reference pick is defined for three planes; a
        # config the simulator cannot run must fail here, not in every seed.
        rep = validate(make_params(n1=5, f1=2), SCHED)
        assert not rep.ok
        assert any("three planes" in v for v in rep.violations)
        with pytest.raises(ConfigurationError):
            resolve(make_params(n1=5, f1=2), SCHED)

    def test_schedule_ordering(self):
        bad = TTSchedule(vc_send=(6, 10), mc_recv=(14, 24), c_send=(30, 34), c_recv=(28, 48))
        assert not validate(make_params(), bad).ok

    @pytest.mark.parametrize("over, why", [({"rho": Fraction(1)}, "rho must be in [0,1)"),
                                           ({"T_H": Fraction(0)}, "T_H must be positive")])
    def test_no_tick_scale_reported_not_raised(self, over, why):
        # The d_max tick count divides by (1 - rho)*T_H: without one, the
        # checks that need it are skipped, not crashed into.
        rep = validate(make_params(**over), SCHED)
        assert not rep.ok and any(why in v for v in rep.violations)
        with pytest.raises(ConfigurationError, match=re.escape(why)):
            resolve(make_params(**over), SCHED)

    def test_small_tau_max(self):
        rep = validate(make_params(tau_max=128), SCHED)
        assert any("tau_max" in v for v in rep.violations)


class TestDerive:
    def test_c0_reference(self):
        dv = derive(make_params(), SCHED)
        assert dv.c0 == (4 - 2 - 1) // 1 + 1 == 2

    def test_closed_forms_large_n0(self, q1_floor):
        # n0 big enough that one contraction round suffices: g0 = a0 + 1.
        p = make_params(n0=40, tau_max=8192)
        dv = derive(p, SCHED)
        assert dv.k0 == 1 and dv.g0 == 4
        assert dv.q0 == Fraction(1, 9)
        assert dv.p0 == Fraction(4, 5)
        floor = q1_floor(dv.g0)
        assert floor == pytest.approx(1 / (90 * math.e**2), rel=1e-15)
        assert float(dv.q1_bound) >= floor
        assert dv.stb_exp_windows == 2 / dv.q1_bound + dv.g0

    def test_k0_solves_log_inequality(self):
        dv = derive(make_params(), SCHED)
        ratio = Fraction(2 * dv.eps2 + 8 * Fraction(1, 100) * Fraction(101, 100) * dv.T, dv.eps0)
        assert dv.c0 ** dv.k0 >= ratio
        assert dv.k0 == 1 or dv.c0 ** (dv.k0 - 1) < ratio

    def test_k0_monotone_in_n0(self):
        prev = None
        for n0 in (4, 5, 7, 10, 16, 40):
            dv = derive(make_params(n0=n0, tau_max=8192), SCHED)
            if prev is not None:
                assert dv.k0 <= prev
            prev = dv.k0

    def test_pure_function(self):
        a = derive(make_params(), SCHED)
        b = derive(make_params(), SCHED)
        assert a == b

    def test_delta_offsets(self):
        dv = derive(make_params(), SCHED)
        tau = 4096
        assert dv.delta_tt0 == (34 - 38) % tau
        assert dv.delta_tt1 == (34 - 6) % tau
        assert dv.delta_tt2 == (48 - 34) % tau
        assert dv.delta_tt3 == (34 - 24) % tau

    def test_c0_at_node_count_boundary(self):
        # n0 = 3*f0 + 1 is the tightest valid count and still contracts.
        dv = derive(make_params(n0=10, f0=3, tau_max=8192), SCHED)
        assert dv.c0 == 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            derive(make_params(n0=3), SCHED)

    def test_stabilization_tail_probability(self, q1_floor):
        # With the closed-form floor, 10^4 failed attempts are vanishing.
        q1 = q1_floor(4)
        assert (1 - q1) ** 10_000 < 3e-7


class TestFractions:
    def test_as_fraction_forms(self):
        assert as_fraction(0.01) == Fraction(1, 100)
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction(5) == Fraction(5)
        for bad in (object(), float("nan"), float("inf"), float("-inf"), True, False):
            with pytest.raises(ConfigurationError):
                as_fraction(bad)


class TestConfigFile:
    CONFIG = """
system:
  n0: 4
  n1: 3
  f0: 1
  f1: 1
  tau_max: 4096
  T_H: 1
  rho: 1/100
  d_max: 2
  T0: 100
  a0: 3
schedule:
  vc_send: [6, 10]
  mc_recv: [14, 24]
  c_send: [30, 34]
  c_recv: [38, 48]
"""

    def test_load_and_resolve(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(self.CONFIG)
        doc = load_config_doc(str(path))
        rp = resolve(parse_system_section(doc["system"]),
                     parse_schedule_section(doc["schedule"]))
        assert rp.T == rp.sys.T0 + rp.eps2

    def test_strict_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(self.CONFIG.replace("a0: 3", "a0: 3\n  bogus: 1"))
        doc = load_config_doc(str(path))
        with pytest.raises(ConfigurationError, match="bogus"):
            parse_system_section(doc["system"])

    @pytest.mark.parametrize("libyaml", [True, False])
    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.relative_to(ROOT).as_posix())
    def test_same_document_as_the_pure_python_parser(self, path, libyaml, monkeypatch):
        # load_config_doc parses with libyaml's CSafeLoader when PyYAML has
        # it, and with SafeLoader when it has not (CSafeLoader taken away
        # here): each committed file gives the document SafeLoader builds.
        with open(path) as f:
            want = yaml.load(f, Loader=yaml.SafeLoader)
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_config_doc(str(path)) == want

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_invalid_yaml_named(self, tmp_path, monkeypatch, libyaml):
        # Either parser's error becomes the same ConfigurationError; only its
        # text after the colon differs.
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "scenario.yaml"
        path.write_text(self.CONFIG.replace("n0: 4", "n0: [4"))
        with pytest.raises(ConfigurationError, match="scenario.yaml is not valid YAML: "):
            load_config_doc(str(path))
