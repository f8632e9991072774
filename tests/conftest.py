import math
import re

import pytest

from planesync.ring import wrap_add, wrap_sub


def switch_tick_walk(state, c_now, h_now, rp):
    """One hardware tick of a master switch, walked literally; True when a
    SIG is emitted.

    The reference for the closed forms that schedule SIGs and watchdogs:
    the idle sentinel arms SIG generation at clock multiples of T; once a
    round starts, a watchdog over the hardware clock rearms the sentinel if
    the round never completes.
    """
    tau = rp.tau_max
    if state.idle and c_now % rp.T == 0:
        state.tau_idl = wrap_add(h_now, rp.sys.T0 % tau, tau)
        return True
    if not state.idle and wrap_sub(state.tau_idl, h_now, tau) > rp.sys.T0:
        state.tau_idl = state.tau_max
    return False


@pytest.fixture
def tick_walk():
    return switch_tick_walk


def q1_closed_form_floor(g0: int) -> float:
    """Closed-form floor of the per-attempt stabilization probability.

    The oracle for derive's exact q1_bound: with q0 = 1/(2*g0+1) and
    p0 = 1 - 1/(g0+1), the exact product q0*(1-q0)^(2g0)*p0^g0*(1-p0)/2 is
    bounded below by 1 / (2*e^2*(2*g0+1)*(g0+1)); for g0 = 4 this is
    1/(90*e^2).
    """
    return 1.0 / (2.0 * math.e**2 * (2 * g0 + 1) * (g0 + 1))


@pytest.fixture
def q1_floor():
    return q1_closed_form_floor


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    tr = terminalreporter
    found = []
    for key in ("passed", "failed", "error"):
        for rep in tr.stats.get(key, []):
            if getattr(rep, "when", "call") != "call" and key != "error":
                continue
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)",
                          rep.nodeid)
            if m:
                verdict = "PASS" if key == "passed" else "FAIL"
                found.append((int(m.group(1)), m.group(2), verdict))
    if found:
        tr.write_sep("-", "acceptance criteria")
        for n, name, verdict in sorted(found):
            tr.write_line(f"criterion {n}: {verdict}  {name.replace('_', ' ')}")
