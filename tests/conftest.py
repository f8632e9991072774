import math
import re

import pytest

from planesync.protocol import TTMessageUp
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


def corrupt(world, rng):
    """A transient fault at the world's current instant: overwrite, with
    draws from rng, every honest value the protocol holds mid-round.

    Each honest plane gets a new offset, grandmaster lifetime and previous
    offset, and the relays its current round holds are replaced by random
    ones.  Each honest terminal gets a new offset, new records (about one in
    three cleared) and new buffered values.  Every offset change is recorded
    on the node's track at this instant, so the checker sees it.

    Two states the World cannot represent are left alone.  A terminal
    round's buffer is overwritten only where it already holds a value: the
    World pushes the round's slot-begin step with the first value, so a
    value put in an empty buffer would never be read.  And the pending SIG
    and watchdog entries, with each plane's busy marker, stay as they were:
    the World computes them from that marker and the plane's offset when
    it schedules them, so they are a cache of a state, not a state.
    """
    rp = world.rp
    tau, n1 = rp.tau_max, rp.n1

    def value():
        return None if rng.random() < 0.3 else rng.randrange(tau)

    for p in world.honest_planes:
        st = world.mws[p]
        st.clock_offset = rng.randrange(tau)
        world.tracks[p].record(world.engine.now, st.clock_offset)
        st.grand_life = rng.randrange(rp.dv.g0 + 1)
        st.c_tilde_old = rng.randrange(tau)
        rnd = world.plane_round[p]
        for i in rnd.relays if rnd is not None else ():
            rnd.relays[i] = TTMessageUp(tuple(value() for _q in range(n1)),
                                        tuple(rng.randrange(rp.a0 + 1) for _q in range(n1)),
                                        tuple(value() for _q in range(n1)))
    for i in world.honest_mes:
        st = world.mes[i]
        st.clock_offset = rng.randrange(tau)
        world.tracks[n1 + i].record(world.engine.now, st.clock_offset)
        for q in range(n1):
            st.m_rec[q] = value()
            st.h_rec[q] = None if st.m_rec[q] is None else rng.randrange(tau)
            st.acc[q] = 0 if st.m_rec[q] is None else rng.randrange(rp.a0 + 1)
        for rnd in world.mes_round[i]:
            rnd.buffer[:] = [rng.randrange(tau) for _m in rnd.buffer]


@pytest.fixture(name="corrupt")
def corrupt_fixture():
    return corrupt


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
