"""Fault-tolerant computational core.

Median/reduce/select averaging over circular clock values, the randomized
variant that occasionally hops onto a single plane's clock, the accuracy
and majority filters, and the two guarded conditions that decide whether a
master switch treats the system as (possibly) synchronized.

Matrix convention: rows[p][i] is the record about plane p relayed by
terminal node i, as plain lists; None marks a missing message.  Missing
entries are skipped by medians and disqualify their column in window
searches: absence is evidence of fault and must never help satisfy a
condition.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Iterator, Optional

from .errors import FaultBudgetError, UnsupportedConfigurationError
from .params import Resolved
from .ring import circ_sort, ring_dist, ring_med, unwrap, wrap_add, wrap_sub

__all__ = [
    "msr_reduce",
    "msr_select",
    "circ_mean",
    "fta_values",
    "fta",
    "rft",
    "accuracy_check",
    "hw_accuracy_threshold",
    "update_acc_counter",
    "filters",
    "check_stb",
    "check_weak",
]

Rows = list[list[Optional[int]]]


def msr_reduce(values: list[int], f: int, tau_max: int) -> list[int]:
    """Drop the f smallest and f largest of the circularly sorted values."""
    if len(values) <= 2 * f:
        raise FaultBudgetError(f"need more than 2f={2*f} values, got {len(values)}")
    ordered = circ_sort(values, tau_max)
    return ordered[f:len(ordered) - f] if f else ordered


def msr_select(values: list[int], f: int) -> list[int]:
    """Every f-th element (positions 0, f, 2f, ...) of an ordered sequence."""
    if not values:
        raise FaultBudgetError("select on an empty sequence")
    step = max(f, 1)
    return values[::step]


def circ_mean(values: list[int], tau_max: int) -> int:
    """Integer circular mean: unwrap along the circ_sort arc, average,
    round half toward the arc start."""
    ordered = circ_sort(values, tau_max)
    s, n = sum(unwrap(ordered, tau_max)), len(ordered)
    rounded = -((n - 2 * s) // (2 * n))   # ceil(s/n - 1/2), exactly
    return wrap_add(ordered[0], rounded % tau_max, tau_max)


def fta_values(values: list[int], f: int, tau_max: int) -> int:
    """Reduce-select-mean over an already-aggregated value sequence."""
    return circ_mean(msr_select(msr_reduce(values, f, tau_max), f), tau_max)


def fta(C: Rows, rp: Resolved) -> Optional[int]:
    """Deterministic fault-tolerant average of a clock matrix.

    Column medians over present entries (a column needs at least n1-f1 of
    them), then reduce/select/mean over the medians; None when fewer than
    2f0+1 columns are usable.
    """
    tau = rp.tau_max
    medians = []
    for col in zip(*C):
        present = [v for v in col if v is not None]
        if len(present) >= rp.n1 - rp.f1:
            medians.append(ring_med(present, tau))
    if len(medians) < 2 * rp.f0 + 1:
        return None
    return fta_values(medians, rp.f0, tau)


def rft(C: Rows, c_pre: int, p0: Fraction | float, rng: Random, rp: Resolved) -> Optional[int]:
    """Randomized choice between the averaging result and a single reference.

    With probability p0 the deterministic average (None when fta has too
    few columns); otherwise a uniform pick among the three row medians and
    the previous clock value.  Exactly one rng draw decides the branch and
    one more picks the reference.  p0 may be the exact cut
    DerivedParams.p0_cut, which decides every draw the same way.
    """
    if rp.n1 != 3:
        raise UnsupportedConfigurationError(
            f"randomized reference choice defined for 3 planes only, n1={rp.n1}"
        )
    if rng.random() < p0:
        return fta(C, rp)
    candidates = []
    for row in C:
        present = [v for v in row if v is not None]
        # An empty row offers no reference; fall back to the previous clock.
        candidates.append(ring_med(present, rp.tau_max) if present else c_pre)
    candidates.append(c_pre)
    return candidates[rng.randrange(4)]


def hw_accuracy_threshold(rp: Resolved) -> int:
    """Hardware-clock deviation bound of the accuracy condition, in ticks;
    resolved once by params.derive."""
    return rp.dv.hw_acc_bound


def accuracy_check(m_curr: int, m_pre: int, h_curr: int, h_pre: int, rp: Resolved) -> bool:
    """True iff consecutive records look like one synchronization cycle apart."""
    tau, T = rp.tau_max, rp.T % rp.tau_max
    if ring_dist(m_curr, wrap_add(m_pre, T, tau), tau) > 2 * rp.eps0:
        return False
    return ring_dist(h_curr, wrap_add(h_pre, T, tau), tau) <= hw_accuracy_threshold(rp)


def update_acc_counter(counter: int, ok: bool, a0: int) -> int:
    return min(counter + 1, a0) if ok else 0


def filters(M: Rows, A: Rows, rp: Resolved) -> frozenset[int]:
    """The planes that pass both the accuracy filter (n0-f0 counters at a0)
    and the majority filter (n0-f0 records equal to the row median)."""
    need = rp.n0 - rp.f0
    passed = []
    for p in range(rp.n1):
        if A[p].count(rp.a0) < need:
            continue
        present = [v for v in M[p] if v is not None]
        if present and M[p].count(ring_med(present, rp.tau_max)) >= need:
            passed.append(p)
    return frozenset(passed)


def _window_hit(C: Rows, rows: tuple[int, ...], width: int, min_cols: int,
                tau: int) -> Iterator[int]:
    """Anchors v, ascending, for which >= min_cols columns have all their
    `rows` entries present and inside the arc [v, v + width]; lazily, so a
    caller that needs one hit stops at it.

    Any maximal qualifying window can be shifted until its start coincides
    with an attained entry, so anchoring at entries is lossless.
    """
    sub = [C[p] for p in rows]
    anchors = sorted({v for row in sub for v in row if v is not None})
    full = [col for col in zip(*sub) if None not in col]
    return (v for v in anchors
            if sum(all(wrap_sub(e, v, tau) <= width for e in col) for col in full) >= min_cols)


def check_stb(C: Rows, p_acma: frozenset[int] | set[int], rp: Resolved) -> bool:
    """Stability condition: some n1-f1 filtered rows and n0-f0 columns whose
    entries all fit in one arc of length eps1."""
    k = rp.n1 - rp.f1
    if len(p_acma) < k:
        return False
    return any(next(_window_hit(C, rows, rp.eps1, rp.n0 - rp.f0, rp.tau_max), None) is not None
               for rows in combinations(sorted(p_acma), k))


def check_weak(C: Rows, rp: Resolved) -> Optional[int]:
    """Weak reference: a center within eps2/2 of entries from n1-f1 rows
    (unfiltered) and n0-2f0 columns; None when no window qualifies.

    Centers are integers, so the effective half-width is floor(eps2/2).
    The returned center comes from the qualifying window whose start is
    smallest in circular order.
    """
    k = rp.n1 - rp.f1
    half = rp.eps2 // 2
    starts: set[int] = set()
    for rows in combinations(range(rp.n1), k):
        starts.update(_window_hit(C, rows, 2 * half, rp.n0 - 2 * rp.f0, rp.tau_max))
    if not starts:
        return None
    first = circ_sort(starts, rp.tau_max)[0]
    return wrap_add(first, half, rp.tau_max)
