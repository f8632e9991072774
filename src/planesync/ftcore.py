"""Fault-tolerant computational core.

Median/reduce/select averaging over circular clock values, the randomized
variant that occasionally hops onto a single plane's clock, the accuracy
and majority filters, and the two guarded conditions that decide whether a
master switch treats the system as (possibly) synchronized.

Matrix convention: entries[p][i] is the record about plane p relayed by
terminal node i; None marks a missing message.  Missing entries are skipped
by medians and disqualify their column in window searches: absence is
evidence of fault and must never help satisfy a condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Optional

from .errors import FaultBudgetError, InsufficientDataError, UnsupportedConfigurationError
from .params import Resolved
from .ring import circ_sort, ring_dist, ring_med, unwrap, wrap_add, wrap_sub

__all__ = [
    "Mat",
    "FilterResult",
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

Entry = Optional[int]


@dataclass
class Mat:
    """An n1 x n0 grid of optional entries (clock values or counters)."""

    entries: list[list[Entry]]

    @classmethod
    def empty(cls, n1: int, n0: int) -> "Mat":
        return cls([[None] * n0 for _ in range(n1)])

    @property
    def n1(self) -> int:
        return len(self.entries)

    @property
    def n0(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, p: int) -> list[Entry]:
        return self.entries[p]

    def col(self, i: int) -> list[Entry]:
        return [r[i] for r in self.entries]

    def present_in_row(self, p: int) -> list[int]:
        return [v for v in self.entries[p] if v is not None]


@dataclass(frozen=True)
class FilterResult:
    p_acc: frozenset[int]
    p_maj: frozenset[int]
    p_acma: frozenset[int]
    majority_values: dict[int, int]


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


def fta(C: Mat, rp: Resolved) -> int:
    """Deterministic fault-tolerant average of a clock matrix.

    Column medians over present entries (a column needs at least n1-f1 of
    them), then reduce/select/mean over the medians.
    """
    tau = rp.tau_max
    medians = []
    for i in range(C.n0):
        col = [v for v in C.col(i) if v is not None]
        if len(col) >= rp.n1 - rp.f1:
            medians.append(ring_med(col, tau))
    if len(medians) < 2 * rp.f0 + 1:
        raise InsufficientDataError(
            f"only {len(medians)} usable columns, need {2 * rp.f0 + 1}"
        )
    return fta_values(medians, rp.f0, tau)


def rft(C: Mat, c_pre: int, p0: Fraction | float, rng: Random, rp: Resolved) -> int:
    """Randomized choice between the averaging result and a single reference.

    With probability p0 the deterministic average; otherwise a uniform pick
    among the three row medians and the previous clock value.  Exactly one
    rng draw decides the branch and one more picks the reference.  p0 may be
    the exact cut DerivedParams.p0_cut, which decides every draw the same way.
    """
    if rp.n1 != 3:
        raise UnsupportedConfigurationError(
            f"randomized reference choice defined for 3 planes only, n1={rp.n1}"
        )
    if rng.random() < p0:
        return fta(C, rp)
    candidates = []
    for p in range(3):
        row = C.present_in_row(p)
        # An empty row offers no reference; fall back to the previous clock.
        candidates.append(ring_med(row, rp.tau_max) if row else c_pre)
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


def filters(M: Mat, A: Mat, rp: Resolved) -> FilterResult:
    """Accuracy and majority filters over the relayed record matrices."""
    need = rp.n0 - rp.f0
    p_acc = set()
    for p in range(rp.n1):
        if sum(1 for v in A.row(p) if v == rp.a0) >= need:
            p_acc.add(p)
    p_maj = set()
    majority: dict[int, int] = {}
    for p in range(rp.n1):
        present = M.present_in_row(p)
        if not present:
            continue
        m_p = ring_med(present, rp.tau_max)
        if sum(1 for v in M.row(p) if v == m_p) >= need:
            p_maj.add(p)
            majority[p] = m_p
    p_acma = p_acc & p_maj
    return FilterResult(frozenset(p_acc), frozenset(p_maj), frozenset(p_acma), majority)


def _window_hit(C: Mat, rows: tuple[int, ...], width: int, min_cols: int, tau: int) -> list[int]:
    """Anchors v for which >= min_cols columns have all their `rows` entries
    present and inside the arc [v, v + width].

    Any maximal qualifying window can be shifted until its start coincides
    with an attained entry, so anchoring at entries is lossless.
    """
    anchors = sorted({C.entries[p][i] for p in rows for i in range(C.n0)
                      if C.entries[p][i] is not None})
    hits = []
    for v in anchors:
        count = 0
        for i in range(C.n0):
            ok = True
            for p in rows:
                e = C.entries[p][i]
                if e is None or wrap_sub(e, v, tau) > width:
                    ok = False
                    break
            if ok:
                count += 1
        if count >= min_cols:
            hits.append(v)
    return hits


def check_stb(C: Mat, p_acma: frozenset[int] | set[int], rp: Resolved) -> bool:
    """Stability condition: some n1-f1 filtered rows and n0-f0 columns whose
    entries all fit in one arc of length eps1."""
    k = rp.n1 - rp.f1
    if len(p_acma) < k:
        return False
    for rows in combinations(sorted(p_acma), k):
        if _window_hit(C, rows, rp.eps1, rp.n0 - rp.f0, rp.tau_max):
            return True
    return False


def check_weak(C: Mat, rp: Resolved) -> Optional[int]:
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
