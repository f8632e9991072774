"""Fault-tolerant computational core.

Median/reduce/select averaging over circular clock values, the randomized
variant that occasionally hops onto a single plane's clock, the accuracy
and majority filters, and the two guarded conditions that decide whether a
master switch treats the system as (possibly) synchronized.

Relay convention: the decision functions take the relays' own vectors,
one per relay received, in any order; vec[p] is the entry about plane p
and None marks a missing one.  Missing entries are skipped by medians and
disqualify their relay in window searches: absence is evidence of fault
and must never help satisfy a condition.  fta, rft, filters, check_stb and
check_weak each depend only on the multiset of vectors, and an all-None
vector changes none of them, so neither the order relays arrive in nor a
terminal that sent nothing can move a result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Iterator, Optional, Sequence

from .errors import FaultBudgetError
from .params import Resolved
from .ring import circ_sort, ring_med, unwrap

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

Relays = Sequence[Sequence[Optional[int]]]


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
    return _arc_mean(circ_sort(values, tau_max), tau_max)


def _arc_mean(ordered: list[int], tau_max: int) -> int:
    """circ_mean of values already in circ_sort order."""
    s, n = sum(unwrap(ordered, tau_max)), len(ordered)
    rounded = -((n - 2 * s) // (2 * n))   # ceil(s/n - 1/2), exactly
    return (ordered[0] + rounded) % tau_max


def fta_values(values: list[int], f: int, tau_max: int) -> int:
    """Reduce-select-mean over an already-aggregated value sequence.

    msr_reduce returns circ_sort order, and trimming both ends of a circular
    order leaves the circ_sort order of what is left: the gap the order
    skips only widens, and where it still ties an inner gap, the trimmed
    values equal the ends that stay, so the same gap wins the tie.  For
    f <= 1 the select's step is 1 and keeps every value, so neither the
    select nor a second sort is needed then.
    """
    kept = msr_reduce(values, f, tau_max)
    return _arc_mean(kept, tau_max) if f <= 1 else circ_mean(msr_select(kept, f), tau_max)


def fta(C: Relays, rp: Resolved) -> Optional[int]:
    """Deterministic fault-tolerant average of the relayed clock estimates.

    The median of each relay's present entries (a relay needs at least
    n1-f1 of them), then reduce/select/mean over the medians; None when
    fewer than 2f0+1 relays are usable.
    """
    tau, need = rp.tau_max, rp.n1 - rp.f1
    medians = []
    for vec in C:
        present = vec if None not in vec else [v for v in vec if v is not None]
        if len(present) >= need:
            medians.append(ring_med(present, tau))
    if len(medians) < 2 * rp.f0 + 1:
        return None
    return fta_values(medians, rp.f0, tau)


def rft(C: Relays, c_pre: int, p0: Fraction | float, rng: Random, rp: Resolved) -> Optional[int]:
    """Randomized choice between the averaging result and a single reference.

    With probability p0 the deterministic average (None when fta has too
    few relays); otherwise a uniform pick among the three plane medians
    (validate admits only n1 = 3) and the previous clock value.  Exactly one
    rng draw decides the branch and one more picks the reference.  p0 may be
    the exact cut DerivedParams.p0_cut, which decides every draw the same way.
    """
    if rng.random() < p0:
        return fta(C, rp)
    candidates = []
    for p in range(rp.n1):
        present = [vec[p] for vec in C if vec[p] is not None]
        # No entries about plane p, no reference: fall back to the previous clock.
        candidates.append(ring_med(present, rp.tau_max) if present else c_pre)
    candidates.append(c_pre)
    return candidates[rng.randrange(4)]


def hw_accuracy_threshold(rp: Resolved) -> int:
    """Hardware-clock deviation bound of the accuracy condition, in ticks;
    resolved once by params.derive.  No code in src/ calls it:
    accuracy_check reads the bound itself.  It stays because
    bench/tracer.py looks it up by name."""
    return rp.dv.hw_acc_bound


def accuracy_check(m_curr: int, m_pre: int, h_curr: int, h_pre: int, rp: Resolved) -> bool:
    """True iff consecutive records look like one synchronization cycle apart:
    each reading within its bound of ring distance (ring.ring_dist, inlined)
    from the previous one advanced by T."""
    tau, T = rp.tau_max, rp.T
    d = (m_curr - m_pre - T) % tau
    if min(d, tau - d) > 2 * rp.eps0:
        return False
    d = (h_curr - h_pre - T) % tau
    return min(d, tau - d) <= rp.dv.hw_acc_bound


def update_acc_counter(counter: int, ok: bool, a0: int) -> int:
    return min(counter + 1, a0) if ok else 0


def filters(M: Relays, A: Relays, rp: Resolved) -> frozenset[int]:
    """The planes that pass both the accuracy filter (n0-f0 counters at a0)
    and the majority filter (n0-f0 records equal to the plane's median)."""
    need, a0, tau = rp.n0 - rp.f0, rp.a0, rp.tau_max
    passed = []
    for p in range(rp.n1):
        at_a0 = 0
        for a in A:
            if a[p] == a0:
                at_a0 += 1
        if at_a0 < need:
            continue
        present = [m[p] for m in M if m[p] is not None]
        if present and present.count(ring_med(present, tau)) >= need:
            passed.append(p)
    return frozenset(passed)


def _window_hit(C: Relays, planes: tuple[int, ...], width: int, min_relays: int,
                tau: int) -> Iterator[int]:
    """Anchors v, ascending, for which >= min_relays relays have all their
    `planes` entries present and inside the arc [v, v + width]; lazily, so a
    caller that needs one hit stops at it.

    Any maximal qualifying window can be shifted until its start coincides
    with an attained entry, so anchoring at entries is lossless; the anchors
    come from the `planes` entries of every relay, full or not.  An entry e
    lies in the arc iff (e - v) mod tau <= width (ring.wrap_sub, inlined).
    """
    full, anchors = [], set()
    for vec in C:
        entries = [vec[p] for p in planes]
        anchors.update(entries)
        if None not in entries:
            full.append(entries)
    if len(full) < min_relays:
        return
    anchors.discard(None)
    for v in sorted(anchors):
        hits = 0
        for entries in full:
            for e in entries:
                if (e - v) % tau > width:
                    break
            else:
                hits += 1
        if hits >= min_relays:
            yield v


def check_stb(C: Relays, p_acma: frozenset[int] | set[int], rp: Resolved) -> bool:
    """Stability condition: some n1-f1 filtered planes and n0-f0 relays whose
    entries about them all fit in one arc of length eps1."""
    k = rp.n1 - rp.f1
    if len(p_acma) < k:
        return False
    width, min_relays, tau = rp.eps1, rp.n0 - rp.f0, rp.tau_max
    for planes in combinations(sorted(p_acma), k):
        for _v in _window_hit(C, planes, width, min_relays, tau):
            return True
    return False


def check_weak(C: Relays, rp: Resolved) -> Optional[int]:
    """Weak reference: a center within eps2/2 of the entries about n1-f1
    planes (unfiltered) from n0-2f0 relays; None when no window qualifies.

    Centers are integers, so the effective half-width is floor(eps2/2).
    The returned center comes from the qualifying window whose start is
    smallest in circular order.
    """
    k, tau = rp.n1 - rp.f1, rp.tau_max
    half = rp.eps2 // 2
    starts: set[int] = set()
    for planes in combinations(range(rp.n1), k):
        starts.update(_window_hit(C, planes, 2 * half, rp.n0 - 2 * rp.f0, tau))
    if not starts:
        return None
    return (circ_sort(starts, tau)[0] + half) % tau
