"""Circular clock algebra over the tick ring [0, tau_max).

All clock and record values live on an integer ring; the operations here
give them a consistent arithmetic (modular add/subtract), a symmetric
distance, and an ordering/median convention based on cutting the ring at
its largest empty arc.  Everything is exact integer arithmetic.

The modular operations take ring values, already in [0, tau_max), and do
not check them: values are put on the ring where they enter the program
(derived constants, initial states, the adversary hooks), and the ring
cut behind every median and average (circ_sort, ring_med) still rejects
an off-ring value.

The per-round hot paths write wrap_add, wrap_sub and ring_dist inline as
`% tau`: the terminal steps and the switch's round decision in
protocol.py, and accuracy_check, the window search, check_weak and the
circular mean in ftcore.  That is exact: Python's % is the floored
modulo, so (a % tau + b) % tau == (a + b) % tau for all integers a and b,
and a chain of wraps equals one % of the plain sum or difference, which
lands on the ring.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import ConfigurationError

__all__ = [
    "wrap_add",
    "wrap_sub",
    "ring_dist",
    "circ_sort",
    "ring_med",
]


def wrap_add(a: int, b: int, tau_max: int) -> int:
    """(a + b) mod tau_max, for a and b in [0, tau_max)."""
    return (a + b) % tau_max


def wrap_sub(a: int, b: int, tau_max: int) -> int:
    """(a - b) mod tau_max, always non-negative, for a and b in [0, tau_max)."""
    return (a - b) % tau_max


def ring_dist(a: int, b: int, tau_max: int) -> int:
    """Symmetric ring distance min{a - b, b - a} (mod tau_max), for a and b
    in [0, tau_max)."""
    d = (a - b) % tau_max
    return min(d, tau_max - d)


def _cut(vals: list[int], tau_max: int) -> int:
    """Where the circular order of the ascending `vals` starts: the index
    just past the largest gap between adjacent values.  The wrap gap, from
    vals[-1] round to vals[0], starts the order at the smallest value, so it
    wins every tie; among inner gaps the first does."""
    if not vals:
        raise ValueError("circ_sort of an empty multiset")
    lo, hi = vals[0], vals[-1]   # sorted, so the ends bound every value
    if tau_max < 2:
        raise ConfigurationError(f"ring modulus must be >= 2, got {tau_max}")
    if lo < 0 or hi >= tau_max:
        raise ConfigurationError(f"value {lo if lo < 0 else hi} outside ring [0, {tau_max})")
    widest, cut = tau_max - (hi - lo), 0
    if 2 * widest >= tau_max:
        return 0   # the inner gaps sum to hi - lo, so none is wider
    for k in range(1, len(vals)):
        gap = vals[k] - vals[k - 1]
        if gap > widest:
            widest, cut = gap, k
    return cut


def circ_sort(values: Iterable[int], tau_max: int) -> list[int]:
    """Order ring values along the arc that excludes the largest gap.

    The ring is cut at the largest gap between adjacent values; ties are
    broken by choosing the cut after which the first output value is
    smallest.  The result is ascending along the remaining arc, which makes
    "median" and "trim extremes" well defined for clustered circular values.
    """
    vals = sorted(values)
    cut = _cut(vals, tau_max)
    return vals[cut:] + vals[:cut] if cut else vals


def ring_med(values: Iterable[int], tau_max: int) -> int:
    """Ring median: the lower-middle element of the circularly sorted values.

    Always returns an attained input value, so equality tests against the
    median are meaningful.
    """
    vals = sorted(values)
    if vals:
        # _cut's first answer, after its range and modulus checks: values
        # that span at most half the ring leave the wrap gap widest, cut 0.
        lo, hi = vals[0], vals[-1]
        if 0 <= lo and hi < tau_max and 2 * (hi - lo) <= tau_max and tau_max > 1:
            return vals[(len(vals) - 1) // 2]
    cut = _cut(vals, tau_max)
    return vals[(cut + (len(vals) - 1) // 2) % len(vals)]


def unwrap(ordered: Sequence[int], tau_max: int) -> list[int]:
    """Offsets of circularly sorted values from the arc start."""
    if not ordered:
        raise ValueError("unwrap of an empty sequence")
    start = ordered[0]
    return [(v - start) % tau_max for v in ordered]
