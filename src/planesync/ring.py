"""Circular clock algebra over the tick ring [0, tau_max).

All clock and record values live on an integer ring; the operations here
give them a consistent arithmetic (modular add/subtract), a symmetric
distance, and an ordering/median convention based on cutting the ring at
its largest empty arc.  Everything is exact integer arithmetic.

The modular operations take ring values, already in [0, tau_max), and do
not check them: values are put on the ring where they enter the program
(derived constants, initial states, the adversary hooks), and circ_sort,
through which every median and average passes, still rejects an
off-ring value.
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


def check_ring_value(v: int, tau_max: int) -> None:
    if tau_max < 2:
        raise ConfigurationError(f"ring modulus must be >= 2, got {tau_max}")
    if not (0 <= v < tau_max):
        raise ConfigurationError(f"value {v} outside ring [0, {tau_max})")


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


def circ_sort(values: Iterable[int], tau_max: int) -> list[int]:
    """Order ring values along the arc that excludes the largest gap.

    The ring is cut at the largest gap between adjacent values; ties are
    broken by choosing the cut after which the first output value is
    smallest.  The result is ascending along the remaining arc, which makes
    "median" and "trim extremes" well defined for clustered circular values.
    """
    vals = sorted(values)
    if not vals:
        raise ValueError("circ_sort of an empty multiset")
    # Sorted, so the ends bound every value.
    check_ring_value(vals[0], tau_max)
    check_ring_value(vals[-1], tau_max)
    # The wrap gap, from vals[-1] round to vals[0], starts the output at the
    # smallest value, so it wins every tie; among inner gaps the first does.
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    widest = max(gaps, default=0)
    if tau_max - (vals[-1] - vals[0]) >= widest:
        return vals
    cut = gaps.index(widest) + 1
    return vals[cut:] + vals[:cut]


def ring_med(values: Iterable[int], tau_max: int) -> int:
    """Ring median: the lower-middle element of the circularly sorted values.

    Always returns an attained input value, so equality tests against the
    median are meaningful.
    """
    ordered = circ_sort(values, tau_max)
    return ordered[(len(ordered) - 1) // 2]


def unwrap(ordered: Sequence[int], tau_max: int) -> list[int]:
    """Offsets of circularly sorted values from the arc start."""
    if not ordered:
        raise ValueError("unwrap of an empty sequence")
    start = ordered[0]
    return [(v - start) % tau_max for v in ordered]
