"""Ring algebra unit tests and brute-force oracles."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from planesync.errors import ConfigurationError
from planesync.ring import circ_sort, ring_dist, ring_med, wrap_add, wrap_sub


def brute_circ_sort(values, tau_max):
    """Try all rotations of the ascending ordering; keep the one whose
    preceding gap is largest, ties to the smallest first element."""
    vals = sorted(values)
    n = len(vals)
    best = None
    for cut in range(n):
        rot = vals[cut:] + vals[:cut]
        gap = (rot[0] - vals[cut - 1]) % tau_max if n > 1 else 0
        key = (-gap, rot[0])
        if best is None or key < best[0]:
            best = (key, rot)
    return best[1]


def brute_ring_med(values, tau_max):
    rot = brute_circ_sort(values, tau_max)
    return rot[(len(rot) - 1) // 2]


class TestWrapOps:
    @pytest.mark.parametrize("a,b,tau,want", [(90, 20, 100, 10), (0, 0, 100, 0), (999, 1, 1000, 0)])
    def test_wrap_add_examples(self, a, b, tau, want):
        assert wrap_add(a, b, tau) == want

    @pytest.mark.parametrize("a,b,tau,want", [(10, 90, 100, 20), (5, 5, 100, 0), (0, 1, 1000, 999)])
    def test_wrap_sub_examples(self, a, b, tau, want):
        assert wrap_sub(a, b, tau) == want

    @pytest.mark.parametrize("a,b,tau,want", [(95, 5, 100, 10), (5, 5, 100, 0), (0, 50, 100, 50)])
    def test_ring_dist_examples(self, a, b, tau, want):
        assert ring_dist(a, b, tau) == want

    def test_out_of_range_rejected(self):
        # wrap_* take ring values unchecked; the sort behind every median
        # and average still rejects a value off the ring, or a modulus < 2.
        for vals in ([3, 100], [-1], [100, 3, 50]):
            with pytest.raises(ConfigurationError):
                circ_sort(vals, 100)
            with pytest.raises(ConfigurationError):
                ring_med(vals, 100)
        for op in (circ_sort, ring_med):
            with pytest.raises(ConfigurationError):
                op([0], 1)

    def test_add_sub_inverse_exhaustive(self):
        for tau in range(2, 65):
            for a in range(tau):
                for b in range(tau):
                    assert wrap_sub(wrap_add(a, b, tau), b, tau) == a

    def test_dist_triangle_exhaustive(self):
        for tau in range(2, 33):
            for a in range(tau):
                for b in range(tau):
                    for c in range(tau):
                        assert ring_dist(a, c, tau) <= ring_dist(a, b, tau) + ring_dist(b, c, tau)


class TestCircSort:
    @pytest.mark.parametrize("vals,tau,want", [
        ([98, 2, 4], 100, [98, 2, 4]),
        ([7, 7, 7], 100, [7, 7, 7]),
        ([0, 25, 50, 75], 100, [0, 25, 50, 75]),
    ])
    def test_examples(self, vals, tau, want):
        assert circ_sort(vals, tau) == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circ_sort([], 100)

    def test_output_excludes_largest_gap(self):
        # The arc from first to last output element never contains the cut gap.
        import random
        rng = random.Random(7)
        for _ in range(500):
            tau = rng.randrange(4, 200)
            vals = [rng.randrange(tau) for _ in range(rng.randrange(1, 8))]
            out = circ_sort(vals, tau)
            span = (out[-1] - out[0]) % tau
            assert all((v - out[0]) % tau <= span for v in out)


class TestRingMed:
    @pytest.mark.parametrize("vals,tau,want", [
        ([10, 12, 14], 100, 12),
        ([98, 2, 4], 100, 2),
        ([1, 3, 5, 7], 100, 3),
    ])
    def test_examples(self, vals, tau, want):
        assert ring_med(vals, tau) == want

    def test_membership(self):
        import random
        rng = random.Random(11)
        for _ in range(500):
            tau = rng.randrange(2, 128)
            vals = [rng.randrange(tau) for _ in range(rng.randrange(1, 9))]
            assert ring_med(vals, tau) in vals

    @given(st.integers(8, 64).flatmap(
        lambda tau: st.tuples(
            st.just(tau),
            st.lists(st.integers(0, tau - 1), min_size=1, max_size=6),
            st.integers(0, tau - 1),
        )))
    def test_rotation_equivariance(self, case):
        tau, vals, k = case
        ordered = sorted(vals)
        gaps = sorted(
            ((ordered[(j + 1) % len(ordered)] - ordered[j]) % tau for j in range(len(ordered))),
            reverse=True,
        )
        if len(gaps) > 1 and gaps[0] == gaps[1]:
            return  # ambiguous cut: equivariance only promised for a unique largest gap
        shifted = [(v + k) % tau for v in vals]
        assert ring_med(shifted, tau) == (ring_med(vals, tau) + k) % tau

    def test_against_brute_force_random(self):
        import random
        rng = random.Random(13)
        for _ in range(2000):
            tau = rng.randrange(2, 65)
            vals = [rng.randrange(tau) for _ in range(rng.randrange(1, 6))]
            assert circ_sort(vals, tau) == brute_circ_sort(vals, tau)
            assert ring_med(vals, tau) == brute_ring_med(vals, tau)


class TestSmallInputsExhaustive:
    """Every multiset of 1-4 values on every ring of 2..9 ticks: the round
    decision only takes medians of that many values."""

    def test_against_brute_force(self):
        ties = 0
        for tau in range(2, 10):
            for n in range(1, 5):
                for ascending in combinations_with_replacement(range(tau), n):
                    vals = list(reversed(ascending))
                    assert circ_sort(vals, tau) == brute_circ_sort(vals, tau)
                    assert ring_med(vals, tau) == brute_ring_med(vals, tau)
                    gaps = [(b - a) % tau for a, b in zip(ascending, ascending[1:])]
                    gaps.append(tau - (ascending[-1] - ascending[0]))
                    ties += n > 1 and gaps.count(max(gaps)) > 1
        assert ties > 0   # equal-gap ties are among the cases

    def test_off_ring_value_rejected(self):
        for tau in range(2, 10):
            for vals in ([tau], [-1], [0, tau], [tau - 1, -1, 0, 1]):
                with pytest.raises(ConfigurationError):
                    ring_med(vals, tau)
                with pytest.raises(ConfigurationError):
                    circ_sort(vals, tau)
