"""Tests for bound-set selection."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.bdd import FALSE, BddManager
from repro.decompose import compute_classes, count_classes, select_bound_set


def adder_like(m: BddManager):
    # f = (a0 & b0) | (a1 & b1) | (a2 & b2): pairing ai with bi decomposes
    # beautifully; splitting the pairs does not.
    pairs = []
    for j in range(3):
        pairs.append(m.apply_and(m.var_at_level(2 * j), m.var_at_level(2 * j + 1)))
    f = pairs[0]
    for p in pairs[1:]:
        f = m.apply_or(f, p)
    return f


class TestSelectBoundSet:
    def test_finds_good_pairing(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 2)
        # Any {2j, 2j+1} pair yields exactly 2 classes.
        assert vp.num_classes == 2
        assert vp.bound_levels in {(0, 1), (2, 3), (4, 5)}

    def test_free_levels_complement(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 2)
        assert sorted(vp.bound_levels + vp.free_levels) == list(range(6))

    def test_greedy_path(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(
            m, f, list(range(6)), 2, exhaustive_limit=1
        )
        # Greedy + swap still find an optimal pair here.
        assert vp.num_classes == 2

    def test_forbidden_levels_respected(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 2, forbidden=[0, 1])
        assert 0 not in vp.bound_levels and 1 not in vp.bound_levels

    def test_forbidden_relaxed_when_starved(self):
        m = BddManager(4)
        f = adder_like_sub = m.apply_and(m.var_at_level(0), m.var_at_level(1))
        f = m.apply_or(f, m.apply_and(m.var_at_level(2), m.var_at_level(3)))
        # Forbid almost everything: selection must still succeed.
        vp = select_bound_set(m, f, [0, 1, 2, 3], 2, forbidden=[0, 1, 2])
        assert len(vp.bound_levels) == 2

    def test_preferred_free_breaks_ties(self):
        m = BddManager(6)
        f = adder_like(m)
        # All three pairs tie at 2 classes; penalising {0,1} should move
        # the choice to another pair.
        vp = select_bound_set(
            m, f, list(range(6)), 2, preferred_free=[0, 1]
        )
        assert vp.bound_levels != (0, 1)

    def test_bound_size_too_large(self):
        m = BddManager(3)
        f = m.var_at_level(0)
        with pytest.raises(ValueError):
            select_bound_set(m, f, [0, 1, 2], 3)

    def test_reported_count_is_truthful(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 3)
        assert vp.num_classes == count_classes(m, f, list(vp.bound_levels))


N = 6


def random_function(m: BddManager, rng: random.Random) -> int:
    return m.from_truth_table(rng.getrandbits(1 << N), list(range(N)))


def random_dontcares(m: BddManager, rng: random.Random, f: int) -> int:
    # A dc-set disjoint from the on-set.
    return m.apply_and(random_function(m, rng), m.apply_not(f))


class TestReportedCountMatchesReference:
    """``num_classes`` against the uncached BDD count of the chosen bound.

    Counts come straight from the search backend (the packed backend
    memoizes them process-wide), so every backend and every repeated
    query must agree with a fresh cofactor enumeration.
    """

    @pytest.mark.parametrize("fast_path", ["bdd", "auto"])
    def test_random_functions_without_dontcares(self, fast_path):
        rng = random.Random(1)
        m = BddManager(N)
        for _ in range(25):
            f = random_function(m, rng)
            size = rng.randint(1, 4)
            vp = select_bound_set(
                m, f, list(range(N)), size, fast_path=fast_path
            )
            expected = count_classes(
                m, f, list(vp.bound_levels), fast_path="bdd"
            )
            assert vp.num_classes == expected
            # A repeated query (memo-served on the packed backend)
            # returns the same partition.
            assert select_bound_set(
                m, f, list(range(N)), size, fast_path=fast_path
            ) == vp

    @pytest.mark.parametrize("fast_path", ["bdd", "auto"])
    def test_random_functions_with_dontcares_syntactic(self, fast_path):
        rng = random.Random(2)
        m = BddManager(N)
        for _ in range(25):
            f = random_function(m, rng)
            dc = random_dontcares(m, rng, f)
            vp = select_bound_set(
                m, f, list(range(N)), rng.randint(1, 4), dc=dc,
                use_dontcares=False, fast_path=fast_path,
            )
            # Distinct (on, dc) column pairs, no merging.
            expected = count_classes(
                m, f, list(vp.bound_levels), dc, use_dontcares=False,
                fast_path="bdd",
            )
            assert vp.num_classes == expected

    @pytest.mark.parametrize("fast_path", ["bdd", "auto"])
    def test_random_functions_with_dontcares_merged(self, fast_path):
        rng = random.Random(4)
        m = BddManager(N)
        for _ in range(15):
            f = random_function(m, rng)
            dc = random_dontcares(m, rng, f)
            vp = select_bound_set(
                m, f, list(range(N)), rng.randint(1, 4), dc=dc,
                fast_path=fast_path,
            )
            expected = compute_classes(
                m, f, list(vp.bound_levels), dc, True, fast_path="bdd"
            ).num_classes
            assert vp.num_classes == expected

    def test_no_dontcares_means_no_merge(self):
        m = BddManager(N)
        f = m.apply_and(m.var_at_level(0), m.var_at_level(1))
        merged = select_bound_set(m, f, list(range(N)), 2)
        plain = select_bound_set(
            m, f, list(range(N)), 2, use_dontcares=False
        )
        assert merged.num_classes == plain.num_classes

    @pytest.mark.parametrize("exhaustive_limit", [512, 1])
    def test_permuted_bound_sets(self, exhaustive_limit):
        rng = random.Random(3)
        m = BddManager(N)
        for _ in range(10):
            f = random_function(m, rng)
            vp = select_bound_set(
                m, f, list(range(N)), 3, exhaustive_limit=exhaustive_limit
            )
            # The syntactic count ignores the order of the bound set ...
            for perm in itertools.permutations(vp.bound_levels):
                assert count_classes(m, f, list(perm), fast_path="bdd") \
                    == vp.num_classes
            # ... and the selection ignores the order of the support.
            support = list(range(N))
            rng.shuffle(support)
            shuffled = select_bound_set(
                m, f, support, 3, exhaustive_limit=exhaustive_limit
            )
            assert shuffled.bound_levels == vp.bound_levels
            assert shuffled.num_classes == vp.num_classes
