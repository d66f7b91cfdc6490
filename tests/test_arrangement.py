import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import (
    Graph,
    LinearArrangement,
    all_arrangements,
    crossings,
    format_arrangement,
    from_edge_list,
    gen_family,
    parse_arrangement,
    random_arrangement,
    size_q,
)
from crossings.estimator import crossing_counts
from crossings.graphs import GraphFormatError


def crossings_unoriented(g, arr):
    # alternative predicate: exactly one endpoint of the second edge falls
    # strictly inside the first edge's interval
    pos = arr.pos
    c = 0
    for s, t, u, v in g.q_pairs():
        lo, hi = sorted((pos[s], pos[t]))
        inside = (lo < pos[u] < hi) + (lo < pos[v] < hi)
        c += inside == 1
    return c


def reflect(arr):
    # position p -> n + 1 - p: the arrangement read right to left
    n = arr.n
    return LinearArrangement([n + 1 - arr.pos[v] for v in range(1, n + 1)])


class TestLinearArrangement:
    def test_bijectivity_enforced(self):
        with pytest.raises(ValueError):
            LinearArrangement([1, 1, 3])

    def test_reversed(self):
        arr = LinearArrangement([1, 2, 3, 4])
        assert reflect(arr) == LinearArrangement([4, 3, 2, 1])
        assert reflect(reflect(arr)) == arr


class TestCrossings:
    def test_two_edges_interleaved(self):
        g = from_edge_list(4, [(1, 2), (3, 4)])
        # s u t v pattern crosses
        assert crossings(g, LinearArrangement([1, 3, 2, 4])) == 1
        # nested and disjoint patterns do not
        assert crossings(g, LinearArrangement([1, 4, 2, 3])) == 0
        assert crossings(g, LinearArrangement([1, 2, 3, 4])) == 0

    def test_complete_graph_constant(self):
        g = gen_family("complete", 6)
        values = {crossings(g, arr) for arr in all_arrangements(6)}
        assert values == {math.comb(6, 4)}

    def test_complete_binomial(self):
        for n in (4, 5, 6, 7):
            g = gen_family("complete", n)
            arr = LinearArrangement(range(1, n + 1))
            assert crossings(g, arr) == math.comb(n, 4)

    def test_fig3_maximal_one_regular(self):
        g = gen_family("one_regular", 8)
        arr = LinearArrangement([1, 5, 2, 6, 3, 7, 4, 8])
        assert crossings(g, arr) == 6 == size_q(g)

    def test_star_always_zero(self):
        g = gen_family("star", 6)
        assert all(crossings(g, a) == 0 for a in all_arrangements(6))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            crossings(gen_family("cycle", 5), LinearArrangement([1, 2, 3]))

    def test_reversal_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        from crossings import erdos_renyi

        for seed in range(10):
            g = erdos_renyi(9, 0.4, seed)
            arr = random_arrangement(9, rng)
            assert crossings(g, arr) == crossings(g, reflect(arr))

    def test_oriented_equals_unoriented(self):
        from crossings import erdos_renyi

        rng = np.random.Generator(np.random.PCG64(11))
        for seed in range(10):
            g = erdos_renyi(10, 0.35, seed)
            arr = random_arrangement(10, rng)
            assert crossings(g, arr) == crossings_unoriented(g, arr)

    def test_bounded_by_q_and_pairs(self):
        from crossings import erdos_renyi

        rng = np.random.Generator(np.random.PCG64(17))
        for seed in range(10):
            g = erdos_renyi(9, 0.5, seed)
            arr = random_arrangement(9, rng)
            c = crossings(g, arr)
            assert c <= size_q(g) <= math.comb(g.m, 2)


@st.composite
def graphs_with_arrangement(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(combinations(range(1, n + 1), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, keep in zip(pairs, picks) if keep])
    return g, draw(st.permutations(range(1, n + 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_arrangement())
def test_dihedral_invariance(case):
    # crossing depends only on the cyclic order of four endpoints, so C is
    # unchanged by reflecting (p -> n+1-p) or rotating (p -> p mod n + 1)
    g, pos = case
    n = g.n
    images = [pos, [n + 1 - p for p in pos], [p % n + 1 for p in pos]]
    expected = crossings(g, LinearArrangement(pos))
    for image in images[1:]:
        assert crossings(g, LinearArrangement(image)) == expected
    rows = crossing_counts(g, np.array(images, dtype=np.int16))
    assert rows.tolist() == [expected] * 3


class TestPermutationSources:
    def test_all_arrangements_count(self):
        assert sum(1 for _ in all_arrangements(3)) == 6

    def test_all_arrangements_distinct(self):
        seen = {a.pos for a in all_arrangements(4)}
        assert len(seen) == 24

    def test_exhaustive_mean_linear_tree5(self):
        g = gen_family("linear_tree", 5)
        total = sum(crossings(g, a) for a in all_arrangements(5))
        assert Fraction(total, math.factorial(5)) == 1  # |Q|/3 with |Q| = 3

    def test_random_arrangement_reproducible(self):
        a = random_arrangement(12, np.random.Generator(np.random.PCG64(33)))
        b = random_arrangement(12, np.random.Generator(np.random.PCG64(33)))
        assert a == b

    def test_random_arrangement_uniform_smoke(self):
        rng = np.random.Generator(np.random.PCG64(0))
        counts = {}
        for _ in range(6000):
            key = random_arrangement(3, rng).pos
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6  # all 3! patterns appear
        assert min(counts.values()) > 800  # ~1000 each under uniformity


class TestArrangementFormat:
    def test_round_trip(self):
        arr = LinearArrangement([2, 4, 1, 3])
        assert parse_arrangement(format_arrangement(arr)) == arr

    def test_bad_entries(self):
        with pytest.raises(GraphFormatError):
            parse_arrangement("1 2 x")

    def test_non_permutation(self):
        with pytest.raises(GraphFormatError):
            parse_arrangement("1 1 2")
