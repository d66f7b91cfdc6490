import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import (
    Graph,
    LinearArrangement,
    crossings,
    exhaustive_moments,
    gen_family,
    parse_arrangement,
    size_q,
)
from crossings._counters import _class_representatives, _class_table
from crossings.estimator import crossing_counts, exhaustive_rows
from crossings.graphs import GraphFormatError


def unoriented_counts(g, rows):
    # alternative predicate over rows of positions (column i-1 holds the
    # position of vertex i): independent edges cross iff exactly one
    # endpoint of the second falls strictly inside the first's interval
    c = np.zeros(len(rows), dtype=np.int64)
    for (s, t), (u, v) in combinations(g.edges, 2):
        if {s, t} & {u, v}:
            continue
        lo = np.minimum(rows[:, s - 1], rows[:, t - 1])
        hi = np.maximum(rows[:, s - 1], rows[:, t - 1])
        inside = ((lo < rows[:, u - 1]) & (rows[:, u - 1] < hi)).astype(np.int64)
        inside += (lo < rows[:, v - 1]) & (rows[:, v - 1] < hi)
        c += inside == 1
    return c


def crossings_unoriented(g, arr):
    return int(unoriented_counts(g, np.array([arr.pos[1:]]))[0])


def all_position_rows(n):
    # all n! arrangements, one row each
    return np.array(list(permutations(range(1, n + 1))),
                    dtype=np.int64).reshape(math.factorial(n), n)


def reflect(arr):
    # position p -> n + 1 - p: the arrangement read right to left
    n = arr.n
    return LinearArrangement([n + 1 - arr.pos[v] for v in range(1, n + 1)])


class TestLinearArrangement:
    def test_bijectivity_enforced(self):
        with pytest.raises(ValueError):
            LinearArrangement([1, 1, 3])

    def test_immutable(self):
        # setting pos would bypass the permutation check and change the hash
        arr = LinearArrangement([2, 1, 3])
        before = hash(arr)
        with pytest.raises(AttributeError, match="immutable"):
            arr.pos = (0, 1, 2, 3)
        assert arr.pos == (0, 2, 1, 3) and hash(arr) == before

    def test_reversed(self):
        arr = LinearArrangement([1, 2, 3, 4])
        assert reflect(arr) == LinearArrangement([4, 3, 2, 1])
        assert reflect(reflect(arr)) == arr


class TestCrossings:
    def test_two_edges_interleaved(self):
        g = Graph(4, [(1, 2), (3, 4)])
        # s u t v pattern crosses
        assert crossings(g, LinearArrangement([1, 3, 2, 4])) == 1
        # nested and disjoint patterns do not
        assert crossings(g, LinearArrangement([1, 4, 2, 3])) == 0
        assert crossings(g, LinearArrangement([1, 2, 3, 4])) == 0

    def test_complete_graph_constant(self):
        g = gen_family("complete", 6)
        values = {crossings(g, LinearArrangement(p)) for p in permutations(range(1, 7))}
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
        assert all(crossings(g, LinearArrangement(p)) == 0
                   for p in permutations(range(1, 7)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            crossings(gen_family("cycle", 5), LinearArrangement([1, 2, 3]))

    def test_reversal_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        from crossings import erdos_renyi

        for seed in range(10):
            g = erdos_renyi(9, 0.4, seed)
            arr = LinearArrangement((rng.permutation(9) + 1).tolist())
            assert crossings(g, arr) == crossings(g, reflect(arr))

    def test_oriented_equals_unoriented(self):
        from crossings import erdos_renyi

        rng = np.random.Generator(np.random.PCG64(11))
        for seed in range(10):
            g = erdos_renyi(10, 0.35, seed)
            arr = LinearArrangement((rng.permutation(10) + 1).tolist())
            assert crossings(g, arr) == crossings_unoriented(g, arr)

    def test_bounded_by_q_and_pairs(self):
        from crossings import erdos_renyi

        rng = np.random.Generator(np.random.PCG64(17))
        for seed in range(10):
            g = erdos_renyi(9, 0.5, seed)
            arr = LinearArrangement((rng.permutation(9) + 1).tolist())
            c = crossings(g, arr)
            assert c <= size_q(g) <= math.comb(g.m, 2)


@st.composite
def graphs(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, picks) if keep])


@st.composite
def graphs_with_arrangement(draw):
    g = draw(graphs())
    return g, draw(st.permutations(range(1, g.n + 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_arrangement())
def test_crossings_matches_oracle(case):
    g, pos = case
    assert crossings(g, LinearArrangement(pos)) == crossings_unoriented(
        g, LinearArrangement(pos))


def assert_exhaustive_matches_oracle(g):
    # every one of the n! arrangements, counted by the test-local oracle
    c = unoriented_counts(g, all_position_rows(g.n))
    total = math.factorial(g.n)
    mean = Fraction(int(c.sum()), total)
    var = Fraction(int((c * c).sum()), total) - mean * mean
    rep = exhaustive_moments(g)
    assert (rep.mean, rep.variance, rep.samples) == (mean, var, total)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs(min_n=4, max_n=8))
def test_exhaustive_moments_match_oracle_enumeration(g):
    assert_exhaustive_matches_oracle(g)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_exhaustive_moments_match_oracle_enumeration_small(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for keep in range(2 ** len(pairs)):
        g = Graph(n, [e for i, e in enumerate(pairs) if keep >> i & 1])
        assert_exhaustive_matches_oracle(g)


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


def streamed_representatives(n):
    return np.concatenate(list(_class_representatives(n)))


def cached_representatives(n):
    return _class_table(n).T


class TestPermutationSources:
    # both sources of the rows exhaustive_moments counts: the chunks
    # streamed above DEFAULT_EXHAUSTIVE_LIMIT, and the table kept below it
    @pytest.fixture(params=[streamed_representatives, cached_representatives],
                    ids=["streamed", "cached"])
    def representatives(self, request):
        return request.param

    def test_dihedral_representatives_count(self, representatives):
        for n in range(3, 11):
            rows = representatives(n)
            assert rows.shape == (math.factorial(n - 1) // 2, n)
            assert len(rows) == exhaustive_rows(n)

    def test_dihedral_representatives_one_per_class(self, representatives):
        # the 2n rotations and reflections of every arrangement meet the
        # representatives exactly once
        for n in range(3, 8):
            reps = {tuple(r) for r in representatives(n).tolist()}
            assert len(reps) == math.factorial(n - 1) // 2
            for perm in permutations(range(1, n + 1)):
                rotations = [tuple((p + k) % n + 1 for p in perm) for k in range(n)]
                orbit = set(rotations) | {tuple(n + 1 - p for p in r) for r in rotations}
                assert len(orbit) == 2 * n
                assert len(orbit & reps) == 1

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cached_rows_equal_streamed_rows(self, n):
        # as sets of rows: the order in which they are counted is free
        def sorted_keys(rows):
            return np.sort(rows.astype(np.int64) @ (n + 1) ** np.arange(n))

        cached, streamed = cached_representatives(n), streamed_representatives(n)
        assert cached.shape == streamed.shape
        assert np.array_equal(sorted_keys(cached), sorted_keys(streamed))

    def test_exhaustive_mean_linear_tree5(self):
        g = gen_family("linear_tree", 5)
        total = sum(crossings(g, LinearArrangement(p)) for p in permutations(range(1, 6)))
        assert Fraction(total, math.factorial(5)) == 1  # |Q|/3 with |Q| = 3


class TestArrangementFormat:
    def test_round_trip(self):
        assert parse_arrangement("2 4 1 3\n") == LinearArrangement([2, 4, 1, 3])

    def test_bad_entries(self):
        with pytest.raises(GraphFormatError):
            parse_arrangement("1 2 x")

    def test_non_permutation(self):
        with pytest.raises(GraphFormatError):
            parse_arrangement("1 1 2")
