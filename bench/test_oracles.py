"""Checks of the benchmark's oracles on tiny graphs, by enumeration.

Run with `python3 -m pytest bench -q` from the repository root.
"""

from fractions import Fraction
from itertools import combinations, permutations
import math
import random

import pytest

import oracles


def path(n):
    return [(i, i + 1) for i in range(1, n)]


def cycle(n):
    return path(n) + [(1, n)]


def star(n):
    return [(1, v) for v in range(2, n + 1)]


def bipartite(a, b):
    return [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)]


def random_graphs(count, n_max=7, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, n_max)
        pairs = list(combinations(range(1, n + 1), 2))
        yield n, sorted(rng.sample(pairs, rng.randint(2, len(pairs))))


def test_q_size_matches_counting_disjoint_pairs():
    for n, edges in random_graphs(40):
        disjoint = sum(1 for e, f in combinations(edges, 2) if not set(e) & set(f))
        assert oracles.q_size(n, edges) == disjoint


def test_count_crossings_by_hand():
    k4 = list(combinations(range(1, 5), 2))
    identity = [0, 1, 2, 3, 4]
    assert oracles.count_crossings(k4, identity) == 1  # only 13 and 24 cross
    assert oracles.count_crossings(path(6), list(range(7))) == 0
    # 1 and 3 at positions 1 and 3, 2 and 4 at positions 2 and 4
    assert oracles.count_crossings([(1, 3), (2, 4)], [0, 1, 2, 3, 4]) == 1
    assert oracles.count_crossings([(1, 4), (2, 3)], [0, 1, 2, 3, 4]) == 0


def test_enumeration_agrees_with_count_crossings():
    for n, edges in random_graphs(10, n_max=6):
        counts = [oracles.count_crossings(edges, (0,) + p)
                  for p in permutations(range(1, n + 1))]
        mean = Fraction(sum(counts), len(counts))
        var = Fraction(sum(c * c for c in counts), len(counts)) - mean * mean
        assert oracles.enumerate_moments(n, edges) == (mean, var)


def test_enumeration_mean_is_a_third_of_q():
    for n, edges in random_graphs(20):
        mean, _ = oracles.enumerate_moments(n, edges)
        assert mean == Fraction(oracles.q_size(n, edges), 3)


@pytest.mark.parametrize("n", range(2, 8))
def test_path_and_star_closed_forms(n):
    assert oracles.path_moments(n) == oracles.enumerate_moments(n, path(n))
    assert oracles.star_moments(n) == oracles.enumerate_moments(n, star(n))


@pytest.mark.parametrize("n", range(3, 8))
def test_cycle_closed_form(n):
    assert oracles.cycle_moments(n) == oracles.enumerate_moments(n, cycle(n))


@pytest.mark.parametrize("a,b", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4)])
def test_bipartite_closed_form(a, b):
    assert oracles.bipartite_moments(a, b) == oracles.enumerate_moments(a + b, bipartite(a, b))


# one representative ordered pair of Q elements per product type
REPRESENTATIVES = {
    "24": ([(1, 2), (3, 4)], [(1, 2), (3, 4)]),
    "13": ([(1, 2), (3, 4)], [(1, 2), (3, 5)]),
    "12": ([(1, 2), (3, 4)], [(1, 2), (5, 6)]),
    "04": ([(1, 2), (3, 4)], [(1, 3), (2, 4)]),
    "03": ([(1, 2), (3, 4)], [(2, 3), (4, 5)]),
    "021": ([(1, 2), (3, 4)], [(2, 3), (5, 6)]),
    "022": ([(1, 2), (3, 4)], [(2, 5), (4, 6)]),
    "01": ([(1, 2), (3, 4)], [(2, 5), (6, 7)]),
    "00": ([(1, 2), (3, 4)], [(5, 6), (7, 8)]),
}


@pytest.mark.parametrize("code", sorted(REPRESENTATIVES))
def test_gamma_table_by_enumeration(code):
    q1, q2 = REPRESENTATIVES[code]
    n = max(max(e) for e in q1 + q2)
    both = total = 0
    for p in permutations(range(1, n + 1)):
        pos = (0,) + p
        both += oracles.count_crossings(q1, pos) * oracles.count_crossings(q2, pos)
        total += 1
    assert Fraction(both, total) - Fraction(1, 9) == oracles.GAMMA[code]
    # the representative really has this type
    edges = sorted(set(q1 + q2))
    counts = oracles.pair_type_counts(edges)
    assert counts[code] >= 1


def test_pair_type_variance_matches_enumeration():
    for n, edges in random_graphs(25):
        counts = oracles.pair_type_counts(edges)
        q = oracles.q_size(n, edges)
        assert sum(counts.values()) == q * q
        assert counts["24"] == q
        assert oracles.variance_from_counts(counts) == oracles.enumerate_moments(n, edges)[1]


def brute_c4(n, edges):
    es = set(edges)
    has = lambda u, v: (min(u, v), max(u, v)) in es
    found = set()
    for a, b, c, d in permutations(range(1, n + 1), 4):
        if has(a, b) and has(b, c) and has(c, d) and has(d, a):
            found.add(frozenset(((min(a, b), max(a, b)), (min(b, c), max(b, c)),
                                 (min(c, d), max(c, d)), (min(d, a), max(d, a)))))
    return len(found)


def brute_p3_k2(n, edges):
    total = 0
    for e, f in combinations(edges, 2):
        shared = set(e) & set(f)
        if len(shared) != 1:
            continue
        used = set(e) | set(f)
        total += sum(1 for g in edges if not set(g) & used)
    return total


def test_subgraph_counts_match_brute_force_and_frequencies():
    for n, edges in random_graphs(30, n_max=8):
        c4, p3k2 = oracles.count_c4(n, edges), oracles.count_p3_k2(n, edges)
        assert c4 == brute_c4(n, edges)
        assert p3k2 == brute_p3_k2(n, edges)
        counts = oracles.pair_type_counts(edges)
        assert counts["04"] == 2 * c4
        assert counts["13"] == 2 * p3k2


def test_known_subgraph_counts():
    assert oracles.count_c4(4, cycle(4)) == 1
    assert oracles.count_c4(6, bipartite(3, 3)) == math.comb(3, 2) ** 2
    assert oracles.count_p3_k2(5, path(5)) == 2


def test_enumeration_refuses_large_n():
    with pytest.raises(ValueError):
        oracles.enumerate_moments(8, path(8))
