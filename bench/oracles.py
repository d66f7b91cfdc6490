"""Independent oracles that the benchmark checks the program's outputs against.

Nothing here imports the `crossings` package: every quantity is computed
again from the edge list, by a different route where one exists. Graphs are
given as a vertex count `n` and a list of edges `(u, v)` with labels 1..n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import numpy as np

# Covariance of the crossing indicators of two elements of Q under a uniformly
# random linear arrangement, keyed by product type: gamma_w = alpha_w - 1/9,
# where alpha_w is the probability that both cross. test_oracles.py derives
# every entry again by enumerating the arrangements of a representative.
GAMMA = {
    "00": Fraction(0),
    "24": Fraction(2, 9),
    "13": Fraction(1, 18),
    "12": Fraction(1, 45),
    "04": Fraction(-1, 9),
    "03": Fraction(-1, 36),
    "021": Fraction(-1, 90),
    "022": Fraction(1, 180),
    "01": Fraction(0),
}


def degrees(n: int, edges) -> list[int]:
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def q_size(n: int, edges) -> int:
    """|Q| = C(m, 2) minus the pairs of edges that share a vertex."""
    return math.comb(len(edges), 2) - sum(math.comb(k, 2) for k in degrees(n, edges))


def count_crossings(edges, pos) -> int:
    """Crossings of an arrangement by testing every pair of edges directly.

    `pos[v]` is the position of vertex v. Two edges cross when exactly one
    endpoint of one lies strictly between the endpoints of the other; edges
    that share a vertex never do.
    """
    spans = [tuple(sorted((pos[u], pos[v]))) for u, v in edges]
    total = 0
    for i, (a, b) in enumerate(spans):
        for c, d in spans[i + 1:]:
            if len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b):
                total += 1
    return total


# --- closed forms of the paper ---------------------------------------------


def path_moments(n: int) -> tuple[Fraction, Fraction]:
    """E and Var of C on the path (linear tree) with n vertices."""
    e = Fraction(math.comb(n - 2, 2), 3) if n >= 2 else Fraction(0)
    if n <= 3:
        return e, Fraction(0)
    return e, Fraction(2 * n**3 - 5 * n**2 - 22 * n + 60, 90)


def star_moments(n: int) -> tuple[Fraction, Fraction]:
    """A star has no pair of independent edges, so C = 0 always."""
    return Fraction(0), Fraction(0)


def cycle_moments(n: int) -> tuple[Fraction, Fraction]:
    e = Fraction(n * (n - 3), 6)
    if n == 3:
        return e, Fraction(0)
    if n == 4:
        return e, Fraction(2, 9)
    return e, Fraction(n * (2 * n * n + n - 30), 90)


def bipartite_moments(a: int, b: int) -> tuple[Fraction, Fraction]:
    """E and Var of C on the complete bipartite graph K_{a,b}."""
    pairs = math.comb(a, 2) * math.comb(b, 2)
    s = a + b
    return Fraction(2 * pairs, 3), Fraction(pairs * (s * s + s), 90)


# --- subgraph counts from degrees and common neighbours -----------------------


def _neighbours(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def count_c4(n: int, edges) -> int:
    """4-cycles: each has two opposite vertex pairs, and each pair {u, w}
    closes C(common neighbours, 2) of them."""
    common: dict[tuple[int, int], int] = {}
    for nbrs in _neighbours(n, edges):
        ordered = sorted(nbrs)
        for i, u in enumerate(ordered):
            for w in ordered[i + 1:]:
                common[u, w] = common.get((u, w), 0) + 1
    return sum(math.comb(c, 2) for c in common.values()) // 2


def count_p3_k2(n: int, edges) -> int:
    """Subgraphs made of a 3-vertex path and an edge disjoint from it.

    For the path a-c-b, the edges missing {a, b, c} number
    m - k_a - k_b - k_c + 2 + [a~b]. Summed over centres c and neighbour
    pairs {a, b}: C(k_c, 2)(m - k_c + 2) - (k_c - 1) S_c + t_c, with S_c the
    sum of the neighbours' degrees and t_c the triangles at c.
    """
    m = len(edges)
    adj = _neighbours(n, edges)
    total = 0
    for c in range(1, n + 1):
        k = len(adj[c])
        nbr_degrees = sum(len(adj[a]) for a in adj[c])
        triangles = sum(len(adj[a] & adj[c]) for a in adj[c]) // 2
        total += math.comb(k, 2) * (m - k + 2) - (k - 1) * nbr_degrees + triangles
    return total


# --- frequencies by classifying every ordered pair of Q elements -------------


def pair_type_counts(edges, chunk: int = 256) -> dict[str, int]:
    """f_w for all nine product types, classifying all |Q|^2 ordered pairs.

    An element of Q is a pair (e1, e2) of independent edges. For two of
    them, a = (a1, a2) and b = (b1, b2), x_ij is the number of vertices
    edge a_i shares with edge b_j, read from the m x m table of shared
    vertices. O(|Q|^2) work, vectorised over blocks of `chunk` rows.
    """
    counts = dict.fromkeys(GAMMA, 0)
    if len(edges) < 2:
        return counts
    e = np.array(edges, dtype=np.int64)
    shared = sum((e[:, None, s] == e[None, :, t]).astype(np.int8)
                 for s in (0, 1) for t in (0, 1))
    first, second = np.triu_indices(len(edges), 1)
    independent = shared[first, second] == 0
    first, second = first[independent], second[independent]
    for start in range(0, len(first), chunk):
        a1 = first[start:start + chunk, None]
        a2 = second[start:start + chunk, None]
        x11, x12 = shared[a1, first], shared[a1, second]
        x21, x22 = shared[a2, first], shared[a2, second]
        phi = x11 + x12 + x21 + x22
        tau = ((x11 == 2) | (x12 == 2)).astype(np.int8) + ((x21 == 2) | (x22 == 2))
        one_meets_both = ((x11 > 0) & (x12 > 0)) | ((x21 > 0) & (x22 > 0)) \
            | ((x11 > 0) & (x21 > 0)) | ((x12 > 0) & (x22 > 0))
        counts["24"] += int((tau == 2).sum())
        counts["13"] += int(((tau == 1) & (phi == 3)).sum())
        counts["12"] += int(((tau == 1) & (phi == 2)).sum())
        free = tau == 0
        for p in (0, 1, 3, 4):
            counts[f"0{p}"] += int((free & (phi == p)).sum())
        counts["021"] += int((free & (phi == 2) & one_meets_both).sum())
        counts["022"] += int((free & (phi == 2) & ~one_meets_both).sum())
    return counts


def variance_from_counts(counts: dict[str, int]) -> Fraction:
    """Var[C] = sum_w f_w gamma_w."""
    return sum((counts[w] * GAMMA[w] for w in GAMMA), Fraction(0))


# --- enumeration of every arrangement ---------------------------------------


def enumerate_moments(n: int, edges) -> tuple[Fraction, Fraction]:
    """Population mean and variance of C over all n! arrangements (n <= 7)."""
    if n > 7:
        raise ValueError(f"enumeration is limited to n <= 7, got n = {n}")
    pos = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    c = np.zeros(len(pos), dtype=np.int64)
    for i, (s, t) in enumerate(edges):
        for u, v in edges[i + 1:]:
            if len({s, t, u, v}) < 4:
                continue
            a = np.minimum(pos[:, s - 1], pos[:, t - 1])
            b = np.maximum(pos[:, s - 1], pos[:, t - 1])
            x, y = pos[:, u - 1], pos[:, v - 1]
            c += ((a < x) & (x < b)) != ((a < y) & (y < b))
    total = len(pos)
    mean = Fraction(int(c.sum()), total)
    return mean, Fraction(int((c * c).sum()), total) - mean * mean
