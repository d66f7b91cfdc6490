"""The nine product types of Q x Q, their frequency vector, and the fast
frequency formulas over vertices and edges.

An element of Q is an unordered pair {st, uv} of independent edges. Ordered
pairs of Q elements fall into nine types, keyed by tau (shared edges), phi
(total pairwise vertex intersections) and, at (tau, phi) = (0, 2), whether
one edge meets both edges of the counterpart pair. The oracles that
`freq_fast` is checked against, the classifier `classify`, the brute-force
`freq_brute` and the graphette census `count_graphette`, are in `census`,
which only `validate` and the library's first use of their names load.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from itertools import compress
from operator import mul

from .graphs import Graph

# One row per product type, in the fixed serialization order: its code,
# graphette shape F_w and multiplier a_w, with f_w = a_w * n_G(F_w).
_TYPE_ROWS = (
    ("00", "L2+L2+L2+L2", 6),
    ("24", "L2+L2", 1),
    ("13", "L3+L2", 2),
    ("12", "L2+L2+L2", 6),
    ("04", "C4", 2),
    ("03", "L5", 2),
    ("021", "L4+L2", 2),
    ("022", "L3+L3", 4),
    ("01", "L3+L2+L2", 4),
)
PRODUCT_TYPES = tuple(code for code, _, _ in _TYPE_ROWS)
# Number of distinct vertices in each type's representative configuration:
# its graphette's component sizes summed ("L3+L2+L2" has 7, "C4" has 4).
TYPE_VERTEX_COUNT = {
    code: sum(int(part[1:]) for part in shape.split("+"))
    for code, shape, _ in _TYPE_ROWS
}


class FreqVector(namedtuple("FreqVector", ["f" + c for c in PRODUCT_TYPES],
                            defaults=(0,) * len(PRODUCT_TYPES))):
    """Counts f_w of ordered Q x Q pairs per product type, in PRODUCT_TYPES
    order; `fv["021"]` reads one count by its type code."""

    __slots__ = ()

    def __getitem__(self, code):
        if isinstance(code, str):
            return getattr(self, "f" + code)
        return tuple.__getitem__(self, code)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(PRODUCT_TYPES, self))

    @classmethod
    def from_dict(cls, counts: dict[str, int]) -> "FreqVector":
        unknown = set(counts) - set(PRODUCT_TYPES)
        if unknown:
            raise ValueError(f"unknown product types {sorted(unknown)}")
        return cls(*(counts.get(c, 0) for c in PRODUCT_TYPES))


def freq_fast(g: Graph) -> FreqVector:
    """All nine f_w from degrees, triangles and 4-cycles, which suffice as
    each f_w = a_w * n_G(F_w) counts a subgraph F_w of at most four edges
    (Alemany-Puig & Ferrer-i-Cancho, "Fast calculation of the variance of
    edge crossings in random arrangements", 2020). No pass over Q: the cost
    is O(n + m), plus O(m' * arboricity) wedges and a sort of each core
    vertex's neighbour ranks on the m' edges of the 2-core. All counts are
    integers; `moments.variance_from_freq` keeps them so, scaling each
    gamma_w by the common denominator of the gammas (180 under RLA).
    """
    return _freq_from_sums(_graph_sums(g))


def _graph_sums(g: Graph) -> tuple[int, ...]:
    """The ten sums (m, K2, K3, K4, NN, KN, K2N, T3, W2, C4) that
    `_freq_from_sums` reads. Each adds over a disjoint union of graphs.

    Notation, for a vertex v and an edge uv (sums over uv run over edges):

        k_v  degree;  N_v = sum_{w~v} k_w
        t_uv = |N(u) & N(v)|, the triangles on edge uv (0 off the core)
        C4   = the number of 4-cycles

    The six vertex sums, each taken in C over the degree and N_v tables,
    and the two triangle sums:

        K2 = sum_v k_v^2;  K3 = sum_v k_v^3;  K4 = sum_v k_v^4
        NN = sum_v N_v^2;  KN = sum_v k_v N_v = 2 sum_uv k_u k_v
        K2N = sum_v k_v^2 N_v = sum_uv k_u k_v (k_u + k_v)
        T3 = sum_uv t_uv (three per triangle);  W2 = sum_uv t_uv (k_u + k_v)

    Only g.n, g.m, g.edges and g.degrees are read; n only sizes the tables.
    N_v and the XOR of each vertex's neighbours come from one pass over the
    edges, and peeling the vertices of degree 1 from the degrees and those
    XORs finds the 2-core, which holds every cycle, in O(n) more
    (`_two_core`). T3, W2 and C4 come from one pass over the core in
    ranked order (Chiba & Nishizeki, "Arboricity and subgraph listing
    algorithms", 1985): `_rank_core` ranks the core vertices by (core
    degree, label) and sorts each one's neighbours' ranks. From each vertex
    v, gather the far ends w of the wedges v-u-w whose middle u and far end
    w both rank below v; a hub costs its degree, not its degree squared.
    Each pair of such wedges with the same far end closes one 4-cycle with
    v as its top-ranked vertex, so each 4-cycle is counted once. A far end
    adjacent to v closes a triangle, which shows up as exactly two such
    wedges at its top-ranked vertex: T3 is 3/2 times their number, and each
    adds 2 k_w + k_v to W2. A vertex with fewer than two neighbours below
    it tops neither. A forest, whose core is empty, ranks nothing and walks
    its edges once.
    """
    n, m, deg, edges = g.n, g.m, g.degrees, g.edges

    # N_v and the XOR of each vertex's neighbours from one pass over the edges
    nsum = [0] * (n + 1)
    nbr_xor = [0] * (n + 1)
    for u, v in edges:
        nsum[u] += deg[v]
        nsum[v] += deg[u]
        nbr_xor[u] ^= v
        nbr_xor[v] ^= u
    core_deg = _two_core(deg, nbr_xor)

    # the six vertex sums, isolated vertices adding nothing
    k2 = sum(map(mul, deg, deg))
    k3 = sum(map(mul, map(mul, deg, deg), deg))
    k4 = sum(map(mul, map(mul, deg, deg), map(mul, deg, deg)))
    nn = sum(map(mul, nsum, nsum))
    kn = sum(map(mul, deg, nsum))
    k2n = sum(map(mul, map(mul, deg, deg), nsum))

    # triangles and 4-cycles from the wedges below each core vertex's rank;
    # a forest has no core
    order, nbr_ranks = _rank_core(edges, core_deg)
    closing = w2 = c4 = 0
    if order:
        k = [deg[v] for v in order]  # full degrees, by rank
        ends_of = Counter()
        for r, nbrs in enumerate(nbr_ranks):
            low = bisect_left(nbrs, r)
            if low < 2:
                continue  # r tops no triangle and no 4-cycle
            below = nbrs[:low]
            ends = []  # the far end w of each wedge r-u-w with u, w below r
            for u in below:
                lower = nbr_ranks[u]
                ends += lower[: bisect_left(lower, r)]
            ends_of.clear()
            ends_of.update(ends)
            # each pair of wedges with one far end closes a 4-cycle topped by r
            c4 += sum(map(mul, ends_of.values(), ends_of.values())) - len(ends)
            kr = k[r]
            for w in below:  # a far end adjacent to r closes a triangle
                c = ends_of.get(w)
                if c:
                    closing += c
                    w2 += c * (2 * k[w] + kr)
    # each triangle closes two wedges at its top vertex, and has three edges
    tri = 3 * closing // 2
    c4 //= 2
    return m, k2, k3, k4, nn, kn, k2n, tri, w2, c4


def _freq_from_sums(sums: tuple[int, ...]) -> FreqVector:
    """The nine f_w from the sums of `_graph_sums`, which are all it reads.

    With c = m + 1, d = m + 2, q_e = c - k_u - k_v the Q elements that hold
    edge e = uv, and q_v = k_v (c - k_v) - N_v those that hold vertex v,
    sums of degrees over the edges fold into the sums: sum_v k_v = 2m,
    sum_uv (k_u + k_v) = sum_v N_v = K2, sum_uv (k_u^2 + k_v^2) = K3. The
    counts used:

        P     = sum_v C(k_v,2) = (K2 - 2m)/2
        f24   = |Q| = C(m,2) - P
        f13   = 2 n(P3+K2), where
                n(P3+K2) = sum_v [C(k_v,2)(d - k_v) - (k_v-1) N_v] + T3
                         = dP - (K3 - K2)/2 - KN + K2 + T3
        n(P4) = sum_uv [(k_u-1)(k_v-1) - t_uv] = KN/2 - K2 + m - T3
        D4    = K2N + NN - 2 K3 - 2 KN + 2 K2 - 2 W2
                (the degrees summed over the vertices of every P4)
        f021  = 2[(m+3) n(P4) - D4 + W2 - 4 T3 + 4 C4]      (= 2 n(P4+K2))
        f03   = 2[(sum_v (N_v-k_v)^2 - sum_v sum_{w~v} (k_w-1)^2)/2
                  - 4 C4 - W2 + 3 T3]                     (= 2 n(P5)),
                sum_v (N_v-k_v)^2 = NN - 2 KN + K2,
                sum_v sum_{w~v} (k_w-1)^2 = K3 - 2 K2 + 2m
        f04   = 2 C4
        f12   = sum_e q_e^2 - 2 f24 - f13
                (tau identity: sum_e q_e^2 = sum_w tau_w f_w), where
                sum_e q_e^2 = m c^2 - 2c K2 + K3 + KN
        f022  = sum_{u<v} q_uv^2 - (6 f24 + 3 f13 + f12 + 6 f04 + 3 f03 + f021)
                (C(phi,2) identity), where q_uv counts the Q elements that
                hold both u and v: q_e + (k_u-1)(k_v-1) - t_uv on an edge
                e = uv, k_u k_v - |N(u) & N(v)| off the edges. The t_uv^2
                and t_uv k_u k_v terms cancel, leaving
                sum_{u<v} q_uv^2 = (K2^2 - K4)/2 + P + 4 C4 + K3 - NN
                    + m d^2 + 4(K3 + KN) + d KN - 4d K2 - 4 K2N - 2d T3 + 4 W2
        f01   = sum_v q_v^2 - (4 f24 + 3 f13 + 2 f12 + 4 f04 + 3 f03
                               + 2 f021 + 2 f022)         (phi identity),
                sum_v q_v^2 = c^2 K2 - 2c K3 + K4 - 2(c KN - K2N) + NN
        f00   = |Q|^2 - (the sum of the other eight)

    Self-check: f12 = 6 n(3K2) must also equal, by inclusion-exclusion over
    the five shapes of three edges, 6[C(m,3) - n(P3+K2) - n(P4) - T3/3
    - sum_v C(k_v,3)], with sum_v C(k_v,3) = (K3 - 3 K2 + 4m)/6; a mismatch
    raises RuntimeError.
    """
    m, k2, k3, k4, nn, kn, k2n, tri, w2, c4 = sums
    c, d = m + 1, m + 2
    p = (k2 - 2 * m) // 2
    f24 = m * (m - 1) // 2 - p
    p3k2 = d * p - (k3 - k2) // 2 - kn + k2 + tri
    f13 = 2 * p3k2
    p4 = kn // 2 - k2 + m - tri
    d4 = k2n + nn - 2 * k3 - 2 * kn + 2 * k2 - 2 * w2
    f021 = 2 * ((m + 3) * p4 - d4 + w2 - 4 * tri + 4 * c4)
    f03 = 2 * ((nn - 2 * kn + k2 - (k3 - 2 * k2 + 2 * m)) // 2
               - 4 * c4 - w2 + 3 * tri)
    f04 = 2 * c4
    f12 = m * c * c - 2 * c * k2 + k3 + kn - 2 * f24 - f13
    matchings3 = (m * (m - 1) * (m - 2) // 6 - p3k2 - p4 - tri // 3
                  - (k3 - 3 * k2 + 4 * m) // 6)
    if f12 != 6 * matchings3:
        raise RuntimeError(f"internal inconsistency: f12 = {f12} from the tau "
                           f"identity, but 6 n(3K2) = {6 * matchings3}")
    sum_quv2 = ((k2 * k2 - k4) // 2 + p + 4 * c4 + k3 - nn + m * d * d
                + 4 * (k3 + kn) + d * kn - 4 * d * k2 - 4 * k2n - 2 * d * tri + 4 * w2)
    f022 = sum_quv2 - (6 * f24 + 3 * f13 + f12 + 6 * f04 + 3 * f03 + f021)
    sum_qv2 = c * c * k2 - 2 * c * k3 + k4 - 2 * (c * kn - k2n) + nn
    f01 = sum_qv2 - (4 * f24 + 3 * f13 + 2 * f12 + 4 * f04 + 3 * f03
                     + 2 * f021 + 2 * f022)
    f00 = f24 * f24 - (f24 + f13 + f12 + f04 + f03 + f021 + f022 + f01)
    return FreqVector(f00, f24, f13, f12, f04, f03, f021, f022, f01)


def _two_core(degrees: tuple[int, ...], nbr_xor: list[int]) -> list[int]:
    """Each vertex's degree in the 2-core, 0 for a vertex outside it.

    `nbr_xor[v]` is the XOR of v's neighbours, which `_graph_sums` fills in
    its pass over the edges; the peel uses it up. Peels vertices of degree
    1 until none is left, in O(n) beyond that pass (Batagelj & Zaversnik,
    "An O(m) algorithm for cores decomposition of networks", 2003). A
    vertex of degree 1 holds its last neighbour in its XOR; peeling it sets
    its degree to 0, takes it out of that neighbour's XOR and lowers that
    neighbour's degree by one. What is left has minimum degree 2 and holds
    every cycle of the graph.
    """
    core_deg = list(degrees)
    leaves = [v for v, k in enumerate(core_deg) if k == 1]
    while leaves:
        v = leaves.pop()
        if not core_deg[v]:
            continue  # its last neighbour was peeled first
        core_deg[v] = 0
        w = nbr_xor[v]
        nbr_xor[w] ^= v
        k = core_deg[w]
        core_deg[w] = k - 1
        if k == 2:
            leaves.append(w)
    return core_deg


def _rank_core(edges, core_deg: list[int]) -> tuple[list[int], list[list[int]]]:
    """The 2-core's vertices ranked by (core degree, label), and for each
    rank the sorted ranks of that vertex's core neighbours, built in one
    pass over the edges with both ends in the core. Only core vertices are
    ranked: a forest ranks nothing and makes no pass."""
    # a stable sort by core degree keeps the labels of equal degrees in order
    order = sorted(compress(range(len(core_deg)), core_deg), key=core_deg.__getitem__)
    nbr_ranks: list[list[int]] = [[] for _ in order]
    if order:
        rank = [0] * len(core_deg)
        for r, v in enumerate(order):
            rank[v] = r
        for u, v in edges:
            if core_deg[u] and core_deg[v]:
                ru, rv = rank[u], rank[v]
                nbr_ranks[ru].append(rv)
                nbr_ranks[rv].append(ru)
        for nbrs in nbr_ranks:
            nbrs.sort()
    return order, nbr_ranks
