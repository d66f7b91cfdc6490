"""The nine-type classification of Q x Q, the brute-force frequency oracle,
the fast frequency formulas over vertices and edges, and independent
graphette censuses.

An element of Q is an unordered pair {st, uv} of independent edges. Ordered
pairs of Q elements fall into nine types, keyed by tau (shared edges), phi
(total pairwise vertex intersections) and, at (tau, phi) = (0, 2), whether
one edge meets both edges of the counterpart pair.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from itertools import compress
from operator import mul

from .graphs import Graph, check_budget, size_q

# The largest |Q| that freq_brute classifies: |Q|^2 pairs in pure Python.
BRUTE_Q_LIMIT = 50_000
# The largest |Q| at which count_graphette enumerates, in up to ~|Q|^2 steps.
CENSUS_Q_LIMIT = 20_000
# The most 3-vertex paths, sum_v C(k_v, 2), that a census of a shape with one
# lists; |Q| does not bound them (a star has |Q| = 0). At the limit, L3+L3 on
# a star and L3+L2+L2 on a star beside a matching took 5-6 s on a 2-CPU host.
CENSUS_P3_LIMIT = 10_000

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
GRAPHETTE_SHAPES = {code: shape for code, shape, _ in _TYPE_ROWS}
GRAPHETTE_MULTIPLIERS = {code: a for code, _, a in _TYPE_ROWS}
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


def classify(q1, q2) -> str:
    """Product type of an ordered pair of Q elements.

    Each argument is a pair of edges ((s,t),(u,v)); the edges within each
    pair must be vertex-disjoint.
    """
    masks = []
    for edge in (*q1, *q2):
        mask = 0
        for v in edge:
            mask |= 1 << v
        if mask.bit_count() != 2:
            raise ValueError("edges must have two distinct endpoints")
        masks.append(mask)
    a1, a2, b1, b2 = masks
    if a1 & a2 or b1 & b2:
        raise ValueError("each argument must be a pair of independent edges")
    return _classify_masks(a1, a2, b1, b2)


def _classify_masks(a1, a2, b1, b2) -> str:
    # each argument is the vertex bitmask of one edge: a1, a2 form the
    # first Q element and b1, b2 the second
    x13 = (a1 & b1).bit_count()
    x14 = (a1 & b2).bit_count()
    x23 = (a2 & b1).bit_count()
    x24 = (a2 & b2).bit_count()
    phi = x13 + x14 + x23 + x24
    tau = (a1 == b1 or a1 == b2) + (a2 == b1 or a2 == b2)
    if tau == 2:
        return "24"
    if tau == 1:
        return "13" if phi == 3 else "12"
    if phi != 2:
        return f"0{phi}"
    # (0,2): type 021 iff some single edge meets both edges of the other pair
    if (x13 and x14) or (x23 and x24) or (x13 and x23) or (x14 and x24):
        return "021"
    return "022"


def freq_brute(g: Graph) -> FreqVector:
    """Classify all of Q x Q directly (the oracle path).

    Ordered semantics: the diagonal counts once, every unordered off-diagonal
    pair twice. Refuses, before it builds Q, when |Q| exceeds BRUTE_Q_LIMIT.
    """
    expected = size_q(g)
    check_budget(expected, BRUTE_Q_LIMIT,
                 f"|Q| for freq_brute's |Q|^2 = {expected * expected} classifications")
    q = g.q_pairs()
    nq = len(q)  # counted, not taken from the formula: this is the oracle
    masks = [
        ((1 << s) | (1 << t), (1 << u) | (1 << v)) for s, t, u, v in q
    ]
    counts = dict.fromkeys(PRODUCT_TYPES, 0)
    counts["24"] = nq
    for i in range(nq):
        a1, a2 = masks[i]
        for j in range(i + 1, nq):
            b1, b2 = masks[j]
            counts[_classify_masks(a1, a2, b1, b2)] += 2
    return FreqVector.from_dict(counts)


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


# --- graphette census (independent subgraph counting) ---------------------


def count_graphette(g: Graph, shape: str) -> int:
    """Count subgraphs of the given shape by direct enumeration.

    Shapes: L2+L2, L3+L2, L2+L2+L2, C4, L5, L4+L2, L3+L3, L3+L2+L2,
    L2+L2+L2+L2. Counts are unlabeled-subgraph counts (each subgraph once),
    independent of the frequency formulas. Refuses, before it enumerates,
    when |Q| exceeds CENSUS_Q_LIMIT or the 3-vertex paths CENSUS_P3_LIMIT.
    """
    check_budget(size_q(g), CENSUS_Q_LIMIT, "|Q| for the graphette census")
    if shape == "L2+L2":
        return _count_matchings(g, 2)
    if shape == "L2+L2+L2":
        return _count_matchings(g, 3)
    if shape == "L2+L2+L2+L2":
        return _count_matchings(g, 4)
    if shape == "C4":
        return _count_c4(g)
    if shape == "L5":
        return _count_paths(g, 5)
    if shape == "L3+L2":
        return _count_p3_plus_edges(g, 1)
    if shape == "L3+L2+L2":
        return _count_p3_plus_edges(g, 2)
    if shape == "L3+L3":
        return _count_p3_pairs(g)
    if shape == "L4+L2":
        return _count_p4_plus_edge(g)
    raise ValueError(f"unknown graphette shape {shape!r}")


def _edge_masks(g: Graph) -> list[int]:
    return [(1 << u) | (1 << v) for u, v in g.edges]


def _neighbours(g: Graph) -> list[set[int]]:
    """Each vertex's neighbour set, indexed by vertex (index 0 unused)."""
    adj = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _count_matchings(g: Graph, k: int) -> int:
    """Number of k-subsets of pairwise vertex-disjoint edges."""
    masks = _edge_masks(g)
    nm = len(masks)
    count = 0

    def rec(start: int, used: int, depth: int):
        nonlocal count
        if depth == k:
            count += 1
            return
        for j in range(start, nm - (k - depth) + 1):
            mj = masks[j]
            if not mj & used:
                rec(j + 1, used | mj, depth + 1)

    rec(0, 0, 0)
    return count


def _p3_list(g: Graph) -> list[int]:
    """Vertex masks of all 3-vertex paths (one per unordered leaf pair)."""
    check_budget(sum(k * (k - 1) // 2 for k in g.degrees), CENSUS_P3_LIMIT,
                 "3-vertex paths for the graphette census")
    out = []
    for c, nbrs in enumerate(map(sorted, _neighbours(g))):
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                out.append((1 << nbrs[i]) | (1 << c) | (1 << nbrs[j]))
    return out


def _count_p3_plus_edges(g: Graph, extra: int) -> int:
    """P3 together with `extra` further pairwise-disjoint edges."""
    masks = _edge_masks(g)
    total = 0
    for p3 in _p3_list(g):
        free = [mk for mk in masks if not mk & p3]
        if extra == 1:
            total += len(free)
        else:
            for i in range(len(free)):
                for j in range(i + 1, len(free)):
                    if not free[i] & free[j]:
                        total += 1
    return total


def _count_p3_pairs(g: Graph) -> int:
    p3s = _p3_list(g)
    total = 0
    for i in range(len(p3s)):
        for j in range(i + 1, len(p3s)):
            if not p3s[i] & p3s[j]:
                total += 1
    return total


def _count_paths(g: Graph, k: int) -> int:
    """Number of k-vertex paths; each path is reached from both ends."""
    adj = _neighbours(g)
    count = 0

    def extend(last: int, used: int, depth: int):
        nonlocal count
        if depth == k:
            count += 1
            return
        for w in adj[last]:
            bit = 1 << w
            if not used & bit:
                extend(w, used | bit, depth + 1)

    for v in range(1, g.n + 1):
        extend(v, 1 << v, 1)
    if count % 2:
        raise RuntimeError(f"internal inconsistency: {count} path walks is odd")
    return count // 2


def _p4_list(g: Graph) -> list[int]:
    """Vertex masks of all 4-vertex paths (each path once)."""
    adj = _neighbours(g)
    seen = []
    for a in range(1, g.n + 1):
        for b in adj[a]:
            for c in adj[b]:
                if c == a:
                    continue
                for d in adj[c]:
                    if d == a or d == b:
                        continue
                    if a < d:  # canonical direction kills the reverse walk
                        seen.append((1 << a) | (1 << b) | (1 << c) | (1 << d))
    return seen


def _count_p4_plus_edge(g: Graph) -> int:
    masks = _edge_masks(g)
    total = 0
    for p4 in _p4_list(g):
        total += sum(1 for mk in masks if not mk & p4)
    return total


def _count_c4(g: Graph) -> int:
    """4-cycles via antipodal pairs: each C4 has two vertex pairs at
    distance two, so sum binom(common_neighbors, 2) over pairs, halved.

    The common neighbours of u and each w > u are counted as the wedges
    u-v-w that end at w, so only pairs joined by a wedge are visited, in
    O(n + sum_v k_v^2) steps."""
    adj = _neighbours(g)
    total = 0
    for u in range(1, g.n + 1):
        ends = Counter(w for v in adj[u] for w in adj[v] if w > u)
        for c in ends.values():
            total += c * (c - 1) // 2
    if total % 2:
        raise RuntimeError(
            f"internal inconsistency: {total} antipodal wedge pairs is odd"
        )
    return total // 2
