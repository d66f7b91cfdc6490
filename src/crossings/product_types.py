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

from .graphs import Graph, check_budget, size_q

# The largest |Q| that freq_brute classifies: |Q|^2 pairs in pure Python.
BRUTE_Q_LIMIT = 50_000
# The largest |Q| at which count_graphette enumerates, in up to ~|Q|^2 steps.
CENSUS_Q_LIMIT = 20_000

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
    """All nine f_w from sums over vertices and edges and one 4-cycle count.

    No pass over Q: the cost is O(n + m * arboricity), set by the per-edge
    triangle counts and the 4-cycle count. Each f_w = a_w * n_G(F_w) counts
    a subgraph F_w of at most four edges, so degrees, triangles and 4-cycles
    suffice (Alemany-Puig & Ferrer-i-Cancho, arXiv 2003.03353).

    N_v and the XOR of each vertex's neighbours come from one pass over the
    edges, and S_v enters only summed, as sum_v S_v = sum_v k_v^3. Every
    cycle lies in the 2-core, which peeling the vertices of degree 1 finds
    from the degrees and those XORs in O(n) more (`_two_core`). An edge
    with an end outside it is on no triangle, so t_uv = 0 there without a
    set intersection, and the 4-cycle count ranks and walks only core
    vertices. `g.adj` is read only when the core is non-empty: a forest,
    whose core is empty, needs only g.n, g.m, g.edges and g.degrees, and
    builds no neighbour sets and does no triangle or 4-cycle work. All
    counts are integers;
    `moments.variance_from_freq` keeps them so, scaling each gamma_w by the
    common denominator of the gammas (180 under RLA).

    Notation, for a vertex v and an edge e = uv:

        k_v  degree;  N_v = sum_{w~v} k_w;  S_v = sum_{w~v} k_w^2
        t_uv = |N(u) & N(v)|, the triangles on edge uv
        t_v  triangles at v;  T = sum t_v / 3;  W = sum_v t_v k_v
        P    = sum_v C(k_v, 2);  C4 = number of 4-cycles
        q_e  = m - k_u - k_v + 1, the Q elements containing edge e
        q_v  = k_v (m - k_v + 1) - N_v, the Q elements containing vertex v

    The counts used (sums over uv run over edges):

        f24  = |Q| = C(m,2) - P
        f13  = 2 sum_v [C(k_v,2)(m - k_v + 2) - (k_v - 1) N_v + t_v]
                                                         (= 2 n(P3+K2))
        n(P4) = sum_uv [(k_u-1)(k_v-1) - t_uv]
        D4   = sum_uv [(k_u+k_v)((k_u-1)(k_v-1) - t_uv)
                       + (k_v-1)(N_u-k_v) + (k_u-1)(N_v-k_u)] - 2W
               (the degrees summed over the vertices of every P4)
        f021 = 2[(m+3) n(P4) - D4 + sum_uv t_uv (k_u+k_v-4) + 4 C4]
                                                         (= 2 n(P4+K2))
        f03  = 2[sum_v ((N_v-k_v)^2 - (S_v - 2N_v + k_v))/2
                 - 4 C4 - 2W + 9T]                       (= 2 n(P5))
        f04  = 2 C4
        f12  = sum_e q_e^2 - 2 f24 - f13
               (tau identity: sum_e q_e^2 = sum_w tau_w f_w)
        f022 = sum_{u<v} q_uv^2 - (6 f24 + 3 f13 + f12 + 6 f04 + 3 f03 + f021)
               (C(phi,2) identity), where q_uv counts the Q elements that
               hold both u and v: q_e + (k_u-1)(k_v-1) - t_uv on an edge
               e = uv, k_u k_v - |N(u) & N(v)| off the edges. So
               sum_{u<v} q_uv^2 = [(sum k^2)^2 - sum k^4]/2
                   + sum_uv [(q_e + (k_u-1)(k_v-1) - t_uv)^2 - (k_u k_v)^2]
                   + (P + 4 C4 - sum_uv t_uv^2)
                   - 2(sum_v (N_v^2 - S_v)/2 - sum_uv t_uv k_u k_v)
        f01  = sum_v q_v^2 - (4 f24 + 3 f13 + 2 f12 + 4 f04 + 3 f03
                              + 2 f021 + 2 f022)         (phi identity)
        f00  = |Q|^2 - (the sum of the other eight)

    Self-check: f12 = 6 n(3K2) must also equal, by inclusion-exclusion over
    the five shapes of three edges, 6[C(m,3) - n(P3+K2) - n(P4) - T
    - sum_v C(k_v,3)]; a mismatch raises RuntimeError.
    """
    n, m = g.n, g.m
    deg = g.degrees
    edges = g.edges

    # N_v and the XOR of each vertex's neighbours from one pass over the edges
    nsum = [0] * (n + 1)
    nbr_xor = [0] * (n + 1)
    for u, v in edges:
        nsum[u] += deg[v]
        nsum[v] += deg[u]
        nbr_xor[u] ^= v
        nbr_xor[v] ^= u
    core_deg = _two_core(deg, nbr_xor)
    core = list(compress(range(n + 1), core_deg))
    # neighbour sets only for the triangles and 4-cycles of a non-empty core
    adj = g.adj if core else None

    # per-vertex sums: the vertex terms of f13, f03, f022 and f01
    p = k3 = sum_k2 = sum_k3 = sum_k4 = 0
    f13_v = dev2 = sum_n2 = sum_qv2 = 0
    for v in compress(range(n + 1), deg):  # isolated vertices add nothing
        k = deg[v]
        nv = nsum[v]
        c2 = k * (k - 1) // 2
        p += c2
        k3 += c2 * (k - 2) // 3
        k2 = k * k
        sum_k2 += k2
        sum_k3 += k2 * k
        sum_k4 += k2 * k2
        f13_v += c2 * (m - k + 2) - (k - 1) * nv
        dev2 += (nv - k) ** 2
        sum_n2 += nv * nv
        qv = k * (m - k + 1) - nv
        sum_qv2 += qv * qv
    # S_v enters only summed: sum_v S_v = sum k^3, with sum_v N_v = sum k^2
    # and sum_v k_v = 2m
    p5_v = (dev2 - (sum_k3 - 2 * sum_k2 + 2 * m)) // 2
    nn_v = (sum_n2 - sum_k3) // 2

    # per-edge sums; t_uv costs the smaller of the two neighbour sets
    tri = w2 = p4 = d4 = t_deg = sum_qe2 = adj_pairs = t2 = t_kk = 0
    for u, v in edges:
        ku, kv = deg[u], deg[v]
        t = len(adj[u] & adj[v]) if core_deg[u] and core_deg[v] else 0
        mid = (ku - 1) * (kv - 1) - t  # P4s whose middle edge is uv
        qe = m - ku - kv + 1
        kk = ku * kv
        tri += t
        w2 += t * (ku + kv)
        p4 += mid
        d4 += (ku + kv) * mid + (kv - 1) * (nsum[u] - kv) + (ku - 1) * (nsum[v] - ku)
        t_deg += t * (ku + kv - 4)
        sum_qe2 += qe * qe
        adj_pairs += (qe + mid) ** 2 - kk * kk
        t2 += t * t
        t_kk += t * kk
    # tri = 3T counts each triangle once per edge; w2 = 2W likewise
    c4 = _count_c4_ranked(adj, core_deg, core) if core else 0
    d4 -= w2

    f24 = m * (m - 1) // 2 - p
    p3k2 = f13_v + tri
    f13 = 2 * p3k2
    f021 = 2 * ((m + 3) * p4 - d4 + t_deg + 4 * c4)
    f03 = 2 * (p5_v - 4 * c4 - w2 + 3 * tri)
    f04 = 2 * c4
    f12 = sum_qe2 - 2 * f24 - f13
    matchings3 = m * (m - 1) * (m - 2) // 6 - p3k2 - p4 - tri // 3 - k3
    if f12 != 6 * matchings3:
        raise RuntimeError(
            f"internal inconsistency: f12 = {f12} from the tau identity, "
            f"but 6 n(3K2) = {6 * matchings3}"
        )
    sum_quv2 = (
        (sum_k2 * sum_k2 - sum_k4) // 2
        + adj_pairs
        + (p + 4 * c4 - t2)
        - 2 * (nn_v - t_kk)
    )
    f022 = sum_quv2 - (6 * f24 + 3 * f13 + f12 + 6 * f04 + 3 * f03 + f021)
    f01 = sum_qv2 - (
        4 * f24 + 3 * f13 + 2 * f12 + 4 * f04 + 3 * f03 + 2 * f021 + 2 * f022
    )
    f00 = f24 * f24 - (f24 + f13 + f12 + f04 + f03 + f021 + f022 + f01)
    return FreqVector(
        f00=f00, f24=f24, f13=f13, f12=f12, f04=f04, f03=f03,
        f021=f021, f022=f022, f01=f01,
    )


def _two_core(degrees: tuple[int, ...], nbr_xor: list[int]) -> list[int]:
    """Each vertex's degree in the 2-core, 0 for a vertex outside it.

    `nbr_xor[v]` is the XOR of v's neighbours, which `freq_fast` fills in
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


def _count_c4_ranked(adj, core_deg: list[int], core: list[int]) -> int:
    """4-cycles by degree-ordered wedge counting over the 2-core `core`,
    with `core_deg` its degrees, in O(m * arboricity).

    Core vertices are ranked by (core degree, label). From each vertex v,
    count the wedges v-u-w whose middle u and far end w both rank below v;
    every pair of such wedges with the same w closes one 4-cycle with v as
    its top-ranked vertex, so each 4-cycle is counted once, whatever the
    ranking. A hub costs its degree, not its degree squared.
    """
    order = sorted(core, key=lambda v: (core_deg[v], v))
    rank = [0] * len(core_deg)
    for r, v in enumerate(order):
        rank[v] = r
    # core neighbour ranks of each vertex, in increasing order, by rank
    below = [sorted(rank[w] for w in adj[v] if core_deg[w]) for v in order]
    total = 0
    for r, nbrs in enumerate(below):
        ends: list[int] = []
        for u in nbrs:
            if u >= r:
                break
            lower = below[u]
            ends += lower[: bisect_left(lower, r)]
        if len(ends) > 1:
            for c in Counter(ends).values():
                total += c * (c - 1) // 2
    return total


# --- graphette census (independent subgraph counting) ---------------------


def count_graphette(g: Graph, shape: str) -> int:
    """Count subgraphs of the given shape by direct enumeration.

    Shapes: L2+L2, L3+L2, L2+L2+L2, C4, L5, L4+L2, L3+L3, L3+L2+L2,
    L2+L2+L2+L2. Counts are unlabeled-subgraph counts (each subgraph once),
    independent of the frequency formulas. Refuses, before it enumerates,
    when |Q| exceeds CENSUS_Q_LIMIT.
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
    out = []
    for c in range(1, g.n + 1):
        nbrs = sorted(g.adj[c])
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
    count = 0

    def extend(last: int, used: int, depth: int):
        nonlocal count
        if depth == k:
            count += 1
            return
        for w in g.adj[last]:
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
    seen = []
    for a in range(1, g.n + 1):
        for b in g.adj[a]:
            for c in g.adj[b]:
                if c == a:
                    continue
                for d in g.adj[c]:
                    if d == a or d == b:
                        continue
                    if a < d:  # canonical direction kills the reverse walk
                        seen.append(
                            ((1 << a) | (1 << b) | (1 << c) | (1 << d))
                        )
    return seen


def _count_p4_plus_edge(g: Graph) -> int:
    masks = _edge_masks(g)
    total = 0
    for p4 in _p4_list(g):
        total += sum(1 for mk in masks if not mk & p4)
    return total


def _count_c4(g: Graph) -> int:
    """4-cycles via antipodal pairs: each C4 has two vertex pairs at
    distance two, so sum binom(common_neighbors, 2) over pairs, halved."""
    total = 0
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            c = len(g.adj[u] & g.adj[v])
            total += c * (c - 1) // 2
    if total % 2:
        raise RuntimeError(
            f"internal inconsistency: {total} antipodal wedge pairs is odd"
        )
    return total // 2
