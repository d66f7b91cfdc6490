"""The loop form of `freq_fast`, kept as the reference that the vertex-sum
form must equal: every vertex term accumulated in a Python loop over the
vertices, and every edge term in a loop over all the edges."""

from bisect import bisect_left
from collections import Counter
from itertools import compress
from types import SimpleNamespace

from crossings import gen_family
from crossings.product_types import FreqVector, _two_core

# a degree table wrong at one vertex: each vertex of a path, a cycle and a
# quasi-star on six vertices, its degree one lower, one higher or two higher
CORRUPTED_DEGREES = [
    (family, v, delta)
    for family in ("linear_tree", "cycle", "quasi_star")
    for v in range(1, 7)
    for delta in (-1, 1, 2)
]


def corrupted(family: str, v: int, delta: int) -> SimpleNamespace:
    """gen_family(family, 6) with `delta` added to the degree of vertex v."""
    g = gen_family(family, 6)
    degrees = list(g.degrees)
    degrees[v] += delta
    return SimpleNamespace(n=g.n, m=g.m, edges=g.edges, degrees=tuple(degrees))


SELF_CHECK_FAILED = "RuntimeError: internal inconsistency: f12"


def outcome(freq, g) -> str:
    """The error that freq(g) raises, as its type and the start of its
    message, or "none"."""
    try:
        freq(g)
    except (RuntimeError, IndexError) as exc:
        return f"{type(exc).__name__}: {str(exc).split(' = ')[0]}"
    return "none"


def required_outcome(family: str, v: int, delta: int) -> str:
    """The error freq_fast must raise on corrupted(family, v, delta): the
    one freq_loops raises, and the f12 self-check's where freq_loops
    raises none."""
    loops = outcome(freq_loops, corrupted(family, v, delta))
    return SELF_CHECK_FAILED if loops == "none" else loops


def count_c4_ranked(adj: dict[int, set[int]]) -> int:
    """4-cycles by degree-ordered wedge counting over the 2-core, given as
    each core vertex's set of core neighbours.

    Core vertices are ranked by (core degree, label). From each vertex v,
    count the wedges v-u-w whose middle u and far end w both rank below v;
    every pair of such wedges with the same w closes one 4-cycle with v as
    its top-ranked vertex, so each 4-cycle is counted once.
    """
    order = sorted(adj, key=lambda v: (len(adj[v]), v))
    rank = {v: r for r, v in enumerate(order)}
    # neighbour ranks of each vertex, in increasing order, by rank
    below = [sorted(rank[w] for w in adj[v]) for v in order]
    total = 0
    for r, nbrs in enumerate(below):
        ends: list[int] = []
        for u in nbrs:
            if u >= r:
                break
            lower = below[u]
            ends += lower[: bisect_left(lower, r)]
        for c in Counter(ends).values():
            total += c * (c - 1) // 2
    return total


def freq_loops(g) -> FreqVector:
    """`freq_fast(g)`, term by term; raises RuntimeError where the f12
    self-check fails, as `freq_fast` does."""
    n, m = g.n, g.m
    deg = g.degrees
    edges = g.edges

    nsum = [0] * (n + 1)
    nbr_xor = [0] * (n + 1)
    for u, v in edges:
        nsum[u] += deg[v]
        nsum[v] += deg[u]
        nbr_xor[u] ^= v
        nbr_xor[v] ^= u
    core_deg = _two_core(deg, nbr_xor)
    adj = {v: set() for v in compress(range(n + 1), core_deg)}
    if adj:
        for u, v in edges:
            if core_deg[u] and core_deg[v]:
                adj[u].add(v)
                adj[v].add(u)

    # per-vertex sums: the vertex terms of f13, f03, f022 and f01
    p = k3 = sum_k2 = sum_k3 = sum_k4 = 0
    f13_v = dev2 = sum_n2 = sum_qv2 = 0
    for v in compress(range(n + 1), deg):
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
    # S_v = sum_{w~v} k_w^2 enters only summed: sum_v S_v = sum k^3
    p5_v = (dev2 - (sum_k3 - 2 * sum_k2 + 2 * m)) // 2
    nn_v = (sum_n2 - sum_k3) // 2

    # per-edge sums
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
    c4 = count_c4_ranked(adj)
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
