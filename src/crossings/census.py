"""The independent oracles that the fast frequency formulas are checked
against: the product type of a pair of Q elements (`classify`), the
brute-force frequency vector over all of Q x Q (`freq_brute`), and
graphette censuses by direct enumeration (`count_graphette`).

None of them reaches `freq_fast`'s code. Only `validate` loads this module,
and in the library its public names load it on first access.
"""

from __future__ import annotations

from collections import Counter

from .graphs import Graph, check_budget, size_q
from .product_types import _TYPE_ROWS, PRODUCT_TYPES, FreqVector

# The largest |Q| that freq_brute classifies: |Q|^2 pairs in pure Python.
BRUTE_Q_LIMIT = 50_000
# The largest |Q| at which count_graphette enumerates, in up to ~|Q|^2 steps.
CENSUS_Q_LIMIT = 20_000
# The most 3-vertex paths, sum_v C(k_v, 2), that a census of a shape with one
# lists; |Q| does not bound them (a star has |Q| = 0). At the limit, L3+L3 on
# a star and L3+L2+L2 on a star beside a matching took 5-6 s on a 2-CPU host.
CENSUS_P3_LIMIT = 10_000
# Each product type's graphette shape F_w and multiplier a_w, with
# f_w = a_w * n_G(F_w).
GRAPHETTE_SHAPES = {code: shape for code, shape, _ in _TYPE_ROWS}
GRAPHETTE_MULTIPLIERS = {code: a for code, _, a in _TYPE_ROWS}


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
