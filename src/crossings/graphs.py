"""Simple undirected graphs, generators for the special families, and the
potential-crossing machinery |Q|, q(s,t) and the |Q|=0 predicate.

Vertices are labeled 1..n. Graphs are immutable after construction.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress
from operator import mul, ne
from typing import Iterable, Sequence

# The special families: the least size each takes, and the one parameter
# it takes besides n, or None. complete_bipartite's parts n and n2 both have
# the least size; one_regular's n is even; star_plus_isolated's star size
# lam lies within 0..n.
_FAMILY_TABLE = {
    "complete": (1, None),
    "complete_bipartite": (1, "n2"),
    "cycle": (3, None),
    "one_regular": (2, None),
    "star": (1, None),
    "quasi_star": (4, None),
    "linear_tree": (1, None),
    "star_plus_isolated": (0, "lam"),
}
FAMILIES = tuple(_FAMILY_TABLE)
# what each size besides n stands for, in the refusals of _check_family
_SIZE_ROLES = {"n2": "second part n2", "lam": "star size lam"}

# Every graph costs O(n) memory before its edges are read, so n is bounded;
# 2·10^6 admits any graph with 10^6 edges and no isolated vertex.
MAX_VERTICES = 2_000_000
# The generators refuse above this many edges; 2·10^6 admits K_2000.
MAX_EDGES = 2_000_000


class GraphFormatError(ValueError):
    """Malformed graph input (edge-list text, graph6, arrangement file)."""


class BudgetError(RuntimeError):
    """A computation was refused because it exceeds its configured budget."""


def check_budget(need: int, limit: int, what: str) -> None:
    """Raise BudgetError when `need` exceeds `limit`: every budget's refusal."""
    if need > limit:
        raise BudgetError(f"{what}: {need} exceeds the limit of {limit}")


class Graph:
    """Immutable simple undirected graph with 1-based vertex labels.

    Attributes:
        n: number of vertices.
        edges: tuple of (u, v) pairs with u < v, sorted.
        degrees: degree of each vertex (index 0 unused), counted from edges.

    Nothing else is kept: code that needs neighbour sets builds them from
    `edges`, over the vertices it reads. The constructor deduplicates
    unordered pairs; it raises ValueError on a self-loop or a vertex outside
    1..n and BudgetError above MAX_VERTICES.
    """

    __slots__ = ("n", "edges", "degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        check_budget(n, MAX_VERTICES, "vertices")
        pairs = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"pair #{len(pairs)} is a self-loop ({u},{v})")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"pair #{len(pairs)} ({u},{v}) out of range 1..{n}")
            pairs.append((u, v) if u < v else (v, u))
        # sorted as a list, in which each pair is kept when it differs from
        # the one before it: a set would sort in hash order, and a set or
        # dict of the pairs would take 32-60 MB more at 10^6 edges
        pairs.sort()
        edges = tuple(compress(pairs, map(ne, pairs, chain((None,), pairs))))
        degrees = [0] * (n + 1)
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "degrees", tuple(degrees))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def q_pairs(self) -> tuple[tuple[int, int, int, int], ...]:
        """The set Q as a sorted tuple of (s, t, u, v) with (s,t) < (u,v).

        Each entry is an unordered pair {st, uv} of independent edges. Built
        anew on each call in O(m^2) time and memory, for the oracles only.
        """
        es = self.edges
        out = []
        for i in range(len(es)):
            s, t = es[i]
            for j in range(i + 1, len(es)):
                u, v = es[j]
                if s != u and s != v and t != u and t != v:
                    out.append((s, t, u, v))
        return tuple(out)


def degree_stats(g: Graph) -> Fraction:
    """The second moment of degree <k^2> = sum k^2 / n (0 when n = 0)."""
    sq = sum(map(mul, g.degrees, g.degrees))
    return Fraction(sq, g.n) if g.n else Fraction(0)


def size_q(g: Graph) -> int:
    """|Q|: the number of unordered pairs of independent edges.

    Uses |Q| = (m(m+1) - sum k^2) / 2; the numerator is always even.
    """
    m = g.m
    num = m * (m + 1) - sum(map(mul, g.degrees, g.degrees))
    if num % 2 or num < 0:
        raise RuntimeError(
            f"internal inconsistency: m(m+1) - sum(k^2) = {num} must be even "
            "and non-negative"
        )
    return num // 2


def q_edge(g: Graph, s: int, t: int) -> int:
    """q(s,t) = m - k_s - k_t + 1: edges sharing no endpoint with {s,t}.

    The edge is found by bisection in the sorted `g.edges`, so no neighbour
    set is built."""
    edge = (s, t) if s < t else (t, s)
    i = bisect_left(g.edges, edge)
    if i == len(g.edges) or g.edges[i] != edge:
        raise ValueError(f"({s},{t}) is not an edge")
    return g.m - g.degrees[s] - g.degrees[t] + 1


def is_q_zero(g: Graph) -> str | None:
    """Structural test for |Q| = 0, from the degree table: |Q| = 0 exactly
    for star(lambda) + isolated vertices (edgeless and single-edge graphs
    included), where a vertex has degree m, and for a triangle + isolated
    vertices, where m = 3 and three vertices have degree 2. Returns
    "star_with_isolated" or "triangle_with_isolated" for those, else None."""
    if g.m in g.degrees:  # index 0 holds 0, so m = 0 is the empty star
        return "star_with_isolated"
    if g.m == 3 and g.degrees.count(2) == 3:
        return "triangle_with_isolated"
    return None


def _family_extra(family: str) -> str | None:
    """The parameter `family` takes besides n, or None; ValueError if unknown."""
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    return _FAMILY_TABLE[family][1]


def _check_family(family: str, n: int | None, **params: int | None) -> None:
    """Raise ValueError unless gen_family(family, n, **params) is defined.

    `params` holds the sizes given besides n, by name, None for one not
    given: the family's own parameter must be given, and no other.
    """
    extra = _family_extra(family)
    if n is None:
        raise ValueError(f"{family} requires n")
    if extra is not None and params.get(extra) is None:
        raise ValueError(f"{family} requires a {_SIZE_ROLES[extra]}")
    for name, value in params.items():
        if value is not None and name != extra:
            raise ValueError(f"{family} takes no {_SIZE_ROLES[name]}")
    least = _FAMILY_TABLE[family][0]
    if extra == "n2" and min(n, params["n2"]) < least:
        raise ValueError(f"{family} requires n, n2 >= {least}")
    if n < least:
        raise ValueError(f"{family} requires n >= {least}")
    if family == "one_regular" and n % 2:
        raise ValueError("one_regular requires even n")
    if extra == "lam" and not 0 <= params["lam"] <= n:
        raise ValueError(f"star size {params['lam']} must be within 0..{n}")


def gen_family(
    family: str, n: int, n2: int | None = None, lam: int | None = None
) -> Graph:
    """Canonical labeled instance of one of the special families.

    Every family takes the size n. complete_bipartite also takes n2, its
    parts being n and n2; star_plus_isolated also takes the star size lam,
    with n vertices in all. No other family takes n2 or lam. An unknown
    family, a missing or unwanted size, or one out of range raises
    ValueError; BudgetError above MAX_VERTICES or MAX_EDGES comes before
    anything is built.
    """
    _check_family(family, n, n2=n2, lam=lam)
    check_budget(n + (n2 or 0), MAX_VERTICES, "vertices")
    # the other families have no more edges than vertices
    if family == "complete":
        check_budget(n * (n - 1) // 2, MAX_EDGES, "edges")
        return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    if family == "complete_bipartite":
        check_budget(n * n2, MAX_EDGES, "edges")
        return Graph(
            n + n2,
            [(u, v) for u in range(1, n + 1) for v in range(n + 1, n + n2 + 1)],
        )
    if family == "cycle":
        return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])
    if family == "one_regular":
        return Graph(n, [(i, i + 1) for i in range(1, n + 1, 2)])
    if family == "star":
        return Graph(n, [(1, v) for v in range(2, n + 1)])
    if family == "quasi_star":
        # hub 1 with leaves 2..n-1; vertex n hangs off vertex 2
        return Graph(n, [(1, v) for v in range(2, n)] + [(2, n)])
    if family == "linear_tree":
        return Graph(n, [(i, i + 1) for i in range(1, n)])
    return Graph(n, [(1, v) for v in range(2, lam + 1)])  # star_plus_isolated


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each pair included independently with probability p.

    Deterministic given the seed: PCG64 stream, one uniform draw per vertex
    pair in lexicographic order (documented in the README). The draws are
    taken one row (vertex u against u+1..n) at a time, in O(n) memory
    beside the edges; PCG64 gives the same stream drawn in pieces as at once.
    Each row's edges are counted against MAX_EDGES before they are kept.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be within [0,1], got {p}")
    check_budget(n, MAX_VERTICES, "vertices")
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    edges = []
    for u in range(1, n):
        row = rng.random(n - u)  # pairs (u, u+1) .. (u, n)
        hits = np.flatnonzero(row < p).tolist()
        check_budget(len(edges) + len(hits), MAX_EDGES, "edges drawn")
        edges += [(u, u + 1 + k) for k in hits]
    return Graph(n, edges)


def from_pruefer(code: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence into the labeled tree on n = len(code)+2
    vertices; iterating all n^(n-2) codes yields every labeled tree once."""
    n = len(code) + 2
    if n < 2:
        raise ValueError("Pruefer decoding needs n >= 2")
    for x in code:
        if not 1 <= x <= n:
            raise ValueError(f"label {x} out of range 1..{n}")
    degree = [1] * (n + 1)
    degree[0] = 0
    for x in code:
        degree[x] += 1
    import heapq

    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


# --- graph6 decoder (n <= 258,047) ---------------------------------------

_G6_HEADER = ">>graph6<<"
_G6_MAX_N = 258_047  # the largest n of the one-'~' size form
# each graph6 character, 63 + a 6-bit value, as its six bits, high bit first
_G6_BITS = {chr(63 + v): format(v, "06b") for v in range(64)}


def _g6_bits(chars: str, what: str) -> str:
    try:
        return "".join(map(_G6_BITS.__getitem__, chars))
    except KeyError as exc:
        raise GraphFormatError(f"invalid graph6 {what} character {exc.args[0]!r}") from None


def from_graph6(text: str | bytes) -> Graph:
    """Decode one graph6-encoded line (standard format, n <= 258,047).

    The set bits of the body are counted against MAX_EDGES before any edge
    is built, since one bit per vertex pair lets a short line stand for
    millions of edges.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError:
            raise GraphFormatError("graph6 input is not ASCII") from None
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if s.startswith("~~"):
        raise GraphFormatError(
            f"graph6 with n > {_G6_MAX_N} (the '~~' size form) is not supported; "
            f"the supported range is 0 <= n <= {_G6_MAX_N}"
        )
    if s[0] == "~":
        if len(s) < 4:
            raise GraphFormatError(
                f"truncated graph6 size: n > 62 takes 3 size characters after '~', "
                f"got {len(s) - 1}"
            )
        n, body = int(_g6_bits(s[1:4], "size"), 2), s[4:]
        if n < 63:
            raise GraphFormatError(
                f"graph6 long size form holds n = {n}; n <= 62 takes one size character"
            )
    else:
        n, body = int(_g6_bits(s[0], "size"), 2), s[1:]
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) < need:
        raise GraphFormatError(
            f"truncated graph6 string: need {need} data characters, got {len(body)}"
        )
    if len(body) > need:
        raise GraphFormatError("trailing characters after graph6 data")
    bits = _g6_bits(body, "data")
    check_budget(bits.count("1", 0, pairs), MAX_EDGES, "edges")
    edges = []
    start = 0
    for v in range(2, n + 1):  # column-major upper triangle, 1-based
        end = start + v - 1  # the bits of pairs (1, v) .. (v - 1, v)
        i = bits.find("1", start, end)
        while i >= 0:
            edges.append((i - start + 1, v))
            i = bits.find("1", i + 1, end)
        start = end
    return Graph(n, edges)


# --- input files and the edge-list text format ----------------------------


def read_input_file(path: str, encoding: str) -> str:
    """The text of an input file. A file that cannot be opened or read, such
    as a missing file or a directory, or that is not `encoding` text, raises
    a GraphFormatError naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc.strerror or exc}") from None
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not {encoding} text ({exc})") from None


def _graph6_lines(path: str) -> list[tuple[int, str]]:
    """Each non-blank line of an ASCII graph6 file, stripped, with its number."""
    lines = enumerate(map(str.strip, read_input_file(path, "ascii").splitlines()), 1)
    return [(lineno, line) for lineno, line in lines if line]


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: `n m` header then m `u v` lines.

    Lines starting with `#` are ignored. Raises GraphFormatError with the
    offending line number on malformed input: the header's error first, then
    a mismatch with the declared edge count, then the first bad edge line.
    One pass over the lines keeps only the edges, so the first bad line's
    error is held until the count is known.
    """
    n = m = None
    edges = []
    found = 0
    error = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:  # the header
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: expected integers in header") from None
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count {n}")
            continue
        found += 1
        if error is not None:
            continue
        if len(parts) != 2:
            error = f"line {lineno}: expected 'u v'"
            continue
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            error = f"line {lineno}: expected integers"
            continue
        if u == v:
            error = f"line {lineno}: self-loop ({u},{v})"
        elif not (1 <= u <= n and 1 <= v <= n):
            error = f"line {lineno}: vertex out of range 1..{n}"
        else:
            edges.append((u, v))
    if n is None:
        raise GraphFormatError("empty edge-list input")
    if found != m:
        raise GraphFormatError(f"header declares {m} edges but {found} edge lines found")
    if error is not None:
        raise GraphFormatError(error)
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
