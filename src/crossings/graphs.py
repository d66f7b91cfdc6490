"""Simple undirected graphs, the edge-list reader, and the
potential-crossing machinery |Q|, q(s,t) and the |Q|=0 predicate.

Vertices are labeled 1..n. Graphs are immutable after construction. The
generators of the special families, G(n, p), Pruefer trees, the graph6
reader and the edge-list writer are in `generators`, which only the
commands and library calls that build or read such graphs load.
"""

from __future__ import annotations

import io
import os
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress
from operator import mul, ne
from typing import Iterable

# Every graph costs O(n) memory before its edges are read, so n is bounded;
# 2·10^6 admits any graph with 10^6 edges and no isolated vertex.
MAX_VERTICES = 2_000_000


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

    Besides these a graph keeps only its hash, from the first `hash(g)` on,
    so that a cache keyed on a graph finds it in O(1), where hashing the
    edges takes O(m). Code that needs neighbour sets builds them from
    `edges`, over the vertices it reads. The constructor deduplicates
    unordered pairs; it raises ValueError on a self-loop or a vertex outside
    1..n and BudgetError above MAX_VERTICES.
    """

    __slots__ = ("n", "edges", "degrees", "_hash")

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
        object.__setattr__(self, "_hash", None)

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
        if self._hash is None:  # hashing the edges takes O(m)
            object.__setattr__(self, "_hash", hash((self.n, self.edges)))
        return self._hash

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


# --- input files and the edge-list text format ----------------------------


def read_input_file(path: str, encoding: str) -> str:
    """The text of an input file. A file that cannot be opened or read, such
    as a missing file or a directory, or that is not `encoding` text, raises
    a GraphFormatError naming the path.

    The file is read with os.read, with no buffered reader: first as many
    bytes as fstat gives it and one more, which is the whole of a regular
    file, then on in small reads until one returns no bytes, since a shorter
    read is not the end of a pipe. Only that first read is sized to the
    file: reading each small file in fixed 1 MiB reads raised a process's
    peak RSS, as glibc then served later allocations of that size from the
    heap.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
            while chunk := os.read(fd, io.DEFAULT_BUFFER_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
        data = b"".join(chunks)  # a single chunk is returned, not copied
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc.strerror or exc}") from None
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not {encoding} text ({exc})") from None


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
