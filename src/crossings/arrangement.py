"""Linear arrangements (vertex-to-position bijections), the crossing
counter C and a uniform random arrangement source."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .graphs import Graph, GraphFormatError

if TYPE_CHECKING:
    import numpy as np


class LinearArrangement:
    """A bijection vertex -> position over 1..n.

    `pos[v]` is the position of vertex v (index 0 is a sentinel).
    """

    __slots__ = ("pos",)

    def __init__(self, positions: Sequence[int]):
        n = len(positions)
        if sorted(positions) != list(range(1, n + 1)):
            raise ValueError("positions must be a permutation of 1..n")
        self.pos = (0,) + tuple(positions)

    @property
    def n(self) -> int:
        return len(self.pos) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearArrangement) and self.pos == other.pos

    def __hash__(self) -> int:
        return hash(self.pos)

    def __repr__(self) -> str:
        return f"LinearArrangement({list(self.pos[1:])})"


def crossings(g: Graph, arr: LinearArrangement) -> int:
    """Number of crossing pairs of independent edges under `arr`.

    Two independent edges cross iff their position intervals interleave:
    with each edge oriented by position, lo1 < lo2 < hi1 < hi2. A sweep over
    the edges sorted by (lo ascending, hi descending) counts, for each edge,
    the right ends of earlier edges strictly inside (lo, hi), with a Fenwick
    tree over positions: O(m log n) time and O(n + m) memory. Adjacent
    edges are never counted: an earlier edge that ends at this edge's lo or
    hi has its right end outside the open interval, and one that shares its
    lo sorts earlier only when its hi is larger.
    """
    if arr.n != g.n:
        raise ValueError(f"arrangement covers {arr.n} vertices, graph has {g.n}")
    pos = arr.pos
    n = g.n
    spans = []
    for u, v in g.edges:
        pu, pv = pos[u], pos[v]
        spans.append((pu, -pv) if pu < pv else (pv, -pu))
    spans.sort()
    tree = [0] * (n + 1)  # tree[i] covers the right ends seen in (i - lowbit(i), i]
    c = 0
    for lo, neg_hi in spans:
        hi = -neg_hi
        i = hi - 1
        while i:
            c += tree[i]
            i &= i - 1
        i = lo
        while i:
            c -= tree[i]
            i &= i - 1
        i = hi
        while i <= n:
            tree[i] += 1
            i += i & -i
    return c


def random_arrangement(n: int, rng: np.random.Generator) -> LinearArrangement:
    """Uniform arrangement via Fisher-Yates on the position vector."""
    pos = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        pos[i], pos[j] = pos[j], pos[i]
    return LinearArrangement(pos)


def parse_arrangement(text: str) -> LinearArrangement:
    """Parse one line of n positions, column i holding pi(vertex i)."""
    parts = text.split()
    if not parts:
        raise GraphFormatError("empty arrangement input")
    try:
        positions = [int(p) for p in parts]
    except ValueError:
        raise GraphFormatError("arrangement entries must be integers") from None
    try:
        return LinearArrangement(positions)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
