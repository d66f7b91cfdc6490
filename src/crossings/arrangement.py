"""Linear arrangements (vertex-to-position bijections) and the crossing
counter C, plus exhaustive and random permutation sources."""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, GraphFormatError


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

    def position(self, v: int) -> int:
        return self.pos[v]

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearArrangement) and self.pos == other.pos

    def __hash__(self) -> int:
        return hash(self.pos)

    def __repr__(self) -> str:
        return f"LinearArrangement({list(self.pos[1:])})"


def crossings(g: Graph, arr: LinearArrangement) -> int:
    """Number of crossing pairs of independent edges under `arr`.

    Two independent edges cross iff their position intervals interleave:
    with each edge oriented by position, lo1 < lo2 < hi1 < hi2 or
    lo2 < lo1 < hi2 < hi1.
    """
    if arr.n != g.n:
        raise ValueError(f"arrangement covers {arr.n} vertices, graph has {g.n}")
    pos = arr.pos
    c = 0
    for s, t, u, v in g.q_pairs():
        ps, pt = pos[s], pos[t]
        if ps > pt:
            ps, pt = pt, ps
        pu, pv = pos[u], pos[v]
        if pu > pv:
            pu, pv = pv, pu
        if (ps < pu < pt < pv) or (pu < ps < pv < pt):
            c += 1
    return c


def random_arrangement(n: int, rng: np.random.Generator) -> LinearArrangement:
    """Uniform arrangement via Fisher-Yates on the position vector."""
    pos = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        pos[i], pos[j] = pos[j], pos[i]
    return LinearArrangement(pos)


def all_arrangements(n: int) -> Iterator[LinearArrangement]:
    """All n! arrangements, lexicographic by position vector, O(n) memory."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for perm in permutations(range(1, n + 1)):
        yield LinearArrangement(perm)


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


def format_arrangement(arr: LinearArrangement) -> str:
    return " ".join(str(p) for p in arr.pos[1:]) + "\n"
