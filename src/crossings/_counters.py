"""The array code of the estimator: the two crossing counters that
`estimator.crossing_counts` dispatches to, and the tables of dihedral class
representatives that exhaustive enumeration counts.

Loaded on the first count, so that commands which count no arrangement,
such as `analyze` and `ztest`, neither compile nor import it. numpy is
imported inside each function, as everywhere in the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, permutations
from typing import TYPE_CHECKING

from .estimator import _EDGE_BATCH, _PERM_CHUNK, exhaustive_rows
from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

_TAIL_VERTICES = 8  # 8! = 40,320 rows in the numpy permutation table
_MERGE_ROW_SORT = 8  # merge groups of fewer columns are sorted as one sequence


def _edge_ends(g: Graph, pos: np.ndarray) -> np.ndarray:
    """The (2, m, rows) table of each edge's two end positions in every row
    of `pos`, gathered at once from the vertex-major view pos.T, in the
    narrowest unsigned type that holds n (uint8 for n <= 255, uint16 for
    n <= 65,535, uint32 above)."""
    import numpy as np

    ends = np.take(pos.T, _edge_array(g).T, axis=0)
    return ends.astype(np.min_scalar_type(g.n), copy=False)


@lru_cache(maxsize=1)
def _edge_array(g: Graph) -> np.ndarray:
    """The (m, 2) read-only intp array of the edges of g, 0-based. This and
    _independent_later keep their last graph's result, since
    `crossing_counts` is called once per slice of rows; they are keyed on
    the graph, whose hash is kept, so a call that finds it does not hash
    the m edges again. Monte Carlo calls them from its worker thread:
    lru_cache is safe to share between threads, and two threads that miss
    at once build the same result."""
    import numpy as np

    e = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * g.m)
    e = e.reshape(-1, 2) - 1
    e.flags.writeable = False
    return e


@lru_cache(maxsize=1)
def _independent_later(g: Graph) -> tuple:
    """For each edge i, the intp indices j > i of the edges sharing no
    vertex with it, from one (m, m) table of shared endpoints."""
    import numpy as np

    s, t = _edge_array(g).T
    shared = (s[:, None] == s) | (s[:, None] == t) | (t[:, None] == s) | (t[:, None] == t)
    return tuple(np.flatnonzero(row) for row in np.triu(~shared, 1))


def _per_edge_counts(g: Graph, pos: np.ndarray) -> np.ndarray:
    """Crossing counts in O(rows * |Q|) work, about 5m numpy calls a table.

    Two independent edges have four distinct positions, and they cross
    exactly when one end of the later edge lies strictly inside the earlier
    edge's span and the other outside it. Each edge's two endpoint columns
    are gathered once into the unsigned (2, m, rows) table of _edge_ends,
    of B bits. For an edge with ends at positions a and b, an end x of an
    edge independent of it passes the test x - a < b - a, in wrapping
    B-bit arithmetic, exactly when x lies inside (a, b) if a < b, and
    exactly when x lies outside (b, a) if a > b (positions 1..n are
    distinct modulo 2^B). The second case flips the test for both ends of
    the other edge, which leaves their XOR unchanged, so no min or max is
    needed. For edge i, all later edges independent of it are tested at
    once: the two ends' results are XORed and summed over the edges, in
    batches of up to 255 edges so that a uint8 sum holds a batch's count.
    Finding those later edges is an O(m^2) set-up, made once per graph.
    """
    import numpy as np

    c = np.zeros(pos.shape[0], dtype=np.int64)
    ends = _edge_ends(g, pos)
    width = ends[1] - ends[0]
    passed = np.empty((2, min(g.m, _EDGE_BATCH), len(c)), dtype=bool)
    for i, later in enumerate(_independent_later(g)):
        for k in range(0, len(later), _EDGE_BATCH):
            batch = later[k : k + _EDGE_BATCH]
            x = ends[:, batch]
            x -= ends[0, i]
            hit = np.less(x, width[i], out=passed[:, : len(batch)])
            del x  # before the next gather, to bound the block's peak memory
            crossed = np.not_equal(hit[0], hit[1], out=hit[0])
            c += np.add.reduce(crossed.view(np.uint8), axis=0, dtype=np.uint8)
    return c


def _merge_counts(g: Graph, pos: np.ndarray) -> np.ndarray:
    """Crossing counts in O(rows * m log m) work, with no O(m^2) set-up.

    In each row, sort the edges by (lo, -hi), lo < hi being an edge's two
    positions. Then edges i < j in that order cross exactly when
    lo_i < lo_j < hi_i < hi_j, and C = D - B: D counts the pairs i < j with
    hi_i < hi_j, and B the pairs with hi_i <= lo_j, which all have i < j and
    hi_i < hi_j. Edges sharing a vertex are rightly left out: with a common
    lo the sort puts the larger hi first, a common hi fails hi_i < hi_j, and
    hi_i = lo_j is in B. D is counted while merge-sorting each row's hi
    sequence, over log2 m levels of one sort across all rows: a group's
    left run is doubled plus one and its right run doubled, so in the
    sorted group a right value 2y lands after exactly the left values
    x < y. B is counted the same way, merging the sorted hi with the
    sorted lo + 1.
    """
    import numpy as np

    n, m, rows = g.n, g.m, pos.shape[0]
    c = np.zeros(rows, dtype=np.int64)
    if m < 2 or rows == 0:
        return c
    base = n + 1
    ends = _edge_ends(g, pos)
    # key = lo * base - hi: ascending lo, then descending hi; computed
    # edge-major, then put in row-major order once to sort each row
    key = np.minimum(ends[0], ends[1]).astype(np.int64)
    key *= base
    key -= np.maximum(ends[0], ends[1])
    del ends
    key = key.T.copy()
    key.sort(axis=1)
    # 2 * hi in sorted edge order, in int32 since 2n + 2 < 2^31 up to
    # MAX_VERTICES; zero pads, which pair with nothing, fill a level's last
    # group
    table = np.zeros((rows, 1 << (m - 1).bit_length()), dtype=np.int32)
    hi = np.negative(key)
    hi %= base
    table[:, :m] = hi
    table[:, :m] <<= 1
    del hi
    w = 1
    while w < m:
        cols = -(-m // (2 * w)) * 2 * w
        table[:, :cols], d = _merge_level(table[:, :cols], w)
        c += d
        w *= 2
    # each row's 2 * hi, sorted, ends at column `cols`
    both = np.empty((rows, 2 * m), dtype=table.dtype)
    both[:, :m] = table[:, cols - m : cols]
    del table
    both[:, m:] = key // base  # lo - 1, ascending
    del key
    both[:, m:] += 2
    both[:, m:] <<= 1
    c -= _merge_level(both, m)[1]
    return c


def _merge_level(table, w: int):
    """Each group of 2w columns of `table` merged, and per row the pairs
    (x, y) with x < y, x in the left and y in the right run of one group.
    The runs are sorted and hold doubled values, and the left run is marked
    plus one, so no left and right value are equal and the sort need not
    be stable."""
    import numpy as np

    rows, cols = table.shape
    groups = table.reshape(rows, -1, 2, w)
    groups[:, :, 0] |= 1
    merged = groups.reshape(rows, -1, 2 * w)
    if w < _MERGE_ROW_SORT:
        # numpy sorts many short rows slowly: lift each group above the one
        # before it by an even step and sort the table as one sequence
        step = (int(merged.max()) + 2) & ~1
        count = rows * merged.shape[1]
        lift = np.arange(count, dtype=np.min_scalar_type(-step * count))
        lift *= step
        lift = lift.reshape(rows, -1, 1)
        merged = merged + lift
        merged.ravel().sort()
        merged -= lift
    else:
        merged = np.sort(merged, axis=2)
    left = merged & 1
    # the right values' positions in their group, less their indices in the
    # right run
    ahead = merged.shape[1] * (w * (3 * w - 1) // 2) - (
        left @ np.arange(2 * w, dtype=np.int64)).sum(axis=1)
    merged ^= left
    return merged.reshape(rows, cols), ahead


def _class_representatives(n: int):
    """Position-matrix chunks holding one arrangement per dihedral class,
    n >= 3: vertex 1 at position 1 and vertex 2 left of vertex 3.

    Rotating (p -> p mod n + 1) and reflecting (p -> n + 1 - p) positions
    leave C unchanged, and for n >= 3 the 2n symmetries of the positions
    act freely, so each class holds 2n arrangements and there are
    (n - 1)!/2 classes. A row holds position 1 for vertex 1, a head of
    positions for vertices 2 to n - k from itertools, then the remaining
    positions for the last k vertices in one of the k! orders of a numpy
    table; k <= _TAIL_VERTICES bounds the memory of a chunk.
    """
    import numpy as np

    k = min(n - 3, _TAIL_VERTICES)
    tail = np.array(list(permutations(range(k))), dtype=np.intp)
    heads = (h for h in permutations(range(2, n + 1), n - 1 - k) if h[0] < h[1])
    step = max(1, _PERM_CHUNK // len(tail))
    while batch := list(islice(heads, step)):
        free = np.array(
            [sorted(set(range(2, n + 1)).difference(h)) for h in batch],
            dtype=np.int16,
        ).reshape(len(batch), k)
        block = np.empty((len(batch), len(tail), n), dtype=np.int16)
        block[:, :, 0] = 1
        block[:, :, 1 : n - k] = np.array(batch, dtype=np.int16)[:, None, :]
        block[:, :, n - k :] = free[:, tail]
        yield block.reshape(-1, n)


@lru_cache(maxsize=None)
def _class_table(n: int) -> np.ndarray:
    """The arrangements `exhaustive_moments` counts for n vertices, kept for
    the process: the rows of _class_representatives(n), or all n! below
    n = 3, as a read-only vertex-major (n, rows) uint8 table whose row v - 1
    holds the positions of vertex v. Only sizes up to
    DEFAULT_EXHAUSTIVE_LIMIT are kept, about 2 MB together; its transposed
    row slices are position matrices whose columns are contiguous."""
    import numpy as np

    if n < 3:
        table = np.array(list(permutations(range(1, n + 1))), dtype=np.uint8).T.copy()
    else:
        table = np.empty((n, exhaustive_rows(n)), dtype=np.uint8)
        start = 0
        for chunk in _class_representatives(n):
            table[:, start : start + len(chunk)] = chunk.T
            start += len(chunk)
    table.flags.writeable = False
    return table
