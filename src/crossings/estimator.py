"""Empirical moments of the crossing count: exhaustive enumeration over all
n! arrangements for small n (one per dihedral class, weighted 2n), Monte
Carlo sampling for large n.

Both paths accumulate integer sums (C is integral), so exhaustive moments are
exact rationals and Monte Carlo reports convert to float only at the end.
Arrangements are counted in fixed blocks, in order. The blocks are there for
reproducible seeding (Monte Carlo block b has its own stream) and to bound
the memory of a position table.

Sizes up to DEFAULT_EXHAUSTIVE_LIMIT = 10 are enumerated once per process:
each size's table of class representatives is built on first use and kept,
read-only, in about 2 MB for sizes 3 to 10 together, and counted in row
slices of at most _PERM_CHUNK rows. Above that (a raised limit), the
(n - 1)!/2 rows are streamed in chunks and nothing is kept.

`crossing_counts` counts each row's crossings from the edges, never from
`Q`, with one of two counters chosen by m. Both gather the edges' end
positions in one call from the vertex-major view of the rows. Below
_MERGE_FROM_M edges it counts per edge: one batched test in wrapping
unsigned arithmetic checks an edge against all the later edges independent
of it, in O(rows * |Q|) work. From _MERGE_FROM_M edges on it merge-counts:
each row's edges are sorted by their left ends and the crossings counted
while merge-sorting their right ends, in O(rows * m log m) work.

Monte Carlo draws each block's rows in slices from the block's own stream:
each slice holds at most half its block and at most _SLICE_BYTES of the
per-row charge _row_bytes, which MC_BLOCK_BYTES also charges, and at least
one row. A slice is shuffled in intp pieces of at most _PIECE_BYTES (and at
least one row), each written into a vertex-major (n, rows) table of the
narrowest unsigned type that holds n, the layout of the exhaustive class
tables, and the counter reads that table in place. One worker thread
counts each slice, in order, while the calling thread draws the next; the
sums are exact integers, so the results are those of counting inline.
Exhaustive enumeration has nothing to draw and counts inline.

Budgets refuse through `graphs.check_budget` before anything is counted:
the exhaustive limit on n, MC_BLOCK_BYTES on the tables of the two Monte
Carlo slices in flight, and MC_WORK_LIMIT on the work of an estimate, or of
a scan's estimates together.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, permutations
from typing import TYPE_CHECKING

from .graphs import Graph, _family_extra, check_budget, gen_family, size_q

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EXHAUSTIVE_LIMIT = 10
DEFAULT_SAMPLES = 100_000
MC_BLOCK = 10_000
# The most bytes the tables of the Monte Carlo slices in flight may take (a
# block is drawn and counted in slices, see _slices, and one slice is drawn
# while the one before it is counted), charged as the largest slice's rows
# times _row_bytes. Peaks of one estimate measured with tracemalloc, numpy
# 2.4.6, at the slices of _SLICE_BYTES, stay below the charge: 52-70 % of it
# on paths, cycles and random trees, m = 30 to 299 (the charge counts 8n a
# row for the intp piece, which holds at most _PIECE_BYTES of them), and
# 58-90 % on random trees, m = 1,000 to 131,072 (90 % at m = 65,537, one
# row a slice, whose merge table pads to 131,072 columns).
MC_BLOCK_BYTES = 1 << 30
# The most work of one Monte Carlo estimate, in pair tests of 1.42 ns (a
# random tree, n = 1,000, T = 10^4: 7.07 s), so that a run at the limit takes
# about a minute. Each drawn position weighs _DRAW_WEIGHT. The per-edge
# counter adds T * |Q| pair tests and, once per estimate, the C(m, 2)
# independence checks of its set-up at MC_SETUP_WEIGHT each; the merge count
# adds _MERGE_WEIGHT for each of the m * bit_length(m) steps of a row. Random
# trees, 2-CPU host, numpy 2.4.6: a drawn position took 14-17 ns (n = 11 to
# 100,001), a set-up check 23-79 ns (m = 299 to 59), and a merge step 14-22 ns
# (m = 10^3 to 2 * 10^6).
MC_WORK_LIMIT = 4 * 10**10
MC_SETUP_WEIGHT = 55  # about 79 / 1.42
_DRAW_WEIGHT = 12  # about 17 / 1.42
_MERGE_WEIGHT = 16  # about 22 / 1.42
# The per-edge counter below this many edges, the merge count from it on.
# Rows per second, random trees, 2-CPU host: at m = 59, 575-845k per edge
# and 205k merged; at m = 256, 18-27k and 30k; at m = 299, 13-19k and
# 21-22k; at m = 999, about 1k and 10k.
_MERGE_FROM_M = 300
# A slice holds at most this many bytes of _row_bytes, and at least one row:
# 5,000 rows (half a block) on the 50-cycle, 95 on a tree with m = 1,000
# and one on a tree with m = 10^5. Median rows per second of 12 alternating
# in-process runs, on the 50-cycle and random trees with n = 60, 100, 300,
# 1,001, 3,001 and 10,001, 2-CPU host, numpy 2.4.6, geometric mean against
# 8 MiB: 2 MiB 0.77, 4 MiB 0.94, 12 MiB 0.99, 16 MiB 0.90, and a slice of
# at most 150,000 positions or endpoints 0.84.
_SLICE_BYTES = 8 << 20
# A slice is shuffled through intp pieces of at most this many bytes, and at
# least one row. Median of 40 alternating in-process estimates at
# T = 5 * 10^4, 2-CPU host, numpy 2.4.6, on the 50-cycle: 64 KiB 63.7 ms,
# 256 KiB 57.5, 1 MiB 56.3, 4 MiB 56.1; on a random 60-vertex tree: 82.7,
# 76.1, 73.5 and 74.4 ms. Larger pieces gain little and take more memory.
_PIECE_BYTES = 256 << 10
_PERM_CHUNK = 100_000
_TAIL_VERTICES = 8  # 8! = 40,320 rows in the numpy permutation table
_EDGE_BATCH = 255  # the most edges whose crossings one uint8 count holds
_MERGE_ROW_SORT = 8  # merge groups of fewer columns are sorted as one sequence


class EstimateReport(namedtuple(
        "EstimateReport", "mean variance mode samples seed exact")):
    """Empirical mean/variance of C with provenance: mean and variance are
    Fractions when exact, else floats; mode is "exhaustive" or
    "monte_carlo"; seed is None for an exhaustive report."""

    __slots__ = ()


def crossing_counts(g: Graph, pos: np.ndarray) -> np.ndarray:
    """Crossing count per row of a positions matrix (row r: pos of vertex i
    at column i-1), equal to arrangement.crossings.

    Any integer type and layout is counted; the counters read the matrix
    vertex-major, so the transpose of a narrow (n, rows) table, as Monte
    Carlo and exhaustive enumeration hand them, is read in place.
    Graphs with fewer than _MERGE_FROM_M edges are counted per edge, larger
    ones by the merge count; the two give equal rows on every graph.
    """
    if g.m < _MERGE_FROM_M:
        return _per_edge_counts(g, pos)
    return _merge_counts(g, pos)


def _edge_ends(g: Graph, pos: np.ndarray) -> np.ndarray:
    """The (2, m, rows) table of each edge's two end positions in every row
    of `pos`, gathered at once from the vertex-major view pos.T, in the
    narrowest unsigned type that holds n (uint8 for n <= 255, uint16 for
    n <= 65,535, uint32 above)."""
    import numpy as np

    ends = np.take(pos.T, _edge_array(g.edges).T, axis=0)
    return ends.astype(np.min_scalar_type(g.n), copy=False)


@lru_cache(maxsize=1)
def _edge_array(edges: tuple) -> np.ndarray:
    """The (m, 2) read-only intp array of `edges`, 0-based. This and
    _independent_later keep their last graph's result, since
    `crossing_counts` is called once per slice of rows. Monte Carlo calls
    them from its worker thread: lru_cache is safe to share between
    threads, and two threads that miss at once build the same result."""
    import numpy as np

    e = np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * len(edges))
    e = e.reshape(-1, 2) - 1
    e.flags.writeable = False
    return e


@lru_cache(maxsize=1)
def _independent_later(edges: tuple) -> tuple:
    """For each edge i, the intp indices j > i of the edges sharing no
    vertex with it, from one (m, m) table of shared endpoints."""
    import numpy as np

    s, t = _edge_array(edges).T
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
    for i, later in enumerate(_independent_later(g.edges)):
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


def _accumulate(counts, q: int) -> tuple[int, int, int]:
    """Rows, sum of C and sum of C^2 over the count arrays `counts`; no
    count may exceed q = |Q|. C^2 is summed in int64 only while it cannot
    wrap (rows * max(C)^2 < 2^63), and in Python ints otherwise."""
    rows = total = total2 = peak = 0
    for c in counts:
        top = int(c.max(initial=0))
        rows += len(c)
        total += int(c.sum())
        if len(c) * top * top < 1 << 63:
            total2 += int((c * c).sum())
        else:
            total2 += sum(x * x for x in c.tolist())
        peak = max(peak, top)
    if peak > q:
        raise RuntimeError(f"internal inconsistency: {peak} crossings exceed |Q| = {q}")
    return rows, total, total2


def _counted_aside(g: Graph, chunks):
    """The crossing counts of each position matrix of `chunks` (at least
    one), in order, each counted in one worker thread while the calling
    thread draws the next from `chunks`. At most two slices' tables are
    alive: the one being counted and the one being drawn, with the piece
    it is shuffled through. An exception in the worker is raised here
    unchanged; the worker is stopped and joined on the way out."""
    import threading
    from queue import SimpleQueue

    todo, done = SimpleQueue(), SimpleQueue()

    def count():
        while (pos := todo.get()) is not None:
            try:
                done.put((crossing_counts(g, pos), None))
            except BaseException as exc:  # handed to the calling thread
                done.put((None, exc))
            del pos  # before waiting, so that no counted matrix stays alive

    def result():
        c, exc = done.get()
        if exc is not None:
            raise exc
        return c

    worker = threading.Thread(target=count, name="crossing_counts", daemon=True)
    worker.start()
    try:
        chunks = iter(chunks)
        todo.put(next(chunks))
        for pos in chunks:  # drawn while the worker counts the one before
            c = result()
            todo.put(pos)
            yield c
        yield result()
    finally:
        todo.put(None)
        worker.join()


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


def exhaustive_rows(n: int) -> int:
    """Arrangements `exhaustive_moments` counts for n vertices: (n - 1)!/2
    dihedral class representatives for n >= 3, all n! below."""
    return math.factorial(n - 1) // 2 if n >= 3 else math.factorial(n)


def _exhaustive_what(n: int) -> str:
    # n! is spelled out while it has at most 19 digits
    count = f" = {math.factorial(n)}" if n <= 20 else ""
    return f"vertices for exhaustive enumeration of {n}!{count} arrangements"


def exhaustive_moments(
    g: Graph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> EstimateReport:
    """Population mean and (biased, divisor n!) variance over all n!
    arrangements, exact.

    For n >= 3 only one arrangement per dihedral class is counted, and its
    C and C^2 are weighted by the class size 2n; below that all n! are
    counted. `samples` is n! either way.
    """
    n = g.n
    check_budget(n, limit, _exhaustive_what(n))
    total = math.factorial(n)
    if n <= DEFAULT_EXHAUSTIVE_LIMIT:
        table = _class_table(n)
        chunks = (table[:, k : k + _PERM_CHUNK].T
                  for k in range(0, table.shape[1], _PERM_CHUNK))
    else:  # a raised limit: (n - 1)!/2 rows are too many to keep
        chunks = _class_representatives(n)
    counts = (crossing_counts(g, pos) for pos in chunks)
    rows, sum_c, sum_c2 = _accumulate(counts, size_q(g))
    if rows != exhaustive_rows(n):
        raise RuntimeError(
            f"internal inconsistency: counted {rows} arrangements, "
            f"expected {exhaustive_rows(n)}"
        )
    weight = total // rows  # 2n, the size of a dihedral class, for n >= 3
    mean = Fraction(weight * sum_c, total)
    var = Fraction(weight * sum_c2, total) - mean * mean
    return EstimateReport(
        mean=mean, variance=var, mode="exhaustive",
        samples=total, seed=None, exact=True,
    )


def monte_carlo_moments(
    g: Graph, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> EstimateReport:
    """Sample mean and unbiased (divisor T-1) sample variance over T uniform
    random arrangements.

    Sampling is blocked: block b draws its own PCG64 stream seeded with
    SeedSequence([seed, b]), so the result depends only on `seed` and T.
    Raises BudgetError, before anything is drawn, when the tables of the
    slices in flight would exceed MC_BLOCK_BYTES, or the estimate's work
    MC_WORK_LIMIT.
    """
    q, _ = _check_monte_carlo(g, samples)
    import numpy as np

    n = g.n
    piece = max(1, _PIECE_BYTES // (8 * n))

    def chunks():
        for idx, start in enumerate(range(0, samples, MC_BLOCK)):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([seed, idx]))
            )
            # numpy draws a block's rows one after another from its stream,
            # so its slices, and their pieces, hold the rows of the whole
            # block
            for rows in _slices(min(MC_BLOCK, samples - start), g):
                table = np.empty((n, rows), dtype=np.min_scalar_type(n))
                for k in range(0, rows, piece):
                    pos = np.tile(np.arange(1, n + 1, dtype=np.intp),
                                  (min(piece, rows - k), 1))
                    table[:, k : k + len(pos)] = rng.permuted(pos, axis=1, out=pos).T
                    del pos  # before the next piece is made
                yield table.T

    _, sum_c, sum_c2 = _accumulate(_counted_aside(g, chunks()), q)
    t = samples
    mean = Fraction(sum_c, t)
    var = (Fraction(sum_c2) - Fraction(sum_c * sum_c, t)) / (t - 1)
    return EstimateReport(
        mean=float(mean), variance=float(var), mode="monte_carlo",
        samples=t, seed=seed, exact=False,
    )


def _row_bytes(g: Graph) -> int:
    """Bytes one row takes in the tables of the two Monte Carlo slices in
    flight, as MC_BLOCK_BYTES charges them and _slices sizes them. Positions
    are held in vertex-major tables of b = 1, 2 or 4 bytes a position (the
    narrowest unsigned type that holds n): 2nb for the table of the slice
    being drawn and that of the slice being counted, and 8n for the intp
    piece the drawn table is shuffled through, which holds at most the
    slice's rows. Then the tables of the counter that runs: either 3m edge
    ends and span widths of b bytes, a gathered batch of 2 * min(m, 255) of
    them with as many tests and 8 for the count (below _MERGE_FROM_M
    edges), or 64m for the merge count's edge ends, int64 keys,
    power-of-two int32 tables and their sorted copies."""
    import numpy as np

    n, m = g.n, g.m
    b = np.min_scalar_type(n).itemsize
    if m < _MERGE_FROM_M:
        batch = min(m, _EDGE_BATCH)
        counter = 3 * m * b + 2 * batch * (b + 1) + 8
    else:
        counter = 64 * m
    return 2 * n * b + 8 * n + counter


def _slices(rows: int, g: Graph) -> list[int]:
    """Row counts of the slices in which a block of `rows` rows is drawn and
    counted: as even as can be, each at most half the block and at most
    _SLICE_BYTES / _row_bytes(g) rows, and at least one row."""
    most = max(1, min(rows // 2, _SLICE_BYTES // _row_bytes(g)))
    count = -(-rows // most)
    size, extra = divmod(rows, count)
    return [size + 1] * extra + [size] * (count - extra)


def _check_monte_carlo(g: Graph, samples: int) -> tuple[int, int]:
    """|Q| of g and the estimate's work, once a Monte Carlo estimate of
    T = `samples` on g is known to fit: ValueError below 2 samples, and
    BudgetError when the tables of the slices in flight would exceed
    MC_BLOCK_BYTES or the estimate's work MC_WORK_LIMIT."""
    if samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    n, m = g.n, g.m
    rows = _slices(min(MC_BLOCK, samples), g)[0]  # the largest slice
    need = rows * _row_bytes(g)
    check_budget(need, MC_BLOCK_BYTES,
                 f"bytes of a Monte Carlo slice of {rows} rows on n = {n}, m = {m}")
    q = size_q(g)
    work = samples * n * _DRAW_WEIGHT
    if m < _MERGE_FROM_M:
        work += samples * q + MC_SETUP_WEIGHT * (m * (m - 1) // 2)
    else:
        work += samples * _MERGE_WEIGHT * m * m.bit_length()
    check_budget(work, MC_WORK_LIMIT,
                 f"pair tests of a Monte Carlo estimate of T = {samples} on m = {m}")
    return q, work


class ScanRow(namedtuple("ScanRow", "family n q e_theory var_theory e_est var_est "
                                    "mode samples seed")):
    """One row of a family scan: exact theory plus an optional estimate
    (e_est, var_est, samples and seed are None without one)."""

    __slots__ = ()


def scan_family(
    family: str,
    n_min: int = 4,
    n_max: int = 20,
    mode: str = "auto",
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[ScanRow]:
    """Theory vs estimate across a size range of a single-parameter family.

    mode "auto" enumerates exhaustively up to `exhaustive_limit` and samples
    above it; "exhaustive" raises BudgetError, before any enumeration, when
    `n_max` is above it, and the sampled sizes are checked against the Monte
    Carlo budgets before any estimate, each size on its own and then the sum
    of their work against MC_WORK_LIMIT; "theory" emits no estimates. An
    unknown family, or one that takes a second size, raises ValueError;
    sizes invalid for the family (odd one-regular n) yield a row with mode
    "skipped".
    """
    # imported on first use, so that no other command loads the closed forms
    from .closed_forms import closed_expectation, closed_freq, closed_variance

    extra = _family_extra(family)
    if extra is not None:
        raise ValueError(f"scan takes a family of one size, and {family} "
                         f"also takes {extra}")
    if mode not in ("auto", "exhaustive", "monte_carlo", "theory"):
        raise ValueError(f"unknown scan mode {mode!r}")
    if mode == "exhaustive" and n_min <= n_max:
        check_budget(n_max, exhaustive_limit, _exhaustive_what(n_max))
    # sizes from first_sampled on are sampled, and smaller ones enumerated
    first_sampled = {"auto": exhaustive_limit + 1, "monte_carlo": n_min}.get(mode, n_max + 1)
    sampled, work = [], 0
    for n in range(max(n_min, first_sampled), n_max + 1):
        try:
            closed_freq(family, n)
        except ValueError:  # skipped below
            continue
        work += _check_monte_carlo(gen_family(family, n), samples)[1]
        sampled.append(n)
    if sampled:  # each size fits, and so must the sizes together
        check_budget(work, MC_WORK_LIMIT,
                     f"pair tests of the Monte Carlo estimates of T = {samples} "
                     f"on {family} n = {sampled[0]}..{sampled[-1]}")
    rows = []
    for n in range(n_min, n_max + 1):
        try:
            q = closed_freq(family, n).f24
        except ValueError:  # a known one-size family: n is out of its range
            rows.append(
                ScanRow(family, n, 0, Fraction(0), Fraction(0),
                        None, None, "skipped", None, None)
            )
            continue
        e_th = closed_expectation(family, n)
        v_th = closed_variance(family, n)
        if mode == "theory":
            rows.append(ScanRow(family, n, q, e_th, v_th, None, None,
                                "theory", None, None))
            continue
        g = gen_family(family, n)
        if n < first_sampled:
            rep = exhaustive_moments(g, limit=exhaustive_limit)
        else:
            rep = monte_carlo_moments(g, samples=samples, seed=seed)
        rows.append(
            ScanRow(family, n, q, e_th, v_th, rep.mean, rep.variance,
                    rep.mode, rep.samples, rep.seed)
        )
    return rows
