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
while merge-sorting their right ends, in O(rows * m log m) work. The two
counters and the class tables are in `_counters`, which the first count
loads: commands that count no arrangement neither compile nor import it.

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
from typing import TYPE_CHECKING

from .graphs import Graph, check_budget, size_q

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
_EDGE_BATCH = 255  # the most edges whose crossings one uint8 count holds


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
    from ._counters import _merge_counts, _per_edge_counts

    if g.m < _MERGE_FROM_M:
        return _per_edge_counts(g, pos)
    return _merge_counts(g, pos)


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

    # loaded here, not by the worker's first count: a module imported in the
    # worker allocates in that thread's malloc arena, which raised the peak
    # RSS of an estimate process by 0.1-0.4 MB
    from . import _counters  # noqa: F401

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
    from ._counters import _class_representatives, _class_table

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
    piece = max(1, _PIECE_BYTES // (8 * max(n, 1)))  # a row of n = 0 holds nothing

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
    # or the generators
    from .closed_forms import closed_expectation, closed_freq, closed_variance
    from .generators import _family_extra, gen_family

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
