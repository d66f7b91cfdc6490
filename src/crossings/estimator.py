"""Empirical moments of the crossing count: exhaustive enumeration over all
n! arrangements for small n (one per dihedral class, weighted 2n), Monte
Carlo sampling for large n.

Both paths accumulate integer sums (C is integral), so exhaustive moments are
exact rationals and Monte Carlo reports convert to float only at the end.
Arrangements are counted in fixed blocks, one after another. The blocks are
there for reproducible seeding (Monte Carlo block b has its own stream) and
to bound the memory of a position table, not to share work among workers.

`crossing_counts` counts a block per edge, not per pair of `Q`: two
independent edges cross exactly when one end of the later edge lies strictly
inside the earlier edge's span and the other outside, and one batched test
in wrapping unsigned arithmetic (uint8 positions for n <= 255, uint16 for
n <= 65,535, uint32 above) checks that against all the later independent
edges at once. The work stays O(rows * |Q|), in about m numpy calls per
block, and a block's tables are O(m * rows). Monte Carlo shuffles int32
positions in place.

Two budgets refuse through `graphs.check_budget` before anything is counted:
the exhaustive limit on n and MC_BLOCK_BYTES on one Monte Carlo block.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice, permutations
from typing import TYPE_CHECKING

from .graphs import Graph, _family_extra, check_budget, gen_family, size_q

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EXHAUSTIVE_LIMIT = 10
DEFAULT_SAMPLES = 100_000
MC_BLOCK = 10_000
# The most bytes one Monte Carlo block's position table (rows * n int32s)
# and endpoint table (2 * m * rows positions of crossing_counts) may take.
MC_BLOCK_BYTES = 1 << 30
_PERM_CHUNK = 100_000
_TAIL_VERTICES = 8  # 8! = 40,320 rows in the numpy permutation table
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

    Two independent edges have four distinct positions, and they cross
    exactly when one end of the later edge lies strictly inside the earlier
    edge's span and the other outside it. Each edge's two endpoint columns
    are copied once into an unsigned (2, m, rows) table of B bits, the
    narrowest that holds n (uint8 for n <= 255, uint16 for n <= 65,535,
    uint32 above). For an edge with ends at positions a and b, an end x of an
    edge independent of it passes the test x - a < b - a, in wrapping
    B-bit arithmetic, exactly when x lies inside (a, b) if a < b, and
    exactly when x lies outside (b, a) if a > b (positions 1..n are
    distinct modulo 2^B). The second case flips the test for both ends of
    the other edge, which leaves their XOR unchanged, so no min or max is
    needed. For edge i, all later edges independent of it are tested at
    once: the two ends' results are XORed and summed over the edges, in
    batches of up to 255 edges so that a uint8 sum holds a batch's count.
    That is O(rows * |Q|) work in about m numpy calls per block.
    """
    import numpy as np

    c = np.zeros(pos.shape[0], dtype=np.int64)
    edges = g.edges
    m = len(edges)
    ends = np.empty((2, m, len(c)), dtype=np.min_scalar_type(g.n))
    for i, (s, t) in enumerate(edges):
        # column by column, so no (n, rows) or full-width copy is made
        ends[0, i] = pos[:, s - 1]
        ends[1, i] = pos[:, t - 1]
    width = ends[1] - ends[0]
    passed = np.empty((2, min(m, _EDGE_BATCH), len(c)), dtype=bool)
    for i, (s, t) in enumerate(edges):
        later = [j for j in range(i + 1, m) if s not in edges[j] and t not in edges[j]]
        for k in range(0, len(later), _EDGE_BATCH):
            batch = later[k : k + _EDGE_BATCH]
            x = ends[:, batch]
            x -= ends[0, i]
            hit = np.less(x, width[i], out=passed[:, : len(batch)])
            del x  # before the next gather, to bound the block's peak memory
            crossed = np.not_equal(hit[0], hit[1], out=hit[0])
            c += np.add.reduce(crossed.view(np.uint8), axis=0, dtype=np.uint8)
    return c


def _accumulate(g: Graph, chunks) -> tuple[int, int, int]:
    """Rows, sum of C and sum of C^2 over position-matrix chunks; no count
    may exceed |Q|."""
    rows = total = total2 = peak = 0
    for arr in chunks:
        c = crossing_counts(g, arr)
        rows += len(c)
        total += int(c.sum())
        total2 += int((c * c).sum())
        peak = max(peak, int(c.max(initial=0)))
    if peak > size_q(g):
        raise RuntimeError(
            f"internal inconsistency: {peak} crossings exceed |Q| = {size_q(g)}"
        )
    return rows, total, total2


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
    if n >= 3:
        chunks = _class_representatives(n)
    else:
        import numpy as np

        chunks = [np.array(list(permutations(range(1, n + 1))), dtype=np.int16)]
    rows, sum_c, sum_c2 = _accumulate(g, chunks)
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
    Raises BudgetError, before anything is drawn, when one block's tables
    would exceed MC_BLOCK_BYTES.
    """
    if samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    import numpy as np

    n, m = g.n, g.m
    rows = min(MC_BLOCK, samples)
    need = rows * n * 4 + 2 * m * rows * np.min_scalar_type(n).itemsize
    check_budget(need, MC_BLOCK_BYTES,
                 f"bytes of a Monte Carlo block of {rows} rows on n = {n}, m = {m}")
    sizes = []
    left = samples
    while left > 0:
        take = min(MC_BLOCK, left)
        sizes.append(take)
        left -= take

    def chunks():
        for idx, count in enumerate(sizes):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([seed, idx]))
            )
            pos = np.tile(np.arange(1, n + 1, dtype=np.int32), (count, 1))
            yield rng.permuted(pos, axis=1, out=pos)

    _, sum_c, sum_c2 = _accumulate(g, chunks())
    t = samples
    mean = Fraction(sum_c, t)
    var = (Fraction(sum_c2) - Fraction(sum_c * sum_c, t)) / (t - 1)
    return EstimateReport(
        mean=float(mean), variance=float(var), mode="monte_carlo",
        samples=t, seed=seed, exact=False,
    )


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
    `n_max` is above it; "theory" emits no estimates. An unknown family, or
    one that takes a second size, raises ValueError; sizes invalid for the
    family (odd one-regular n) yield a row with mode "skipped".
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
        use_exhaustive = (mode == "exhaustive") or (
            mode == "auto" and n <= exhaustive_limit
        )
        if use_exhaustive:
            rep = exhaustive_moments(g, limit=exhaustive_limit)
        else:
            rep = monte_carlo_moments(g, samples=samples, seed=seed)
        rows.append(
            ScanRow(family, n, q, e_th, v_th, rep.mean, rep.variance,
                    rep.mode, rep.samples, rep.seed)
        )
    return rows
