"""Empirical moments of the crossing count: exhaustive enumeration of all n!
arrangements for small n, Monte Carlo sampling for large n.

Both paths accumulate integer sums (C is integral), so exhaustive moments are
exact rationals and Monte Carlo reports convert to float only at the end.
Arrangements are counted in fixed blocks, one after another. The blocks are
there for reproducible seeding (Monte Carlo block b has its own stream) and
to bound the memory of a position table, not to share work among workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations

import numpy as np

from .closed_forms import FamilySpec, closed_expectation, closed_size_q, closed_variance
from .graphs import BudgetError, Graph, gen_family, size_q

DEFAULT_EXHAUSTIVE_LIMIT = 10
DEFAULT_SAMPLES = 100_000
MC_BLOCK = 10_000
_PERM_CHUNK = 100_000
_CACHED_TABLE_MAX_N = 8


@dataclass(frozen=True)
class EstimateReport:
    """Empirical mean/variance of C with provenance."""

    mean: Fraction | float
    variance: Fraction | float
    mode: str  # "exhaustive" | "monte_carlo"
    samples: int
    seed: int | None
    exact: bool


def crossing_counts(g: Graph, pos: np.ndarray) -> np.ndarray:
    """Crossing count per row of a positions matrix (row k: pos of vertex i
    at column i-1). Vectorized equivalent of arrangement.crossings."""
    rows = pos.shape[0]
    c = np.zeros(rows, dtype=np.int64)
    q = g.q_pairs()
    if not q:
        return c
    lo: dict[tuple[int, int], np.ndarray] = {}
    hi: dict[tuple[int, int], np.ndarray] = {}
    for u, v in g.edges:
        pu = pos[:, u - 1]
        pv = pos[:, v - 1]
        lo[(u, v)] = np.minimum(pu, pv)
        hi[(u, v)] = np.maximum(pu, pv)
    for s, t, u, v in q:
        lo1, hi1 = lo[(s, t)], hi[(s, t)]
        lo2, hi2 = lo[(u, v)], hi[(u, v)]
        c += ((lo1 < lo2) & (lo2 < hi1) & (hi1 < hi2)) | (
            (lo2 < lo1) & (lo1 < hi2) & (hi2 < hi1)
        )
    return c


@lru_cache(maxsize=4)
def _perm_table(n: int) -> np.ndarray:
    # full n! x n position table; only cached for small n
    return np.array(list(permutations(range(1, n + 1))), dtype=np.int16)


def _accumulate(g: Graph, chunks) -> tuple[int, int]:
    """Sum of C and sum of C^2 over position-matrix chunks; no count may
    exceed |Q|."""
    total = total2 = peak = 0
    for arr in chunks:
        c = crossing_counts(g, arr)
        total += int(c.sum())
        total2 += int((c * c).sum())
        peak = max(peak, int(c.max(initial=0)))
    if peak > size_q(g):
        raise RuntimeError(
            f"internal inconsistency: {peak} crossings exceed |Q| = {size_q(g)}"
        )
    return total, total2


def _check_exhaustive_limit(n: int, limit: int) -> None:
    if n > limit:
        raise BudgetError(
            f"n = {n} exceeds the exhaustive limit {limit}: "
            f"n! = {math.factorial(n)} arrangements"
        )


def exhaustive_moments(
    g: Graph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> EstimateReport:
    """Population mean and (biased, divisor n!) variance over all n!
    arrangements, exact."""
    n = g.n
    _check_exhaustive_limit(n, limit)
    total = math.factorial(n)

    def chunks():
        if n <= _CACHED_TABLE_MAX_N:
            yield _perm_table(n)
            return
        it = permutations(range(1, n + 1))
        while True:
            batch = list(islice(it, _PERM_CHUNK))
            if not batch:
                return
            yield np.array(batch, dtype=np.int16)

    sum_c, sum_c2 = _accumulate(g, chunks())
    mean = Fraction(sum_c, total)
    var = Fraction(sum_c2, total) - mean * mean
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
    """
    if samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    n = g.n
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
            base = np.tile(np.arange(1, n + 1, dtype=np.int16), (count, 1))
            yield rng.permuted(base, axis=1)

    sum_c, sum_c2 = _accumulate(g, chunks())
    t = samples
    mean = Fraction(sum_c, t)
    var = (Fraction(sum_c2) - Fraction(sum_c * sum_c, t)) / (t - 1)
    return EstimateReport(
        mean=float(mean), variance=float(var), mode="monte_carlo",
        samples=t, seed=seed, exact=False,
    )


@dataclass(frozen=True)
class ScanRow:
    """One row of a family scan: exact theory plus an optional estimate."""

    family: str
    n: int
    q: int
    e_theory: Fraction
    var_theory: Fraction
    e_est: Fraction | float | None
    var_est: Fraction | float | None
    mode: str
    samples: int | None
    seed: int | None


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
    `n_max` is above it; "theory" emits no estimates. Sizes invalid for the family (odd
    one-regular n) yield a row with mode "skipped".
    """
    if mode not in ("auto", "exhaustive", "monte_carlo", "theory"):
        raise ValueError(f"unknown scan mode {mode!r}")
    if mode == "exhaustive" and n_min <= n_max:
        _check_exhaustive_limit(n_max, exhaustive_limit)
    rows = []
    for n in range(n_min, n_max + 1):
        try:
            spec = FamilySpec(family, n)
        except ValueError:
            rows.append(
                ScanRow(family, n, 0, Fraction(0), Fraction(0),
                        None, None, "skipped", None, None)
            )
            continue
        q = closed_size_q(spec)
        e_th = closed_expectation(spec)
        v_th = closed_variance(spec)
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
