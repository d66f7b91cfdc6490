"""One policy for the eight budgets: at its limit a step runs; above it, the
step raises BudgetError before any work, with a message naming what is
measured, the need and the limit in the same words."""

import pytest

from crossings import (
    Graph,
    count_graphette,
    exhaustive_moments,
    freq_brute,
    gen_family,
    monte_carlo_moments,
)
from crossings import estimator, graphs, product_types
from crossings.graphs import BudgetError

C6 = gen_family("cycle", 6)  # |Q| = 9
C30 = gen_family("cycle", 30)


def _refuse(*args, **kwargs):
    raise AssertionError("worked above the budget")


# name: (need, the constant holding the limit, or None where the limit is an
# argument; the step, given the limit; the first work the step would do;
# what the message says is measured)
BUDGETS = {
    "vertices": (
        6, (graphs, "MAX_VERTICES"), lambda limit: gen_family("cycle", 6),
        (graphs, "Graph"), "vertices"),
    "edges": (
        10, (graphs, "MAX_EDGES"), lambda limit: gen_family("complete", 5),
        (graphs, "Graph"), "edges"),
    "brute_q": (
        9, (product_types, "BRUTE_Q_LIMIT"), lambda limit: freq_brute(C6),
        (Graph, "q_pairs"), "|Q| for freq_brute's |Q|^2 = 81 classifications"),
    "census_q": (
        9, (product_types, "CENSUS_Q_LIMIT"),
        lambda limit: count_graphette(C6, "L2+L2+L2+L2"),
        (product_types, "_count_matchings"), "|Q| for the graphette census"),
    "census_p3": (
        6, (product_types, "CENSUS_P3_LIMIT"),
        lambda limit: count_graphette(C6, "L3+L3"),
        (product_types, "_neighbours"), "3-vertex paths for the graphette census"),
    "exhaustive_n": (
        6, None, lambda limit: exhaustive_moments(C6, limit),
        (estimator, "crossing_counts"),
        "vertices for exhaustive enumeration of 6! = 720 arrangements"),
    "mc_block_bytes": (
        # slices of 10 rows: a one-byte position in the table of the slice
        # drawn and of the slice counted meanwhile, 8 bytes a position in the
        # piece the drawn slice is shuffled through, and for the slice
        # counted 3 * 30 one-byte endpoints and widths, a batch of 2 * 30
        # with its tests, a count
        10 * (2 * 30 + 8 * 30 + 3 * 30 + 2 * 30 * 2 + 8), (estimator, "MC_BLOCK_BYTES"),
        lambda limit: monte_carlo_moments(C30, samples=20, seed=0),
        (estimator, "crossing_counts"),
        "bytes of a Monte Carlo slice of 10 rows on n = 30, m = 30"),
    "mc_work": (
        20 * 30 * 12 + 20 * 405 + 55 * 435, (estimator, "MC_WORK_LIMIT"),
        lambda limit: monte_carlo_moments(C30, samples=20, seed=0),
        (estimator, "crossing_counts"),
        "pair tests of a Monte Carlo estimate of T = 20 on m = 30"),
}


@pytest.mark.parametrize("name", BUDGETS)
def test_runs_at_limit_and_refuses_above(monkeypatch, name):
    need, constant, step, work, what = BUDGETS[name]
    if constant is not None:
        monkeypatch.setattr(*constant, need)
    step(need)
    if constant is not None:
        monkeypatch.setattr(*constant, need - 1)
    monkeypatch.setattr(*work, _refuse)
    with pytest.raises(BudgetError) as exc:
        step(need - 1)
    assert str(exc.value) == f"{what}: {need} exceeds the limit of {need - 1}"
