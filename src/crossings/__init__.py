"""Exact expectation and variance of the number of edge crossings of a graph
whose vertices are placed uniformly at random on a line, with brute-force
oracles, closed forms for special families, empirical estimators and a
z-score significance test.

The names of `closed_forms` (`closed_*`) and of `validation`
(`ValidationReport`, `check_graph`, `validate_*`) load their module on first
access, so that commands which never use them do not pay for importing
them. Every other public name is imported with the package.
"""

__version__ = "0.1.0"

from .arrangement import (
    LinearArrangement,
    crossings,
    parse_arrangement,
    random_arrangement,
)
from .estimator import (
    EstimateReport,
    ScanRow,
    exhaustive_moments,
    monte_carlo_moments,
    scan_family,
)
from .graphs import (
    FAMILIES,
    BudgetError,
    Graph,
    GraphFormatError,
    degree_stats,
    erdos_renyi,
    format_edge_list,
    from_graph6,
    from_pruefer,
    gen_family,
    is_q_zero,
    parse_edge_list,
    q_edge,
    size_q,
)
from .moments import (
    ALPHA_RLA,
    DELTA_RLA,
    RLA,
    LayoutConstants,
    chebyshev_pbound,
    expectation_rla,
    format_rational,
    variance_from_freq,
    variance_layout,
    variance_rla,
    z_score,
)
from .product_types import (
    GRAPHETTE_MULTIPLIERS,
    GRAPHETTE_SHAPES,
    PRODUCT_TYPES,
    TYPE_VERTEX_COUNT,
    FreqVector,
    classify,
    count_graphette,
    freq_brute,
    freq_fast,
)

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("closed_expectation", "closed_freq", "closed_variance"),
                    "closed_forms"),
    **dict.fromkeys(("ValidationReport", "check_graph", "validate_er",
                     "validate_families", "validate_graph6_corpus",
                     "validate_trees"), "validation"),
}

__all__ = sorted(
    [name for name in globals() if not name.startswith("_") and name not in (
        "arrangement", "estimator", "graphs", "moments", "product_types")]
    + list(_LAZY)
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
