"""Closed-form frequency vectors, expectations and variances for the special
families, used to cross-validate the general machinery and to evaluate at
large n cheaply. Each function takes gen_family's arguments and refuses the
sizes gen_family refuses."""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import _check_family
from .product_types import PRODUCT_TYPES, TYPE_VERTEX_COUNT, FreqVector


def _binom(a: int, b: int) -> int:
    # binom(a, b) = 0 outside 0 <= b <= a, so each formula holds for all n
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def closed_freq(
    family: str, n: int, n2: int | None = None, lam: int | None = None
) -> FreqVector:
    """Exact frequency vector of gen_family(family, n, n2, lam) from the
    per-family closed formulas; the sizes are checked as gen_family checks
    them.

    Each formula is only meaningful for at least |v_w| vertices (the type's
    vertex count); below that threshold every count is zero, applied as a
    final mask (the cycle family needs it: its f01 expression is positive
    at n = 4).
    """
    _check_family(family, n, n2=n2, lam=lam)
    vertices = n
    if family in ("star", "star_plus_isolated"):
        counts = dict.fromkeys(PRODUCT_TYPES, 0)
    elif family == "complete":
        counts = {
            "00": 630 * _binom(n, 8),
            "24": 3 * _binom(n, 4),
            "13": 60 * _binom(n, 5),
            "12": 90 * _binom(n, 6),
            "04": 6 * _binom(n, 4),
            "03": 120 * _binom(n, 5),
            "021": 360 * _binom(n, 6),
            "022": 360 * _binom(n, 6),
            "01": 1260 * _binom(n, 7),
        }
    elif family == "complete_bipartite":
        n1, vertices = n, n + n2
        counts = {
            "00": 144 * _binom(n1, 4) * _binom(n2, 4),
            "24": 2 * _binom(n1, 2) * _binom(n2, 2),
            "13": 12 * _binom(n1, 3) * _binom(n2, 2)
            + 12 * _binom(n1, 2) * _binom(n2, 3),
            "12": 36 * _binom(n1, 3) * _binom(n2, 3),
            "04": 2 * _binom(n1, 2) * _binom(n2, 2),
            "03": 12 * _binom(n1, 3) * _binom(n2, 2)
            + 12 * _binom(n1, 2) * _binom(n2, 3),
            "021": 72 * _binom(n1, 3) * _binom(n2, 3),
            "022": 24 * _binom(n1, 2) * _binom(n2, 4)
            + 24 * _binom(n1, 4) * _binom(n2, 2)
            + 36 * _binom(n1, 3) * _binom(n2, 3),
            "01": 144 * _binom(n1, 4) * _binom(n2, 3)
            + 144 * _binom(n1, 3) * _binom(n2, 4),
        }
    elif family == "one_regular":
        hm = n // 2
        counts = {
            "00": 6 * _binom(hm, 4),
            "24": _binom(hm, 2),
            "13": 0,
            "12": 6 * _binom(hm, 3),
            "04": 0, "03": 0, "021": 0, "022": 0, "01": 0,
        }
    elif family == "quasi_star":
        counts = {
            "00": 0,
            "24": max(n - 3, 0),
            "13": max(n - 3, 0) * max(n - 4, 0),
            "12": 0, "04": 0, "03": 0, "021": 0, "022": 0, "01": 0,
        }
    elif family == "cycle":
        f00 = 3 * n * _binom(n - 5, 3)
        if f00 % 2:
            raise RuntimeError(
                f"internal inconsistency: cycle f00 numerator {f00} must be even"
            )
        counts = {
            "00": f00 // 2,
            "24": n * (n - 3) // 2,
            "13": 2 * n * (n - 4),
            "12": n * (n - 4) * (n - 5),
            "04": 2 if n == 4 else 0,
            "03": 2 * n,
            "021": 2 * n * (n - 5),
            "022": 2 * n * (n - 5),
            "01": 2 * n * (n - 5) * (n - 6),
        }
    else:  # linear_tree
        counts = {
            "00": 6 * _binom(n - 4, 4),
            "24": _binom(n - 2, 2),
            "13": 4 * _binom(n - 3, 2),
            "12": 6 * _binom(n - 3, 3),
            "04": 0,
            "03": max(2 * n - 8, 0),
            "021": 4 * _binom(n - 4, 2),
            "022": 4 * _binom(n - 4, 2),
            "01": 12 * _binom(n - 4, 3),
        }
    for code in PRODUCT_TYPES:
        if vertices < TYPE_VERTEX_COUNT[code]:
            counts[code] = 0
    return FreqVector.from_dict(counts)


def closed_expectation(
    family: str, n: int, n2: int | None = None, lam: int | None = None
) -> Fraction:
    """E[C] = |Q|/3 via the closed |Q| formulas (|Q| is f24 by definition)."""
    return Fraction(closed_freq(family, n, n2=n2, lam=lam).f24, 3)


def closed_variance(
    family: str, n: int, n2: int | None = None, lam: int | None = None
) -> Fraction:
    """Var[C] per family, with the sizes checked as gen_family checks them.

    Zero for n <= 3 everywhere; cycle n = 4 is the 2/9 special case. The
    cycle and linear-tree polynomials are verified against exhaustive
    enumeration over all n! arrangements and against the type-frequency
    expansion across the whole supported range.
    """
    _check_family(family, n, n2=n2, lam=lam)
    if family in ("star", "star_plus_isolated", "complete"):
        return Fraction(0)
    if family == "complete_bipartite":
        s = n + n2
        return Fraction(_binom(n, 2) * _binom(n2, 2) * (s * s + s), 90)
    if n <= 3:
        return Fraction(0)
    if family == "one_regular":
        return Fraction((n - 2) * n * (n + 6), 360)
    if family == "quasi_star":
        return Fraction(n * (n - 3), 18)
    if family == "cycle":
        if n == 4:
            return Fraction(2, 9)
        return Fraction(n * (2 * n * n + n - 30), 90)
    return Fraction(2 * n**3 - 5 * n**2 - 22 * n + 60, 90)  # linear_tree
