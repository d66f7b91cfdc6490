"""Closed-form frequency vectors, expectations and variances for the special
families, used to cross-validate the general machinery and to evaluate at
large n cheaply."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import _check_family
from .product_types import PRODUCT_TYPES, TYPE_VERTEX_COUNT, FreqVector


def _binom(a: int, b: int) -> int:
    # binom(a, b) = 0 outside 0 <= b <= a, so each formula holds for all n
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class FamilySpec:
    """A special family plus its size parameters.

    `n` is the vertex count (for complete_bipartite, n = n1 + n2 with the
    partition sizes in n1/n2, and a given n other than 0 or n1 + n2 is
    refused; for star_plus_isolated, `lam` is the star size).
    The sizes are checked as gen_family checks them, n1 standing for
    complete_bipartite's first part and being refused by every other family.
    """

    family: str
    n: int = 0
    n1: int | None = None
    n2: int | None = None
    lam: int | None = None

    def __post_init__(self):
        if self.family == "complete_bipartite":
            _check_family(self.family, self.n1, n2=self.n2, lam=self.lam)
            total = self.n1 + self.n2
            if self.n not in (0, total):
                raise ValueError(
                    f"complete_bipartite with parts {self.n1} and {self.n2} has "
                    f"n = {total}, got n = {self.n}"
                )
            object.__setattr__(self, "n", total)
        else:
            _check_family(self.family, self.n, n1=self.n1, n2=self.n2, lam=self.lam)


def closed_freq(spec: FamilySpec) -> FreqVector:
    """Exact frequency vector from the per-family closed formulas.

    Each formula is only meaningful for n >= |v_w| (the type's vertex
    count); below that threshold every count is zero, applied as a final
    mask (the cycle family needs it: its f01 expression is positive at
    n = 4).
    """
    f, n = spec.family, spec.n
    if f in ("star", "star_plus_isolated"):
        counts = dict.fromkeys(PRODUCT_TYPES, 0)
    elif f == "complete":
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
    elif f == "complete_bipartite":
        n1, n2 = spec.n1, spec.n2
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
    elif f == "one_regular":
        hm = n // 2
        counts = {
            "00": 6 * _binom(hm, 4),
            "24": _binom(hm, 2),
            "13": 0,
            "12": 6 * _binom(hm, 3),
            "04": 0, "03": 0, "021": 0, "022": 0, "01": 0,
        }
    elif f == "quasi_star":
        counts = {
            "00": 0,
            "24": max(n - 3, 0),
            "13": max(n - 3, 0) * max(n - 4, 0),
            "12": 0, "04": 0, "03": 0, "021": 0, "022": 0, "01": 0,
        }
    elif f == "cycle":
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
    elif f == "linear_tree":
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
    else:  # pragma: no cover
        raise ValueError(f"unknown family {f!r}")
    for code in PRODUCT_TYPES:
        if n < TYPE_VERTEX_COUNT[code]:
            counts[code] = 0
    return FreqVector.from_dict(counts)


def closed_expectation(spec: FamilySpec) -> Fraction:
    """E[C] = |Q|/3 via the closed |Q| formulas (|Q| is f24 by definition)."""
    return Fraction(closed_freq(spec).f24, 3)


def closed_variance(spec: FamilySpec) -> Fraction:
    """Var[C] per family.

    Zero for n <= 3 everywhere; cycle n = 4 is the 2/9 special case. The
    cycle and linear-tree polynomials are verified against exhaustive
    enumeration over all n! arrangements and against the type-frequency
    expansion across the whole supported range.
    """
    f, n = spec.family, spec.n
    if f in ("star", "star_plus_isolated", "complete"):
        return Fraction(0)
    if f == "complete_bipartite":
        n1, n2 = spec.n1, spec.n2
        s = n1 + n2
        return Fraction(_binom(n1, 2) * _binom(n2, 2) * (s * s + s), 90)
    if n <= 3:
        return Fraction(0)
    if f == "one_regular":
        return Fraction((n - 2) * n * (n + 6), 360)
    if f == "quasi_star":
        return Fraction(n * (n - 3), 18)
    if f == "cycle":
        if n == 4:
            return Fraction(2, 9)
        return Fraction(n * (2 * n * n + n - 30), 90)
    if f == "linear_tree":
        return Fraction(2 * n**3 - 5 * n**2 - 22 * n + 60, 90)
    raise ValueError(f"unknown family {f!r}")  # pragma: no cover
