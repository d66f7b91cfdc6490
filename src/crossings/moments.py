"""Exact moments of the crossing count under uniformly random linear
arrangements, the layout-parameterized variance, and significance helpers.

All theoretical values are exact rationals; floats appear only in the
z-score and in presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .graphs import Graph, size_q
from .product_types import PRODUCT_TYPES, FreqVector, freq_fast

DELTA_RLA = Fraction(1, 3)

# P(both pairs of a type cross) under a uniformly random permutation.
ALPHA_RLA: Mapping[str, Fraction] = MappingProxyType({
    "00": Fraction(1, 9),
    "24": Fraction(1, 3),
    "13": Fraction(1, 6),
    "12": Fraction(2, 15),
    "04": Fraction(0),
    "03": Fraction(1, 12),
    "021": Fraction(1, 10),
    "022": Fraction(7, 60),
    "01": Fraction(1, 9),
})

# Covariance contribution per type: gamma_w = alpha_w - delta^2.
GAMMA_RLA: Mapping[str, Fraction] = MappingProxyType(
    {c: a - DELTA_RLA**2 for c, a in ALPHA_RLA.items()}
)


@dataclass(frozen=True)
class LayoutConstants:
    """delta_* and the per-type variance constants E_*[gamma_w] of a layout.

    Types 00 and 01 never contribute, and gamma_24 = delta(1 - delta) in any
    admissible layout; both are enforced here. Whether gamma_04 = -delta^2
    holds beyond the linear case is an open question, so it is not enforced.
    """

    delta: Fraction
    gamma: Mapping[str, Fraction]

    def __post_init__(self):
        missing = set(PRODUCT_TYPES) - set(self.gamma)
        if missing:
            raise ValueError(f"gamma missing types {sorted(missing)}")
        gm = {c: Fraction(v) for c, v in self.gamma.items()}
        object.__setattr__(self, "gamma", MappingProxyType(gm))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if gm["00"] != 0 or gm["01"] != 0:
            raise ValueError("types 00 and 01 must have zero gamma")
        if gm["24"] != self.delta * (1 - self.delta):
            raise ValueError("gamma[24] must equal delta*(1-delta)")


RLA = LayoutConstants(DELTA_RLA, GAMMA_RLA)


def expectation_rla(g: Graph) -> Fraction:
    """E[C] = |Q| / 3."""
    return Fraction(size_q(g), 3)


def variance_from_freq(fv: FreqVector, constants: LayoutConstants = RLA) -> Fraction:
    return sum((fv[c] * constants.gamma[c] for c in PRODUCT_TYPES), Fraction(0))


def variance_rla(g: Graph) -> Fraction:
    """Var[C] under random linear arrangements, exact."""
    return variance_from_freq(freq_fast(g), RLA)


def variance_layout(g: Graph, constants: LayoutConstants) -> Fraction:
    """Var[C] = sum_w f_w * gamma_w for a user-supplied layout."""
    return variance_from_freq(freq_fast(g), constants)


def z_score(mean: Fraction, var: Fraction, observed: int) -> float:
    """(C - E[C]) / sqrt(Var[C]); undefined when the variance is zero."""
    if var == 0:
        raise ValueError("z-score undefined: Var[C] = 0 (C is constant)")
    return float(Fraction(observed) - mean) / math.sqrt(var)


def chebyshev_pbound(mean: Fraction, var: Fraction, observed: int) -> Fraction:
    """Chebyshev bound on P(|C - E| >= |observed - E|), clamped to 1."""
    dev = Fraction(observed) - mean
    if dev == 0:
        return Fraction(1)
    return min(Fraction(1), var / (dev * dev))


def format_rational(x: Fraction, digits: int = 12) -> str:
    """Exact fraction plus a decimal rendering with `digits` significant
    digits, e.g. '347/90 (3.85555555556)'."""
    return f"{x} ({float(x):.{digits}g})"
