"""Exact moments of the crossing count under uniformly random linear
arrangements or any layout given by its constants, and significance helpers.

All theoretical values are exact rationals; floats appear only in the
z-score and in presentation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
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


class LayoutConstants:
    """delta_* and the per-type variance constants E_*[gamma_w] of a layout.

    Types 00 and 01 never contribute, and gamma_24 = delta(1 - delta) in any
    admissible layout; both are enforced here. Whether gamma_04 = -delta^2
    holds beyond the linear case is an open question, so it is not enforced.

    The gammas are also kept as integers over one common denominator:
    gamma_w = gamma_num[i] / gamma_den, with w = PRODUCT_TYPES[i] and
    gamma_den the least common multiple of their denominators (180 for RLA).
    Instances are immutable and compare equal on delta and gamma.
    """

    __slots__ = ("delta", "gamma", "gamma_den", "gamma_num")

    def __init__(self, delta: Fraction, gamma: Mapping[str, Fraction]):
        missing = set(PRODUCT_TYPES) - set(gamma)
        if missing:
            raise ValueError(f"gamma missing types {sorted(missing)}")
        gm = {c: Fraction(v) for c, v in gamma.items()}
        delta = Fraction(delta)
        if gm["00"] != 0 or gm["01"] != 0:
            raise ValueError("types 00 and 01 must have zero gamma")
        if gm["24"] != delta * (1 - delta):
            raise ValueError("gamma[24] must equal delta*(1-delta)")
        den = math.lcm(*(x.denominator for x in gm.values()))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gamma", MappingProxyType(gm))
        object.__setattr__(self, "gamma_den", den)
        object.__setattr__(self, "gamma_num", tuple(
            gm[c].numerator * (den // gm[c].denominator) for c in PRODUCT_TYPES
        ))

    def __setattr__(self, name, value):
        raise AttributeError("LayoutConstants is immutable")

    def __delattr__(self, name):
        raise AttributeError("LayoutConstants is immutable")

    def __eq__(self, other):
        if not isinstance(other, LayoutConstants):
            return NotImplemented
        return (self.delta, self.gamma) == (other.delta, other.gamma)

    def __repr__(self) -> str:
        return f"LayoutConstants(delta={self.delta!r}, gamma={self.gamma!r})"


# The covariance contribution per type is gamma_w = alpha_w - delta^2.
RLA = LayoutConstants(DELTA_RLA, {c: a - DELTA_RLA**2 for c, a in ALPHA_RLA.items()})


def expectation_rla(g: Graph) -> Fraction:
    """E[C] = |Q| / 3, with |Q| read from the degrees."""
    return Fraction(size_q(g), 3)


def variance_from_freq(fv: FreqVector, constants: LayoutConstants = RLA) -> Fraction:
    """sum_w f_w * gamma_w, summed in integers over the common denominator."""
    num = sum(map(mul, fv, constants.gamma_num))
    return Fraction(num, constants.gamma_den)


def exact_moments(
    g: Graph, constants: LayoutConstants = RLA
) -> tuple[FreqVector, Fraction, Fraction]:
    """(f, E[C], Var[C]) in the layout of `constants`, from one freq_fast
    pass: E[C] = delta * |Q| with |Q| = f24, and Var[C] = sum_w f_w gamma_w."""
    fv = freq_fast(g)
    return fv, constants.delta * fv.f24, variance_from_freq(fv, constants)


def variance_rla(g: Graph) -> Fraction:
    """Var[C] under random linear arrangements, exact."""
    return exact_moments(g)[2]


def z_score(mean: Fraction, var: Fraction, observed: int) -> float:
    """(C - E[C]) / sqrt(Var[C]); undefined when the variance is zero.

    Each ratio of integers is one correctly rounded division, as
    Fraction.__float__ is, so no Fraction arithmetic is needed.
    """
    if var == 0:
        raise ValueError("z-score undefined: Var[C] = 0 (C is constant)")
    den = mean.denominator
    dev = (observed * den - mean.numerator) / den
    return dev / math.sqrt(var.numerator / var.denominator)


def chebyshev_pbound(mean: Fraction, var: Fraction, observed: int) -> Fraction:
    """Chebyshev bound on P(|C - E| >= |observed - E|), clamped to 1:
    Var / dev^2 with dev = observed - E = dev_num / den."""
    den = mean.denominator
    dev_num = observed * den - mean.numerator
    if dev_num == 0:
        return Fraction(1)
    num = var.numerator * den * den
    denom = var.denominator * dev_num * dev_num
    return Fraction(1) if num >= denom else Fraction(num, denom)


def format_rational(x: Fraction) -> str:
    """Exact fraction plus a decimal rendering with 12 significant digits,
    e.g. '347/90 (3.85555555556)'."""
    return f"{x} ({float(x):.12g})"
