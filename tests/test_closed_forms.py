import inspect
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from crossings import (
    FAMILIES,
    closed_expectation,
    closed_freq,
    closed_variance,
    gen_family,
    size_q,
    variance_rla,
)
from crossings.moments import variance_from_freq
from crossings.product_types import freq_fast


CLOSED_FORMS = (closed_freq, closed_expectation, closed_variance)


class TestFamilyArguments:
    def test_signature_is_gen_family(self):
        expected = inspect.signature(gen_family).parameters
        for closed in CLOSED_FORMS:
            assert inspect.signature(closed).parameters == expected, closed

    def test_bipartite_requires_partitions(self):
        for closed in CLOSED_FORMS:
            with pytest.raises(ValueError, match="requires a second part n2"):
                closed("complete_bipartite", 6)

    def test_one_regular_parity(self):
        for closed in CLOSED_FORMS:
            with pytest.raises(ValueError, match="even n"):
                closed("one_regular", 7)

    def test_unknown_family(self):
        for closed in CLOSED_FORMS:
            with pytest.raises(ValueError, match="unknown family 'wheel'"):
                closed("wheel", 5)

    def test_same_rules_as_gen_family(self):
        def refusal(make, *args, **kwargs):
            try:
                make(*args, **kwargs)
            except ValueError as exc:
                return str(exc)
            return None

        for family in FAMILIES + ("wheel",):
            for n in (None, *range(-1, 9)):
                lams = (None, -1, 0, 1) + (() if n is None else (n, n + 1))
                for n2 in (None, -1, 0, 1, 2):
                    for lam in lams:
                        gen = refusal(gen_family, family, n, n2=n2, lam=lam)
                        for closed in CLOSED_FORMS:
                            got = refusal(closed, family, n, n2=n2, lam=lam)
                            assert got == gen, (closed, family, n, n2, lam)

    def test_star_plus_isolated_empty(self):
        # n = 0 with an empty star is a graph, so it is a family instance too
        assert gen_family("star_plus_isolated", 0, lam=0).n == 0
        assert closed_variance("star_plus_isolated", 0, lam=0) == 0


class TestClosedFreq:
    def test_cycle7_values(self):
        fv = closed_freq("cycle", 7)
        assert fv["03"] == 14
        assert fv["021"] == fv["022"] == 28

    def test_linear_tree7_f01(self):
        assert closed_freq("linear_tree", 7)["01"] == 12

    def test_complete5_f13(self):
        assert closed_freq("complete", 5)["13"] == 60

    def test_bipartite_f04(self):
        fv = closed_freq("complete_bipartite", 3, n2=3)
        assert fv["04"] == 18

    def test_cycle4_overrides(self):
        fv = closed_freq("cycle", 4)
        assert fv["04"] == 2
        assert fv["01"] == 0 and fv["03"] == 0  # below the |v| thresholds
        assert sum(fv) == size_q(gen_family("cycle", 4)) ** 2

    def test_star_all_zero(self):
        assert sum(closed_freq("star", 9)) == 0


EXACT_RANGES = [
    ("complete", range(1, 41)),
    ("cycle", range(3, 41)),
    ("linear_tree", range(1, 41)),
    ("quasi_star", range(4, 41)),
    ("one_regular", range(2, 41, 2)),
    ("star", range(1, 41)),
]


class TestClosedVsGeneral:
    @pytest.mark.parametrize("family,ns", EXACT_RANGES, ids=lambda v: str(v))
    def test_freq_and_variance_match(self, family, ns):
        for n in ns:
            g = gen_family(family, n)
            fv = freq_fast(g)
            cf = closed_freq(family, n)
            assert cf == fv, (family, n)
            assert cf.f24 == size_q(g)
            cv = closed_variance(family, n)
            assert cv == variance_from_freq(fv), (family, n)
            assert cv == variance_from_freq(cf)

    def test_bipartite_grid(self):
        for n1 in range(1, 11):
            for n2 in range(n1, 11):
                g = gen_family("complete_bipartite", n1, n2=n2)
                assert closed_freq("complete_bipartite", n1, n2=n2) == freq_fast(g)
                assert closed_variance("complete_bipartite", n1, n2=n2) == variance_rla(g)


class TestClosedVariance:
    def test_one_regular_8(self):
        assert closed_variance("one_regular", 8) == Fraction(28, 15)

    def test_quasi_star_5(self):
        assert closed_variance("quasi_star", 5) == Fraction(5, 9)

    def test_cycle_4_override(self):
        assert closed_variance("cycle", 4) == Fraction(2, 9)

    def test_cycle_5_by_brute_force(self):
        # oracle: population variance over all 5! arrangements
        g = gen_family("cycle", 5)
        pos_of = list(range(1, 6))
        tot = tot2 = 0
        for perm in permutations(range(1, 6)):
            pos = dict(zip(pos_of, perm))
            c = 0
            for (a, b), (x, y) in combinations(g.edges, 2):
                if len({a, b, x, y}) < 4:
                    continue
                lo1, hi1 = sorted((pos[a], pos[b]))
                lo2, hi2 = sorted((pos[x], pos[y]))
                c += lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1
            tot += c
            tot2 += c * c
        mean = Fraction(tot, 120)
        var = Fraction(tot2, 120) - mean * mean
        assert var == Fraction(25, 18)
        assert closed_variance("cycle", 5) == var
        # the linear tree of the same size coincidentally has 5/6
        assert closed_variance("linear_tree", 5) == Fraction(5, 6)

    def test_complete_always_zero(self):
        for n in range(1, 30):
            assert closed_variance("complete", n) == 0

    def test_star_plus_isolated_zero(self):
        assert closed_variance("star_plus_isolated", 9, lam=5) == 0
        assert closed_expectation("star_plus_isolated", 9, lam=5) == 0

    def test_zero_below_4(self):
        assert closed_variance("linear_tree", 3) == 0
        assert closed_variance("cycle", 3) == 0

    def test_bipartite_polynomial(self):
        for n1, n2 in [(2, 2), (3, 5), (4, 4), (2, 9)]:
            expected = Fraction(
                math.comb(n1, 2) * math.comb(n2, 2)
                * ((n1 + n2) ** 2 + n1 + n2), 90,
            )
            assert closed_variance("complete_bipartite", n1, n2=n2) == expected


class TestClosedExpectation:
    def test_values(self):
        assert closed_expectation("quasi_star", 6) == 1
        assert closed_expectation("complete", 6) == 15
        assert closed_expectation("cycle", 6) == 3
        assert closed_expectation("linear_tree", 5) == 1

    def test_pairs_to_crossings_ratio(self):
        # P(K_n)/C(K_n) = 3(n+1)/(n-3)
        for n in range(4, 25):
            m = math.comb(n, 2)
            pairs = math.comb(m, 2)
            cr = closed_expectation("complete", n)
            assert Fraction(pairs) / cr == Fraction(3 * (n + 1), n - 3)
