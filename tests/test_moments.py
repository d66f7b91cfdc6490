import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import (
    ALPHA_RLA,
    DELTA_RLA,
    RLA,
    LayoutConstants,
    chebyshev_pbound,
    exact_moments,
    exhaustive_moments,
    expectation_rla,
    format_rational,
    gen_family,
    size_q,
    variance_from_freq,
    variance_rla,
    z_score,
)
from crossings.product_types import PRODUCT_TYPES, FreqVector, freq_fast


class TestConstants:
    def test_gamma_is_alpha_minus_delta_squared(self):
        for code in PRODUCT_TYPES:
            assert RLA.gamma[code] == ALPHA_RLA[code] - DELTA_RLA**2

    def test_rla_delta(self):
        assert DELTA_RLA == Fraction(1, 3)

    def test_zero_contributors(self):
        assert RLA.gamma["00"] == RLA.gamma["01"] == 0

    def test_gamma24_identity(self):
        assert RLA.gamma["24"] == DELTA_RLA * (1 - DELTA_RLA)

    def test_table_values(self):
        assert RLA.gamma["022"] == Fraction(1, 180)
        assert ALPHA_RLA["022"] == Fraction(7, 60)
        assert ALPHA_RLA["04"] == 0

    def test_gamma_table_of_the_paper(self):
        # gamma_w as tabulated in the paper; the library derives it from alpha
        paper = {
            "00": 0, "24": Fraction(2, 9), "13": Fraction(1, 18),
            "12": Fraction(1, 45), "04": Fraction(-1, 9), "03": Fraction(-1, 36),
            "021": Fraction(-1, 90), "022": Fraction(1, 180), "01": 0,
        }
        assert RLA.gamma == paper

    def test_alpha_rederived_for_022(self):
        # oracle: enumerate all 6! permutations of the representative set
        q1 = ((1, 2), (3, 4))
        q2 = ((1, 5), (3, 6))
        hits = 0
        for perm in permutations(range(1, 7)):
            pos = dict(zip(range(1, 7), perm))

            def cross(e, f):
                lo1, hi1 = sorted((pos[e[0]], pos[e[1]]))
                lo2, hi2 = sorted((pos[f[0]], pos[f[1]]))
                return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1

            hits += cross(*q1) and cross(*q2)
        assert Fraction(hits, math.factorial(6)) == ALPHA_RLA["022"] == Fraction(7, 60)


class TestLayoutConstants:
    def test_rla_instance_valid(self):
        assert RLA.delta == Fraction(1, 3)
        assert ALPHA_RLA["24"] == Fraction(1, 3)

    def test_rejects_nonzero_00(self):
        gamma = dict(RLA.gamma)
        gamma["00"] = Fraction(1, 10)
        with pytest.raises(ValueError, match="zero gamma"):
            LayoutConstants(delta=Fraction(1, 3), gamma=gamma)

    def test_rejects_wrong_24(self):
        gamma = dict(RLA.gamma)
        gamma["24"] = Fraction(1, 5)
        with pytest.raises(ValueError, match=r"gamma\[24\]"):
            LayoutConstants(delta=Fraction(1, 3), gamma=gamma)

    def test_missing_type_rejected(self):
        gamma = dict(RLA.gamma)
        del gamma["03"]
        with pytest.raises(ValueError, match="missing types"):
            LayoutConstants(delta=Fraction(1, 3), gamma=gamma)

    def test_equality_and_immutability(self):
        same = LayoutConstants(Fraction(1, 3), dict(RLA.gamma))
        assert same == RLA and same is not RLA
        gamma = dict(RLA.gamma)
        gamma["04"] = Fraction(-1, 10)
        assert LayoutConstants(delta=Fraction(1, 3), gamma=gamma) != RLA
        assert (RLA.gamma_den, RLA.gamma_num[1]) == (180, 40)
        with pytest.raises(AttributeError):
            RLA.delta = Fraction(1, 2)
        with pytest.raises(AttributeError):
            del RLA.gamma
        with pytest.raises(TypeError):
            RLA.gamma["00"] = 1


class TestExpectation:
    def test_quasi_star(self):
        assert expectation_rla(gen_family("quasi_star", 6)) == 1
        for n in range(4, 20):
            assert expectation_rla(gen_family("quasi_star", n)) == Fraction(n, 3) - 1

    def test_complete(self):
        assert expectation_rla(gen_family("complete", 6)) == 15
        for n in range(4, 15):
            assert expectation_rla(gen_family("complete", n)) == math.comb(n, 4)

    def test_star(self):
        assert expectation_rla(gen_family("star", 11)) == 0

    def test_tree_form(self):
        # (n/6)(n - 1 - <k^2>) for trees
        from crossings import degree_stats, from_pruefer

        for code in [(1, 1, 1), (2, 3, 4), (5, 5, 1)]:
            g = from_pruefer(code)
            k2 = degree_stats(g)
            assert expectation_rla(g) == Fraction(g.n, 6) * (g.n - 1 - k2)


class TestVarianceRla:
    def test_appendix_values(self):
        assert variance_rla(gen_family("linear_tree", 5)) == Fraction(5, 6)
        assert variance_rla(gen_family("quasi_star", 5)) == Fraction(5, 9)
        assert variance_rla(gen_family("linear_tree", 6)) == 2
        assert variance_rla(gen_family("linear_tree", 7)) == Fraction(347, 90)
        assert variance_rla(gen_family("linear_tree", 4)) == Fraction(2, 9)

    def test_builds_no_q(self, monkeypatch):
        from crossings.graphs import Graph

        def refuse(self):
            raise AssertionError("variance_rla enumerated Q")

        monkeypatch.setattr(Graph, "q_pairs", refuse)
        assert variance_rla(gen_family("linear_tree", 7)) == Fraction(347, 90)
        assert variance_rla(gen_family("complete_bipartite", 4, n2=5)) >= 0

    def test_complete_zero(self):
        for n in range(4, 10):
            assert variance_rla(gen_family("complete", n)) == 0

    def test_matches_bracket_formula(self, er_corpus):
        # Var = (1/9)[2|Q| + f022/20 + f12/5 + f13/2 - (f021/10 + f04 + f03/4)]
        for _, g in er_corpus[::7]:
            fv = freq_fast(g)
            bracket = Fraction(1, 9) * (
                2 * size_q(g)
                + Fraction(fv["022"], 20)
                + Fraction(fv["12"], 5)
                + Fraction(fv["13"], 2)
                - (Fraction(fv["021"], 10) + fv["04"] + Fraction(fv["03"], 4))
            )
            assert variance_rla(g) == bracket

    def test_nonnegative_on_atlas(self, atlas_graphs):
        for g in atlas_graphs:
            assert variance_rla(g) >= 0

    def test_zero_iff_constant(self, atlas_graphs):
        # exhaustively verified: Var = 0 exactly when C never varies
        for g in atlas_graphs:
            if g.n > 6:
                continue
            rep = exhaustive_moments(g)
            assert (variance_rla(g) == 0) == (rep.variance == 0)


class TestVarianceLayout:
    def test_rla_constants_reproduce_variance_rla(self, atlas_graphs):
        for g in atlas_graphs[::50]:
            assert exact_moments(g, RLA)[2] == variance_rla(g)

    def test_one_regular_reduction(self):
        # any admissible constants: Var(1-regular) collapses to
        # (1/8) n (n-2) ((n-4) gamma_12 + gamma_24)
        delta = Fraction(2, 5)
        gamma = {
            "00": Fraction(0),
            "24": delta * (1 - delta),
            "13": Fraction(3, 71),
            "12": Fraction(1, 7),
            "04": Fraction(-1, 13),
            "03": Fraction(-1, 17),
            "021": Fraction(-1, 19),
            "022": Fraction(1, 23),
            "01": Fraction(0),
        }
        consts = LayoutConstants(delta=delta, gamma=gamma)
        for n in (4, 6, 8, 10, 12):
            g = gen_family("one_regular", n)
            expected = (
                Fraction(n * (n - 2), 8)
                * ((n - 4) * gamma["12"] + gamma["24"])
            )
            assert exact_moments(g, consts)[2] == expected

    def test_star_zero_for_any_constants(self):
        delta = Fraction(1, 2)
        gamma = {c: Fraction(0) for c in PRODUCT_TYPES}
        gamma["24"] = delta * (1 - delta)
        consts = LayoutConstants(delta=delta, gamma=gamma)
        assert exact_moments(gen_family("star", 9), consts)[2] == 0

    def test_variance_from_freq_matches(self):
        g = gen_family("cycle", 8)
        assert variance_from_freq(freq_fast(g)) == variance_rla(g)


class TestExactMoments:
    def test_rla_matches_the_single_moments(self, atlas_graphs):
        for g in atlas_graphs:
            assert exact_moments(g) == (freq_fast(g), expectation_rla(g),
                                        variance_rla(g))

    def test_custom_layout_mean_is_delta_q(self):
        delta = Fraction(2, 7)
        gamma = {c: Fraction(1, 11) for c in PRODUCT_TYPES}
        gamma.update({"00": 0, "01": 0, "24": delta * (1 - delta)})
        consts = LayoutConstants(delta=delta, gamma=gamma)
        for family, n in (("cycle", 8), ("complete", 6), ("star", 5)):
            g = gen_family(family, n)
            fv, e, var = exact_moments(g, consts)
            assert fv == freq_fast(g)
            assert e == delta * size_q(g)
            assert var == variance_from_freq(fv, consts)


def _moments(g):
    return expectation_rla(g), variance_rla(g)


class TestSignificance:
    def test_fig3_zscore(self):
        g = gen_family("one_regular", 8)
        assert variance_rla(g) == Fraction(28, 15)
        z = z_score(*_moments(g), 6)
        assert z == pytest.approx((6 - 2) / math.sqrt(28 / 15))

    def test_observed_at_mean(self):
        g = gen_family("cycle", 6)  # E = 3 integral
        assert z_score(*_moments(g), 3) == 0
        assert chebyshev_pbound(*_moments(g), 3) == 1

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError, match="zero|constant|Var"):
            z_score(*_moments(gen_family("complete", 5)), 5)

    def test_chebyshev_clamped(self):
        g = gen_family("one_regular", 8)
        mean, var = _moments(g)
        assert chebyshev_pbound(mean, var, 2) == 1  # observed = mean
        assert chebyshev_pbound(mean, var, 6) == Fraction(28, 15) / 16
        near = chebyshev_pbound(mean, var, 3)
        assert near == 1  # Var/(1)^2 = 28/15 clamps to 1

    def test_chebyshev_exact_rational(self):
        g = gen_family("quasi_star", 7)  # E = 4/3
        bound = chebyshev_pbound(*_moments(g), 3)
        assert bound == variance_rla(g) / (3 - Fraction(4, 3)) ** 2


class TestFormatting:
    def test_lowest_terms_and_decimal(self):
        assert format_rational(Fraction(347, 90)) == "347/90 (3.85555555556)"

    def test_integer_rendering(self):
        assert format_rational(Fraction(4, 2)) == "2 (2)"


# --- the integer-scaled forms against the Fraction formulas they replace ---


def fraction_variance(fv, constants):
    """The reference: sum_w f_w * gamma_w in Fraction arithmetic."""
    return sum((fv[c] * constants.gamma[c] for c in PRODUCT_TYPES), Fraction(0))


def fraction_z(mean, var, observed):
    return float(Fraction(observed) - mean) / math.sqrt(var)


def fraction_pbound(mean, var, observed):
    dev = Fraction(observed) - mean
    if dev == 0:
        return Fraction(1)
    return min(Fraction(1), var / (dev * dev))


# unlike denominators, so the common one is their least common multiple
CUSTOM = LayoutConstants(
    delta=Fraction(2, 7),
    gamma={
        "00": 0, "24": Fraction(10, 49), "13": Fraction(3, 71),
        "12": Fraction(-5, 11), "04": Fraction(-1, 13), "03": Fraction(1, 17),
        "021": Fraction(-4, 19), "022": Fraction(1, 23), "01": 0,
    },
)

freq_vectors = st.builds(
    FreqVector, *(st.integers(min_value=0, max_value=10**40) for _ in PRODUCT_TYPES)
)


class TestScaledVariance:
    def test_common_denominators(self):
        assert RLA.gamma_den == 180
        assert CUSTOM.gamma_den == 49 * 71 * 11 * 13 * 17 * 19 * 23
        for consts in (RLA, CUSTOM):
            for c, num in zip(PRODUCT_TYPES, consts.gamma_num):
                assert Fraction(num, consts.gamma_den) == consts.gamma[c]

    @pytest.mark.parametrize("consts", [RLA, CUSTOM], ids=["rla", "custom"])
    def test_equals_fraction_sum_on_graphs(self, consts, er_corpus, atlas_graphs):
        for g in [g for _, g in er_corpus] + atlas_graphs[::7]:
            fv = freq_fast(g)
            assert variance_from_freq(fv, consts) == fraction_variance(fv, consts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(freq_vectors)
    def test_equals_fraction_sum_on_any_counts(self, fv):
        for consts in (RLA, CUSTOM):
            var = variance_from_freq(fv, consts)
            assert type(var) is Fraction
            assert var == fraction_variance(fv, consts)


means = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6))
variances = st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**9))


class TestScaledSignificance:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(means, variances, st.integers(-10**30, 10**30))
    def test_equal_to_fraction_formulas(self, mean, var, observed):
        bound = chebyshev_pbound(mean, var, observed)
        assert type(bound) is Fraction
        assert bound == fraction_pbound(mean, var, observed)
        if var:
            # bit for bit, the sign of a zero included
            assert z_score(mean, var, observed).hex() == fraction_z(
                mean, var, observed).hex()

    def test_graphs(self, er_corpus):
        for _, g in er_corpus:
            mean, var = expectation_rla(g), variance_rla(g)
            for observed in range(size_q(g) + 1):
                assert chebyshev_pbound(mean, var, observed) == fraction_pbound(
                    mean, var, observed)
                if var:
                    assert z_score(mean, var, observed).hex() == fraction_z(
                        mean, var, observed).hex()

    def test_zero_deviation(self):
        mean, var = Fraction(3), Fraction(28, 15)
        assert z_score(mean, var, 3).hex() == fraction_z(mean, var, 3).hex() == "0x0.0p+0"
        assert chebyshev_pbound(mean, var, 3) == fraction_pbound(mean, var, 3) == 1

    def test_zero_variance(self):
        # |Q| = 0 makes C constant: no z-score, and the bound is 0 off the mean
        mean, var = Fraction(0), Fraction(0)
        with pytest.raises(ValueError, match="Var"):
            z_score(mean, var, 1)
        assert chebyshev_pbound(mean, var, 0) == fraction_pbound(mean, var, 0) == 1
        assert chebyshev_pbound(mean, var, 2) == fraction_pbound(mean, var, 2) == 0
